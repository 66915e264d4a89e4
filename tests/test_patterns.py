"""Unit tests for pattern graphs: structure, isomorphism, automorphisms."""
import pytest

from repro.core.pattern import (
    Pattern,
    clique,
    cycle,
    diamond,
    from_edge_list,
    motifs,
    path,
    star,
    tailed_triangle,
    triangle,
    wedge,
)

ALL_NAMED = [
    clique(3), clique(4), clique(5), path(3), path(4), cycle(4), cycle(5),
    star(3), diamond(), tailed_triangle(),
]


def test_triangle_is_3clique():
    assert triangle().is_isomorphic(clique(3))


def test_wedge_is_3path():
    assert wedge().is_isomorphic(path(3))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_clique_edge_count(k):
    assert clique(k).num_edges == k * (k - 1) // 2


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cycle_edge_count(k):
    assert cycle(k).num_edges == k


@pytest.mark.parametrize("p", ALL_NAMED, ids=lambda p: p.name)
def test_connected(p):
    assert p.is_connected()


@pytest.mark.parametrize("p", ALL_NAMED, ids=lambda p: p.name)
def test_degree_sequence_sums_to_twice_edges(p):
    assert sum(p.degree_sequence()) == 2 * p.num_edges


def test_disconnected_detected():
    p = from_edge_list(4, [(0, 1), (2, 3)])
    assert not p.is_connected()


def test_bad_edge_rejected():
    with pytest.raises(ValueError):
        Pattern(3, frozenset({frozenset((0, 3))}))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Pattern(3, frozenset({frozenset((1, 1))}))


# -- automorphism groups (known orders) ----------------------------------

@pytest.mark.parametrize(
    "p,order",
    [
        (clique(3), 6),
        (clique(4), 24),
        (clique(5), 120),
        (path(3), 2),
        (path(4), 2),
        (cycle(4), 8),
        (cycle(5), 10),
        (star(3), 6),
        (diamond(), 4),
        (tailed_triangle(), 2),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_automorphism_group_order(p, order):
    assert len(p.automorphisms()) == order


@pytest.mark.parametrize("p", ALL_NAMED, ids=lambda p: p.name)
def test_identity_is_automorphism(p):
    assert tuple(range(p.k)) in p.automorphisms()


@pytest.mark.parametrize("p", ALL_NAMED, ids=lambda p: p.name)
def test_automorphisms_form_group(p):
    auts = set(p.automorphisms())
    for a in auts:
        for b in auts:
            comp = tuple(a[b[i]] for i in range(p.k))
            assert comp in auts


# -- isomorphism ---------------------------------------------------------

def test_diamond_not_isomorphic_to_cycle4():
    assert not diamond().is_isomorphic(cycle(4))


def test_relabeled_is_isomorphic():
    p = diamond()
    q = p.relabel((2, 0, 3, 1))
    assert p.is_isomorphic(q)


def test_4motifs_pairwise_non_isomorphic():
    ms = motifs(4)
    assert len(ms) == 6
    for i, p in enumerate(ms):
        for q in ms[i + 1 :]:
            assert not p.is_isomorphic(q), (p.name, q.name)


def test_different_sizes_not_isomorphic():
    assert not clique(3).is_isomorphic(clique(4))


# -- analyzer properties -------------------------------------------------

@pytest.mark.parametrize("k", [3, 4, 5])
def test_clique_detection(k):
    assert clique(k).is_clique()


@pytest.mark.parametrize(
    "p", [path(3), path(4), cycle(4), star(3), diamond(), tailed_triangle()],
    ids=lambda p: p.name,
)
def test_non_cliques(p):
    assert not p.is_clique()


# -- motif generation (Fig. 3) -------------------------------------------

def test_three_motifs():
    ms = motifs(3)
    assert len(ms) == 2
    assert ms[0].is_isomorphic(wedge()) and ms[1].is_isomorphic(triangle())


def test_four_motifs():
    ms = motifs(4)
    assert len(ms) == 6
    assert all(m.is_connected() for m in ms)
    # pairwise non-isomorphic
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            assert not a.is_isomorphic(b)


def test_motifs_generic_enumeration_matches_hardcoded():
    # The generic fallback (used for k >= 5) must agree at k = 4.
    from repro.core.pattern import from_edge_list
    from itertools import combinations
    out = []
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        p = from_edge_list(4, [pairs[i] for i in range(6) if mask >> i & 1])
        if p.is_connected() and not any(p.is_isomorphic(q) for q in out):
            out.append(p)
    assert len(out) == 6


def test_motifs_5_count():
    # 21 connected 5-vertex graphs up to isomorphism (known value).
    assert len(motifs(5)) == 21
