"""Pattern-analyzer tests: matching order, symmetry order, search plans.

The load-bearing test is the symmetry-breaking property: over all
monomorphisms of P into a random graph, the constrained count times
|Aut(P)| must equal the unconstrained count — the paper's completeness +
uniqueness guarantee (SS2.1).
"""
from itertools import permutations

import numpy as np
import pytest

from repro.core.pattern import (
    Pattern, clique, cycle, diamond, motifs, path, star, tailed_triangle,
)
from repro.core import codegen
from repro.core.plan import build_plan, matching_order, oriented_clique_plan, symmetry_order

PATTERNS = [
    clique(3), clique(4), clique(5), path(3), path(4), cycle(4),
    star(3), diamond(), tailed_triangle(),
]


def random_graph(n, p, seed):
    g = np.random.default_rng(seed)
    A = np.triu(g.random((n, n)) < p, 1)
    return A | A.T


def count_monomorphisms(adj, pat: Pattern, induced: bool) -> int:
    """Brute force count of injective structure-preserving maps."""
    n = len(adj)
    total = 0
    for perm in permutations(range(n), pat.k):
        ok = True
        for i in range(pat.k):
            for j in range(i + 1, pat.k):
                has = adj[perm[i], perm[j]]
                want = pat.has_edge(i, j)
                if want and not has:
                    ok = False
                elif induced and not want and has:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        total += ok
    return total


def count_with_plan(adj, plan) -> int:
    """Brute force count of maps satisfying the plan's constraints."""
    n = len(adj)
    pat = plan.pattern
    total = 0
    for perm in permutations(range(n), pat.k):
        ok = True
        for i in range(pat.k):
            for j in plan.conn[i]:
                if not adj[perm[i], perm[j]]:
                    ok = False
            for j in plan.anti[i]:
                if adj[perm[i], perm[j]]:
                    ok = False
            if not ok:
                break
        if ok:
            ok = all(perm[j] < perm[i] for i in range(pat.k) for j in plan.lower[i])
        # injectivity of permutations() covers excl
        total += ok
    return total


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
def test_matching_order_is_permutation(p):
    mo = matching_order(p)
    assert sorted(mo) == list(range(p.k))


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
def test_matching_order_connected_prefix(p):
    mo = matching_order(p)
    for i in range(1, p.k):
        assert any(p.has_edge(mo[i], mo[j]) for j in range(i)), (
            "every matched vertex must connect to an earlier one"
        )


def test_diamond_matching_order_hubs_first():
    mo = matching_order(diamond())
    # hubs (degree 3) are vertices 0 and 1
    assert set(mo[:2]) == {0, 1}


def test_matching_order_rejects_disconnected():
    from repro.core.pattern import from_edge_list
    with pytest.raises(ValueError):
        matching_order(from_edge_list(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
def test_symmetry_order_references_valid_positions(p):
    plan = build_plan(p, induced=False)
    for i in range(p.k):
        for j in plan.lower[i]:
            assert 0 <= j < i


@pytest.mark.parametrize("k", [3, 4, 5])
def test_clique_symmetry_is_total_order(k):
    plan = build_plan(clique(k), induced=False)
    assert sum(map(len, plan.lower)) == k * (k - 1) // 2


def test_diamond_symmetry_two_constraints():
    plan = build_plan(diamond(), induced=False)
    assert sum(map(len, plan.lower)) == 2  # hub pair + apex pair (SS2.2)


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
@pytest.mark.parametrize("induced", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_symmetry_breaking_uniqueness(p, induced, seed):
    """constrained x |Aut| == all monomorphisms (completeness+uniqueness)."""
    n = 8 if p.k <= 4 else 9
    adj = random_graph(n, 0.45, seed)
    plan = build_plan(p, induced=induced)
    expect = count_monomorphisms(adj, plan.pattern, induced)
    got = count_with_plan(adj, plan)
    assert got * len(plan.pattern.automorphisms()) == expect


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
def test_plan_level_constraint_partition(p):
    plan = build_plan(p, induced=True)
    # opt J: only a v0/v1 bound lets the edgelist be reduced
    assert plan.first_edge_reduced() == bool(plan.lower[1])
    for i in range(1, p.k):
        # conn and anti partition the earlier positions
        assert sorted(plan.conn[i] + plan.anti[i]) == list(range(i))
        assert plan.conn[i], "connected matching order"
        # excl ⊆ anti and excl ∩ bounded = ∅
        bounded = set(plan.lower[i])
        assert set(plan.excl[i]) <= set(plan.anti[i])
        assert not (set(plan.excl[i]) & bounded)


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
def test_edge_parallel_ok(p):
    """v0 and v1 form a pattern edge, so every plan can run on edge tasks."""
    assert build_plan(p, induced=False).conn[1] == (0,)


def test_first_edge_reduced_for_symmetric_start():
    assert build_plan(clique(3), induced=False).first_edge_reduced()
    assert build_plan(diamond(), induced=False).first_edge_reduced()
    # tailed-triangle's order starts on an asymmetric edge
    plan = build_plan(tailed_triangle(), induced=True)
    assert not plan.first_edge_reduced()


@pytest.mark.parametrize(
    "p,buffers",
    [(clique(3), 0), (clique(4), 1), (clique(5), 2), (diamond(), 1)],
    ids=lambda x: getattr(x, "name", x),
)
def test_num_buffers_bounded_by_k_minus_3(p, buffers):
    plan = build_plan(p, induced=False)
    assert plan.num_buffers() == buffers
    assert plan.num_buffers() <= max(p.k - 3, 0)


#: 86 plans: the named patterns and all 3-, 4- and 5-motifs, both
#: semantics, plus the oriented-clique plans.
ALL_PLANS = [
    (f"{p.name}-{'induced' if induced else 'edge'}", build_plan(p, induced=induced))
    for p in [clique(k) for k in (3, 4, 5, 6)] + [
        cycle(4), cycle(5), path(4), path(5), star(3), star(4), diamond(),
        tailed_triangle(), *motifs(3), *motifs(4), *motifs(5),
    ]
    for induced in (False, True)
] + [(f"oriented-{k}-clique", oriented_clique_plan(k)) for k in (3, 4, 5, 6)]


@pytest.mark.parametrize("plan", [p for _, p in ALL_PLANS], ids=[n for n, _ in ALL_PLANS])
def test_every_deeper_level_has_a_set_op(plan):
    """Every level i >= 2 applies at least one set op, so the kernel
    emitter gives it its own candidate set S_i instead of looping over a
    bare neighbour list."""
    for i in range(2, plan.k):
        ops = (
            len(plan.conn[i]) - 1
            + len(plan.anti[i])
            + len(plan.lower[i]) + bool(plan.excl[i])
        )
        assert ops >= 1, f"level {i}"


@pytest.mark.parametrize("plan", [p for _, p in ALL_PLANS], ids=[n for n, _ in ALL_PLANS])
def test_symmetry_order_bounds_later_positions_only(plan):
    """The stabilizer chain orders an earlier position below a later one
    and never the reverse, so ``lower`` states the whole order."""
    assert all(i < j for i, j in symmetry_order(plan.pattern))


@pytest.mark.parametrize("plan", [p for _, p in ALL_PLANS], ids=[n for n, _ in ALL_PLANS])
def test_generators_apply_each_bound_once(plan):
    """The generated kernel and the pattern SQL apply each of the plan's
    bounds exactly once: one ``bound_lower`` call, one ``<`` predicate."""
    bounds = sum(map(len, plan.lower))
    assert codegen.kernel_source(plan, "vertex").count("ops.bound_lower(") == bounds
    assert codegen.pattern_sql(plan).count(" < ") == bounds


def test_symmetry_order_stabilizer_chain_on_star():
    # star(3) in position space: center first, then 3 symmetric leaves.
    plan = build_plan(star(3), induced=False)
    assert sum(map(len, plan.lower)) == 3  # leaves totally ordered


def test_leaf_reuse_predicate():
    # Diamond and 3-star: the leaf is the parent's set, bounded by v_{k-2}.
    assert build_plan(diamond(), induced=False).leaf_reuse()
    assert build_plan(star(3), induced=False).leaf_reuse()
    # 4-cycle's leaf intersects other neighbourhoods than its parent.
    assert not build_plan(cycle(4), induced=False).leaf_reuse()
    # k = 3 has no expanded parent; induced leaves need a non-edge to v_{k-2}.
    for p in motifs(3) + motifs(4):
        assert not build_plan(p, induced=True).leaf_reuse(), p.name
    assert not build_plan(path(3), induced=False).leaf_reuse()
