"""Synthetic data-graph generator tests (Table 3 stand-ins)."""
import numpy as np
import pytest

from repro.graph.gen import (
    GRAPHS,
    LABELED_GRAPHS,
    TEST_GRAPHS,
    adj_pdf,
    generate_graph,
    labels_pdf,
)

ALL_NAMES = list(TEST_GRAPHS) + ["Mi", "Pa"]  # small ones only, for speed


@pytest.mark.parametrize("name", ALL_NAMES)
def test_deterministic(name):
    e1, l1 = generate_graph(name)
    e2, l2 = generate_graph(name)
    assert np.array_equal(e1, e2) and np.array_equal(l1, l2)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_simple_graph_invariants(name):
    e, _ = generate_graph(name)
    assert (e[:, 0] < e[:, 1]).all(), "src < dst (no loops)"
    keys = e[:, 0] * 10**7 + e[:, 1]
    assert len(np.unique(keys)) == len(keys), "no duplicate edges"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_edge_count_close_to_target(name):
    spec = {**TEST_GRAPHS, **GRAPHS, **LABELED_GRAPHS}[name]
    e, _ = generate_graph(name)
    assert 0.85 * spec.target_edges <= len(e) <= spec.target_edges


@pytest.mark.parametrize("name", ALL_NAMES)
def test_vertex_ids_in_range(name):
    spec = {**TEST_GRAPHS, **GRAPHS, **LABELED_GRAPHS}[name]
    e, _ = generate_graph(name)
    assert e.min() >= 0 and e.max() < spec.n


def test_labels_present_only_for_labeled():
    _, lab = generate_graph("tiny")
    assert not lab.any()
    _, lab = generate_graph("tiny_labeled")
    assert lab.any()


def test_label_count_within_spec():
    spec = TEST_GRAPHS["tiny_labeled"]
    _, lab = generate_graph("tiny_labeled")
    assert len(lab) == spec.n
    assert lab.min() >= 0 and lab.max() < spec.n_labels


def test_label_distribution_skewed():
    _, lab = generate_graph("Mi")
    _, counts = np.unique(lab, return_counts=True)
    assert counts.max() > 4 * counts.min(), "zipf labels: head >> tail"


def test_adj_pdf_symmetric():
    adj = adj_pdf("tiny")
    pairs = set(map(tuple, adj.values))
    assert all((b, a) in pairs for (a, b) in pairs)
    assert len(adj) == 2 * len(generate_graph("tiny")[0])


def test_labels_pdf_shape():
    lp = labels_pdf("tiny_labeled")
    assert list(lp.columns) == ["v", "label"]
    assert len(lp) == TEST_GRAPHS["tiny_labeled"].n


def test_unknown_graph_raises():
    with pytest.raises(KeyError):
        generate_graph("nope")


def test_catalog_covers_paper_table3():
    assert set(GRAPHS) == {"Lj", "Or", "Tw2", "Tw4", "Fr", "Uk"}
    assert set(LABELED_GRAPHS) == {"Mi", "Pa", "Yo"}


def test_relative_sizes_match_paper_ordering():
    # |E|: Lj < Or < Tw2 < Tw4, Fr large, Uk largest — same ordering
    # relations the paper's Table 3 has (scaled).
    e = {n: len(generate_graph(n)[0]) for n in ["Lj", "Or", "Tw2", "Tw4", "Uk"]}
    assert e["Lj"] < e["Or"] < e["Tw2"] < e["Tw4"] < e["Uk"]


def test_skew_ordering():
    # Twitter-like graphs are heavier-tailed than Fr (paper: Fr has small
    # max degree relative to size).
    def maxdeg(name):
        e, _ = generate_graph(name)
        return np.bincount(e.ravel()).max()

    assert maxdeg("Tw4") > 4 * maxdeg("Fr")


def test_planted_cliques_boost_density():
    # Lj plants dense communities; its 4-clique density per edge must far
    # exceed the unplanted Fr's.
    from repro.graph.csr import build_csr

    def k4_per_edge(name):
        e, _ = generate_graph(name)
        go = build_csr(e).orient()
        k4 = 0
        for u in range(go.n):
            Nu = go.neighbors(u)
            for v in Nu:
                w = np.intersect1d(Nu, go.neighbors(v), assume_unique=True)
                for x in w:
                    k4 += len(np.intersect1d(w, go.neighbors(int(x)), assume_unique=True))
        return k4 / max(len(e), 1)

    assert k4_per_edge("Lj") > 20 * k4_per_edge("tiny")
