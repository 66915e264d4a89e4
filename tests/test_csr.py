"""CSR substrate and preprocessing tests (orientation, renaming, tasks)."""
import numpy as np
import pytest

from repro.graph.csr import CSRGraph, build_csr
from repro.graph.gen import generate_graph


@pytest.fixture(scope="module")
def g() -> CSRGraph:
    e, _ = generate_graph("tiny_skew")
    return build_csr(e)


def test_symmetric_edge_count(g):
    e, _ = generate_graph("tiny_skew")
    assert g.num_edges == len(e)
    assert g.num_edges_stored == 2 * len(e)


def test_neighbor_lists_sorted_unique(g):
    for v in range(g.n):
        nb = g.neighbors(v)
        assert (np.diff(nb) > 0).all(), "sorted ascending, no duplicates"


def test_degrees_match_indptr(g):
    assert g.degrees.sum() == g.num_edges_stored
    assert g.max_degree == g.degrees.max()


def test_has_edge_symmetric(g):
    e, _ = generate_graph("tiny_skew")
    for (u, v) in e[:50]:
        assert g.has_edge(u, v) and g.has_edge(v, u)
    assert not g.has_edge(0, 0)


def test_nbytes_positive(g):
    assert g.nbytes() == g.indptr.nbytes + g.indices.nbytes


# -- orientation (opt A) -------------------------------------------------

def test_orient_halves_edges(g):
    go = g.orient()
    assert go.directed
    assert go.num_edges_stored == g.num_edges


def test_orient_reduces_max_degree(g):
    go = g.orient()
    assert go.max_degree < g.max_degree


def test_orient_is_acyclic_by_rank(g):
    go = g.orient()
    rank = go.orient_rank
    for u in range(go.n):
        for v in go.neighbors(u):
            assert rank[u] < rank[v], "all edges point up the rank order"


def test_orient_preserves_edge_set(g):
    go = g.orient()
    undirected = set()
    for u in range(go.n):
        for v in go.neighbors(u):
            undirected.add((min(u, int(v)), max(u, int(v))))
    e, _ = generate_graph("tiny_skew")
    assert undirected == set(map(tuple, e))


def test_orient_requires_symmetric(g):
    with pytest.raises(ValueError):
        g.orient().orient()


# -- renaming (SS4.2 sorting/renaming) -----------------------------------

def test_rename_preserves_degree_multiset(g):
    gr = g.rename_by_degree()
    assert sorted(gr.degrees.tolist()) == sorted(g.degrees.tolist())


def test_rename_puts_hubs_first(g):
    gr = g.rename_by_degree()
    d = gr.degrees
    assert d[0] == g.max_degree, "vertex 0 is the biggest hub after renaming"
    assert d[0] >= d[g.n - 1]


def test_rename_preserves_triangle_count(g):
    def tc(gg):
        go = gg.orient()
        t = 0
        for u in range(go.n):
            Nu = go.neighbors(u)
            for v in Nu:
                t += len(np.intersect1d(Nu, go.neighbors(int(v)), assume_unique=True))
        return t

    assert tc(g) == tc(g.rename_by_degree())


# -- task edgelist Omega (opt J) -----------------------------------------

def test_edge_tasks_all(g):
    t = g.edge_tasks("all")
    assert len(t) == g.num_edges_stored


@pytest.mark.parametrize("mode", ["lt", "gt"])
def test_edge_tasks_reduced_halves(g, mode):
    t = g.edge_tasks(mode)
    assert len(t) == g.num_edges
    if mode == "lt":
        assert (t[:, 0] < t[:, 1]).all()
    else:
        assert (t[:, 0] > t[:, 1]).all()


def test_edge_tasks_bad_mode(g):
    with pytest.raises(ValueError):
        g.edge_tasks("xx")


def test_oriented_tasks_already_reduced(g):
    go = g.orient()
    assert len(go.edge_tasks("lt")) == go.num_edges_stored


# -- label info ----------------------------------------------------------

def test_label_frequency():
    e, lab = generate_graph("tiny_labeled")
    g2 = build_csr(e, labels=lab)
    freq = g2.label_frequency()
    assert sum(freq.values()) == g2.n
    assert g2.nbytes() > build_csr(e).nbytes()


def test_label_frequency_empty_for_unlabeled(g):
    assert g.label_frequency() == {}
