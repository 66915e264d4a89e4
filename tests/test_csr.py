"""CSR substrate and preprocessing tests (orientation, tasks)."""
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
    assert len(g.indices) == 2 * len(e)


def test_neighbor_lists_sorted_unique(g):
    for v in range(g.n):
        nb = g.neighbors(v)
        assert (np.diff(nb) > 0).all(), "sorted ascending, no duplicates"


def test_degrees_match_indptr(g):
    assert g.degrees.sum() == len(g.indices)
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
    assert len(go.indices) == g.num_edges


def test_orient_reduces_max_degree(g):
    go = g.orient()
    assert go.max_degree < g.max_degree


def test_orient_is_acyclic_by_rank(g):
    go = g.orient()
    deg = g.degrees
    for u in range(go.n):
        for v in go.neighbors(u):
            assert (deg[u], u) < (deg[v], v), "all edges point up the (degree, id) rank"


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


def test_orient_built_once_per_graph(g):
    assert g.orient() is g.orient()


def test_edge_keys_built_once_per_graph(g):
    assert g.edge_keys() is g.edge_keys()


# -- task edgelist Omega (opt J) -----------------------------------------

def test_edge_tasks_all(g):
    t = g.edge_tasks("all")
    assert len(t) == len(g.indices)


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
    assert len(go.edge_tasks("lt")) == len(go.indices)
