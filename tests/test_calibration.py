"""Capacity-frontier calibration tests.

The paper's OoM cells (Tables 4, 5, 7, 8) must emerge from real structure
sizes measured against the scaled device budget (repro.memory). These
tests recompute every binding constraint from the generated graphs, so a
change to a graph spec or the budget that would silently break the
reproduction's OoM pattern fails here instead of in a 40-minute benchmark
run. Formulas mirror the engines' ledgers exactly:

- Pangolin TC (oriented clique): symmetric CSR (DAG built on device) +
  oriented CSR + oriented edgelist.
- G2Miner TC: oriented CSR + oriented edgelist only (host-side
  preprocessing + opt J).
- BFS non-clique (3-MC): symmetric CSR + full symmetric edgelist.
- Pangolin k-CL adds the materialised level lists (triangles x 24 B,
  4-cliques x 32 B).
- FSM: wedge-embedding list x 24 B (Pangolin) or x 144 B (DistGraph's
  Python object store) vs the GPU / CPU budgets; G2Miner holds no
  embedding list, only the label-pruned CSR, the neighbour-label
  histogram and its domain-flag block.
"""
import numpy as np
import pytest

from repro.core.engine_dfs import DFSConfig
from repro.graph.csr import build_csr
from repro.graph.gen import generate_graph
from repro.memory import CPU_MEM_BYTES, GPU_MEM_BYTES


@pytest.fixture(scope="module")
def stats():
    out = {}
    for name in ["Lj", "Or", "Tw2", "Tw4", "Fr", "Uk"]:
        e, _ = generate_graph(name)
        g = build_csr(e)
        go = g.orient()
        T = k4 = 0
        for u in range(go.n):
            nu = go.neighbors(u)
            for v in nu:
                w = np.intersect1d(nu, go.neighbors(int(v)), assume_unique=True)
                T += len(w)
                for x in w:
                    k4 += len(
                        np.intersect1d(w, go.neighbors(int(x)), assume_unique=True)
                    )
        out[name] = {
            "sym": g.nbytes() + g.edge_tasks("all").nbytes,
            "pang_tc": g.nbytes() + go.nbytes() + go.edge_tasks("all").nbytes,
            "g2_tc": go.nbytes() + go.edge_tasks("all").nbytes,
            "g2_red": g.nbytes() + g.edge_tasks("lt").nbytes,
            "tri_list": T * 24,
            "k4_list": k4 * 32,
        }
    return out


def wedges(name):
    e, _ = generate_graph(name)
    g = build_csr(e)
    d = g.degrees.astype(np.int64)
    return int((d * (d - 1) // 2).sum())


# -- Table 4 frontier ----------------------------------------------------

def test_g2miner_tc_runs_everywhere(stats):
    for g in ["Lj", "Or", "Tw2", "Tw4", "Fr", "Uk"]:
        assert stats[g]["g2_tc"] < GPU_MEM_BYTES, g


@pytest.mark.parametrize("g", ["Lj", "Or", "Tw2", "Fr"])
def test_pangolin_tc_fits(stats, g):
    assert stats[g]["pang_tc"] < GPU_MEM_BYTES


@pytest.mark.parametrize("g", ["Tw4", "Uk"])
def test_pangolin_tc_oom(stats, g):
    assert stats[g]["pang_tc"] > GPU_MEM_BYTES


# -- Table 5 frontier ----------------------------------------------------

@pytest.mark.parametrize("g", ["Lj", "Or"])
def test_pangolin_4cl_fits(stats, g):
    assert stats[g]["pang_tc"] + stats[g]["tri_list"] < GPU_MEM_BYTES


@pytest.mark.parametrize("g", ["Tw2", "Tw4", "Fr"])
def test_pangolin_4cl_oom(stats, g):
    assert stats[g]["pang_tc"] + stats[g]["tri_list"] > GPU_MEM_BYTES


@pytest.mark.parametrize("g", ["Lj", "Or", "Fr"])
def test_pangolin_5cl_oom(stats, g):
    need = stats[g]["pang_tc"] + stats[g]["tri_list"] + stats[g]["k4_list"]
    assert need > GPU_MEM_BYTES


# -- Tables 6/7 frontier -------------------------------------------------

@pytest.mark.parametrize("g", ["Lj", "Or", "Tw2"])
def test_bfs_symmetric_fits(stats, g):
    assert stats[g]["sym"] < GPU_MEM_BYTES


@pytest.mark.parametrize("g", ["Tw4", "Fr"])
def test_bfs_symmetric_oom(stats, g):
    """Pangolin 3-MC OoM cells (Table 7)."""
    assert stats[g]["sym"] > GPU_MEM_BYTES


def test_g2miner_diamond_tw4_fits(stats):
    """G2Miner runs SL diamond on Tw4 (Table 6) thanks to opt J."""
    assert stats["Tw4"]["g2_red"] < GPU_MEM_BYTES


# -- Table 8 frontier ----------------------------------------------------

@pytest.mark.parametrize("g", ["Mi", "Pa"])
def test_pangolin_fsm_fits(g):
    assert wedges(g) * 24 < GPU_MEM_BYTES


def test_pangolin_fsm_yo_oom():
    assert wedges("Yo") * 24 > GPU_MEM_BYTES


@pytest.mark.parametrize("g", ["Mi", "Pa"])
def test_distgraph_fsm_fits(g):
    assert wedges(g) * 144 < CPU_MEM_BYTES


def test_distgraph_fsm_yo_oom():
    assert wedges("Yo") * 144 > CPU_MEM_BYTES


def test_g2miner_fsm_yo_fits():
    """G2Miner runs Yo at the smallest Table 8 support (sigma = 3, which
    prunes the fewest labels): the pruned symmetric CSR (indptr, edge keys,
    labels), the n x L int64 histogram and a one-cell domain-flag block per
    device fit the GPU budget."""
    e, lab = generate_graph("Yo")
    vals, cnt = np.unique(lab, return_counts=True)
    good = vals[cnt >= 3]
    keep = np.isin(lab, good)
    n, L = int(keep.sum()), len(good)
    m = int((keep[e[:, 0]] & keep[e[:, 1]]).sum())
    graph = (n + 1) * 8 + 2 * m * 8 + n * 8
    need = graph + n * L * 8 + 8 * DFSConfig.num_partitions
    assert need < GPU_MEM_BYTES
