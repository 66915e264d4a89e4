"""Counting-only pruning tests (opt D): decomposition results must equal
direct enumeration, and the auto-derived conversion matrix must be exact."""
import duckdb
import numpy as np
import pytest

from repro import memory as memmod
from repro.core import codegen, counting
from repro.core.counting import MOTIF4_NAMES, conversion_matrix
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.core.motifs import count_motifs
from repro.core.pattern import clique, diamond, path, tailed_triangle
from repro.core.plan import build_plan
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from repro.oracle import assert_equivalent
from repro.systems import SYSTEMS

BIG = 1 << 40


@pytest.fixture(scope="module")
def g():
    e, _ = generate_graph("tiny_dense")
    return build_csr(e)


# -- conversion matrix ---------------------------------------------------

def test_matrix_upper_triangular_unit_diagonal():
    M = conversion_matrix()
    assert (np.diag(M) == 1).all()
    assert np.allclose(M, np.triu(M))


def test_matrix_known_entries():
    M = conversion_matrix()
    i = {n: k for k, n in enumerate(MOTIF4_NAMES)}
    # A 4-clique spans: 3 four-cycles, 6 diamonds, 12 paths, 4 stars,
    # 12 tailed-triangles (classic inclusion counts).
    assert M[i["4-cycle"], i["4-clique"]] == 3
    assert M[i["diamond"], i["4-clique"]] == 6
    assert M[i["4-path"], i["4-clique"]] == 12
    assert M[i["3-star"], i["4-clique"]] == 4
    assert M[i["tailed-triangle"], i["4-clique"]] == 12
    # A diamond spans exactly 1 four-cycle and 2 tailed-triangles... the
    # brute force is the source of truth; spot-check one more:
    assert M[i["4-cycle"], i["diamond"]] == 1


# -- decomposed counts vs direct enumeration -----------------------------

def test_count3_counting_only_equals_enumeration(spark, g):
    fast = counting.count3_counting_only(spark, g, engine=DFSEngine())
    slow = count_motifs(spark, g, 3, DFSEngine(), meter=memmod.MemoryMeter(BIG))
    assert fast == slow


@pytest.mark.parametrize("name", ["tiny", "tiny_dense", "tiny_skew"])
def test_count4_counting_only_equals_enumeration(spark, name):
    e, _ = generate_graph(name)
    gg = build_csr(e)
    fast = counting.count4_counting_only(spark, gg, engine=DFSEngine())
    slow = count_motifs(spark, gg, 4, DFSEngine(), meter=memmod.MemoryMeter(BIG))
    assert fast == slow


def test_count4_counting_only_broadcasts_edge_keys_once(spark, monkeypatch):
    """The stats sweep and the 4-cycle kernel search the same graph, so
    they hold the same edge-key array, which the job's broadcast stores
    once."""
    launches = []

    def run_on_driver(spark, ls):
        launches.extend(ls)
        return [worker(graph, tasks) for graph, tasks, worker in ls]

    monkeypatch.setattr(counting, "run_slices", run_on_driver)
    gg = build_csr(generate_graph("tiny")[0])
    counting.count4_counting_only(spark, gg, engine=DFSEngine())
    (_, stats_keys), _, _ = launches[0]
    (_, cycle_keys), _, _ = launches[2]
    assert stats_keys is cycle_keys


def test_diamond_counting_only_matches_oracle(spark, g):
    import pandas as pd

    c = counting.diamond_counting_only(spark, g, engine=DFSEngine())
    df = spark.createDataFrame(pd.DataFrame({"cnt": [c]}))
    sql = codegen.pattern_sql(build_plan(diamond(), induced=False))
    assert_equivalent(df, sql, adj=adj_pdf("tiny_dense"))


def test_diamond_counting_only_equals_dfs(spark, g):
    assert counting.diamond_counting_only(spark, g, engine=DFSEngine()) == DFSEngine().count(
        spark, g, diamond(), meter=memmod.MemoryMeter(BIG)
    )


@pytest.mark.parametrize("setops", ["batched", "python"])
@pytest.mark.parametrize("name", ["tiny", "tiny_dense", "tiny_skew"])
def test_edge_triangle_stats_match_oracle(spark, name, setops):
    """The sweep's closed forms count what DuckDB counts on the pattern
    SQL of the edge-induced diamond, tailed triangle and 4-path."""
    gg = build_csr(generate_graph(name)[0])
    stats = counting.edge_triangle_stats(spark, gg, engine=DFSEngine(DFSConfig(setops)))
    con = duckdb.connect()
    con.register("adj", adj_pdf(name))
    try:
        for key, p in [("diamond_non", diamond()), ("paw_non", tailed_triangle()),
                       ("p4_non", path(4))]:
            sql = codegen.pattern_sql(build_plan(p, induced=False))
            assert stats[key] == con.execute(sql).fetchone()[0], key
    finally:
        con.close()


def test_python_backend_stats_agree(spark, g):
    a = counting.edge_triangle_stats(spark, g, engine=DFSEngine())
    b = counting.edge_triangle_stats(spark, g, engine=DFSEngine(DFSConfig("python")))
    assert a == b


@pytest.mark.parametrize("system", ["G2Miner", "Peregrine"])
def test_counting_sweep_charges_the_ledger(spark, g, monkeypatch, system):
    """The stats sweep charges its graph and its tasks to the engine's
    device budget, as a kernel launch does: with room for the graph alone
    it runs out at its tasks."""
    monkeypatch.setattr(memmod, "GPU_MEM_BYTES", g.nbytes() + 8)
    monkeypatch.setattr(memmod, "CPU_MEM_BYTES", g.nbytes() + 8)
    with pytest.raises(memmod.OutOfMemoryError) as e:
        counting.diamond_counting_only(spark, g, engine=SYSTEMS[system].make_engine())
    assert e.value.what == "tasks"


def test_edge_triangle_stats_T_matches_tc(spark, g):
    stats = counting.edge_triangle_stats(spark, g, engine=DFSEngine())
    assert stats["T"] == DFSEngine().count(spark, g, clique(3), meter=memmod.MemoryMeter(BIG))


def test_stats_keys(spark, g):
    stats = counting.edge_triangle_stats(spark, g, engine=DFSEngine())
    assert set(stats) == {"T", "diamond_non", "paw_non", "p4_non"}
    assert all(v >= 0 for v in stats.values())
