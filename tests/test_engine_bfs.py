"""BFS (Pangolin/PBE) engine tests: Catalyst join chains must match the
oracle and the DFS engine, and the memory ledger must trip on real
materialised sizes."""
import pytest

from repro import memory as memmod
from repro.core import codegen
from repro.core.engine_bfs import BFSEngine
from repro.core.engine_dfs import DFSEngine
from repro.core.pattern import clique, cycle, diamond, path, star
from repro.core.plan import build_plan
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from repro.oracle import assert_equivalent

BIG = 1 << 40


@pytest.fixture(scope="module")
def g():
    e, _ = generate_graph("tiny")
    return build_csr(e)


@pytest.fixture(scope="module")
def adj():
    return adj_pdf("tiny")


def check(spark, g, adj, engine, pattern, induced=False):
    import pandas as pd

    c = engine.count(spark, g, pattern, induced=induced, meter=memmod.MemoryMeter(BIG))
    df = spark.createDataFrame(pd.DataFrame({"cnt": [c]}))
    sql = codegen.pattern_sql(build_plan(pattern, induced=induced))
    assert_equivalent(df, sql, adj=adj)


CASES = [
    (clique(3), False), (clique(4), False), (diamond(), False),
    (cycle(4), False), (path(4), False), (diamond(), True), (star(3), True),
]
IDS = [f"{p.name}-{'vi' if i else 'ei'}" for p, i in CASES]


@pytest.mark.parametrize("p,induced", CASES, ids=IDS)
def test_pangolin_mode_matches_oracle(spark, g, adj, p, induced):
    check(spark, g, adj, BFSEngine(), p, induced)


@pytest.mark.parametrize("p,induced", CASES[:5], ids=IDS[:5])
def test_pbe_mode_matches_oracle(spark, g, adj, p, induced):
    check(spark, g, adj, BFSEngine(adj_partitions=3), p, induced)


def test_bfs_equals_dfs(spark, g):
    meter = memmod.MemoryMeter(BIG)
    for p in [clique(4), diamond()]:
        assert BFSEngine().count(spark, g, p, meter=meter) == DFSEngine().count(
            spark, g, p, meter=meter
        )


def test_pangolin_oom_on_materialised_level(spark, g):
    # Budget big enough for the graph structures but not the triangle
    # subgraph list of a 4-clique run.
    base = g.orient().nbytes() + g.nbytes() + g.orient().edge_tasks("all").nbytes
    with pytest.raises(memmod.OutOfMemoryError):
        BFSEngine().count(spark, g, clique(4), meter=memmod.MemoryMeter(base + 1024))


def test_pangolin_k3_needs_no_intermediate(spark, g):
    # k = 3 has no intermediate level, so the same tight budget passes.
    base = g.orient().nbytes() + g.nbytes() + g.orient().edge_tasks("all").nbytes
    meter = memmod.MemoryMeter(base + 1024)
    assert BFSEngine().count(spark, g, clique(3), meter=meter) > 0


def test_pbe_never_oom_with_block_streaming(spark, g):
    base = g.nbytes() + g.edge_tasks("all").nbytes
    eng = BFSEngine(adj_partitions=3)
    assert eng.count(spark, g, clique(4), meter=memmod.MemoryMeter(base + (1 << 18))) > 0


def test_meter_released(spark, g):
    meter = memmod.MemoryMeter(BIG)
    BFSEngine().count(spark, g, clique(4), meter=meter)
    assert meter.resident == 0 and meter.peak > 0
