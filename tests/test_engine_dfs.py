"""DFS engine tests on Spark: every configuration path must produce counts
equal to the independently generated SQL executed by DuckDB (via
``repro.oracle.assert_equivalent``)."""
import pandas as pd
import pytest

from repro import memory as memmod
from repro.core import codegen, engine_dfs
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.core.pattern import clique, cycle, diamond, motifs, path
from repro.core.plan import build_plan, oriented_clique_plan
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from repro.oracle import assert_equivalent

BIG = 1 << 40


@pytest.fixture(scope="module")
def g():
    e, _ = generate_graph("tiny_skew")
    return build_csr(e)


@pytest.fixture(scope="module")
def adj():
    return adj_pdf("tiny_skew")


def count_df(spark, engine, g, pattern, **kw):
    """``engine.count`` as a one-row DataFrame (column ``cnt``), the shape
    ``repro.oracle.assert_equivalent`` compares with the pattern SQL."""
    return spark.createDataFrame(pd.DataFrame({"cnt": [engine.count(spark, g, pattern, **kw)]}))


def check(spark, g, adj, engine, pattern, induced=False):
    df = count_df(spark, engine, g, pattern, induced=induced, meter=memmod.MemoryMeter(BIG))
    sql = codegen.pattern_sql(build_plan(pattern, induced=induced))
    assert_equivalent(df, sql, adj=adj)


EI = [(clique(3), False), (clique(4), False), (clique(5), False),
      (diamond(), False), (cycle(4), False), (path(4), False)]
VI = [(p, True) for p in motifs(3) + motifs(4)]


@pytest.mark.parametrize("p,induced", EI + VI,
                         ids=[f"{p.name}-{'vi' if i else 'ei'}" for p, i in EI + VI])
def test_default_engine_matches_oracle(spark, g, adj, p, induced):
    check(spark, g, adj, DFSEngine(), p, induced)


@pytest.mark.parametrize("p", [clique(3), clique(4), diamond()], ids=lambda p: p.name)
def test_vertex_parallel_matches_oracle(spark, g, adj, p):
    eng = DFSEngine(DFSConfig("numpy"))
    check(spark, g, adj, eng, p)


@pytest.mark.parametrize("p", [clique(3), diamond()], ids=lambda p: p.name)
def test_python_backend_matches_oracle(spark, g, adj, p):
    eng = DFSEngine(DFSConfig("python"))
    check(spark, g, adj, eng, p)


def test_vertex_fallback_keeps_g2miner_schedule(spark, g, monkeypatch):
    """When the unreduced edgelist does not fit, G2Miner falls back to
    vertex tasks (SS5.1): the batched kernel on root vertices, in its
    chunked round-robin order, never the CPU systems' generated kernel."""
    p = path(3)
    assert not build_plan(p, induced=True).first_edge_reduced()
    orders = []
    real = engine_dfs.chunked_round_robin_order
    monkeypatch.setattr(engine_dfs, "chunked_round_robin_order",
                        lambda m, bins, chunk: orders.append(m) or real(m, bins, chunk=chunk))

    def generated_kernel(*args, **kwargs):
        raise AssertionError("G2Miner reached the generated kernel")

    meter = memmod.MemoryMeter(g.nbytes() + g.edge_tasks("all").nbytes - 1)
    with monkeypatch.context() as m:
        m.setattr(codegen, "kernel_source", generated_kernel)
        m.setattr(engine_dfs, "_vertex_worker", generated_kernel)
        got = DFSEngine().count(spark, g, p, induced=True, meter=meter)
        DFSEngine().count(spark, g, p, induced=True, meter=memmod.MemoryMeter(BIG))
    assert orders == [g.n, 2 * g.num_edges]  # vertex tasks, then Omega, permuted
    assert meter.resident == 0
    assert meter.peak <= meter.budget
    assert got == DFSEngine(DFSConfig("numpy")).count(spark, g, p, induced=True)
    assert len(orders) == 2  # the CPU setting keeps natural order


@pytest.mark.parametrize("fallback", [False, True], ids=["big", "fallback"])
@pytest.mark.parametrize("k", [3, 4])
def test_count_many_keeps_the_ledger(spark, k, fallback):
    """One job for all patterns leaves the counts, the ledger's peak and
    the set-op work of counting them one at a time on a shared meter."""
    g = build_csr(generate_graph("tiny")[0])
    budget = g.nbytes() + g.edge_tasks("all").nbytes - 1 if fallback else BIG
    eng, seq = DFSEngine(), memmod.MemoryMeter(budget)
    want, ops = [], 0
    for p in motifs(k):
        want.append(eng.count(spark, g, p, induced=True, meter=seq))
        ops += eng.last_ops
    meter = memmod.MemoryMeter(budget)
    assert eng.count_many(spark, g, motifs(k), induced=True, meter=meter) == want
    assert (meter.peak, eng.last_ops) == (seq.peak, ops)
    assert meter.resident == 0


def test_oom_raised_on_tiny_budget(spark, g):
    with pytest.raises(memmod.OutOfMemoryError):
        DFSEngine().count(spark, g, clique(3), meter=memmod.MemoryMeter(64))


def test_meter_released_after_run(spark, g):
    meter = memmod.MemoryMeter(BIG)
    DFSEngine().count(spark, g, clique(3), meter=meter)
    assert meter.resident == 0
    assert meter.peak > 0


def test_last_ops_populated(spark, g):
    eng = DFSEngine()
    eng.count(spark, g, clique(3), meter=memmod.MemoryMeter(BIG))
    assert eng.last_ops > 0


@pytest.mark.parametrize("p", [clique(3), clique(4), diamond(), cycle(4)],
                         ids=lambda p: p.name)
def test_per_task_costs_sum_to_run_touches(spark, g, p):
    """The Fig 9/10 per-task costs measure the kernel ``count`` runs: one
    per Omega task, each its candidate checks + 1, summing to the run's."""
    eng = DFSEngine()
    eng.count(spark, g, p, meter=memmod.MemoryMeter(BIG))
    costs = eng.per_task_costs(g, p)
    assert len(costs) == g.num_edges  # each plan's Omega is reduced
    assert (costs >= 1).all()
    assert costs.sum() == eng.last_ops + len(costs)


def test_oriented_clique_plan_structure():
    plan = oriented_clique_plan(4)
    assert plan.lower == ((), (), (), ())
    assert plan.conn == ((), (0,), (0, 1), (0, 1, 2))
    assert plan.num_buffers() <= 1


def test_count_df_schema(spark, g):
    df = count_df(spark, DFSEngine(), g, clique(3), meter=memmod.MemoryMeter(BIG))
    assert df.columns == ["cnt"]
    assert df.collect()[0].cnt == DFSEngine().count(spark, g, clique(3))
