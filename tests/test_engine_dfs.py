"""DFS engine tests on Spark: every configuration path must produce counts
equal to the independently generated SQL executed by DuckDB (via
``repro.oracle.assert_equivalent``)."""
import pytest

from repro import memory as memmod
from repro.core import codegen
from repro.core.engine_dfs import DFSConfig, DFSEngine, oriented_clique_plan
from repro.core.pattern import clique, cycle, diamond, motifs, path
from repro.core.plan import build_plan
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


def check(spark, g, adj, engine, pattern, induced=False):
    df = engine.count_df(spark, g, pattern, induced=induced)
    sql = codegen.pattern_sql(build_plan(pattern, induced=induced))
    assert_equivalent(df, sql, adj=adj)


EI = [(clique(3), False), (clique(4), False), (clique(5), False),
      (diamond(), False), (cycle(4), False), (path(4), False)]
VI = [(p, True) for p in motifs(3) + motifs(4)]


@pytest.mark.parametrize("p,induced", EI + VI,
                         ids=[f"{p.name}-{'vi' if i else 'ei'}" for p, i in EI + VI])
def test_default_engine_matches_oracle(spark, g, adj, p, induced):
    check(spark, g, adj, DFSEngine(DFSConfig(memory_budget=BIG)), p, induced)


@pytest.mark.parametrize("p", [clique(3), clique(4), diamond()], ids=lambda p: p.name)
def test_vertex_parallel_matches_oracle(spark, g, adj, p):
    eng = DFSEngine(DFSConfig(parallelism="vertex", memory_budget=BIG))
    check(spark, g, adj, eng, p)


@pytest.mark.parametrize("p", [clique(3), diamond()], ids=lambda p: p.name)
def test_python_backend_matches_oracle(spark, g, adj, p):
    eng = DFSEngine(
        DFSConfig(parallelism="vertex", setops="python", orientation=False,
                  memory_budget=BIG)
    )
    check(spark, g, adj, eng, p)


def test_orientation_off_matches(spark, g, adj):
    eng = DFSEngine(DFSConfig(orientation=False, memory_budget=BIG))
    check(spark, g, adj, eng, clique(4))


def test_no_chunked_schedule_matches(spark, g):
    a = DFSEngine(DFSConfig(chunked_schedule=False, memory_budget=BIG))
    b = DFSEngine(DFSConfig(chunked_schedule=True, memory_budget=BIG))
    assert a.count(spark, g, clique(3)) == b.count(spark, g, clique(3))


def test_oom_raised_on_tiny_budget(spark, g):
    eng = DFSEngine(DFSConfig(memory_budget=64))
    with pytest.raises(memmod.OutOfMemoryError):
        eng.count(spark, g, clique(3))


def test_meter_released_after_run(spark, g):
    meter = memmod.MemoryMeter(BIG)
    DFSEngine(DFSConfig()).count(spark, g, clique(3), meter=meter)
    assert meter.resident == 0
    assert meter.peak > 0


def test_last_ops_populated(spark, g):
    eng = DFSEngine(DFSConfig(memory_budget=BIG))
    eng.count(spark, g, clique(3))
    assert eng.last_ops > 0


def test_per_task_costs_shape(spark, g):
    eng = DFSEngine(DFSConfig(memory_budget=BIG))
    costs = eng.per_task_costs(spark, g, clique(3))
    assert len(costs) == g.num_edges
    assert (costs >= 1).all()


def test_oriented_clique_plan_structure():
    plan = oriented_clique_plan(4)
    assert plan.sym == ()
    assert plan.conn == ((), (0,), (0, 1), (0, 1, 2))
    assert plan.num_buffers() <= 1


def test_count_df_schema(spark, g):
    df = DFSEngine(DFSConfig(memory_budget=BIG)).count_df(spark, g, clique(3))
    assert df.columns == ["cnt"]
    assert df.count() == 1
