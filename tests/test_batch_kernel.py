"""Batched kernel tests (G2Miner).

The batched kernel must count exactly what the generated kernel counts
root by root on the same graph and plan, on edge tasks and on root
vertices alike, and what DuckDB counts on the generated pattern SQL,
whatever the frontier step: under a budget so small that every batch
splits many times as well as under an unbounded one.
"""
import numpy as np
import pytest

from repro import memory as memmod
from repro.core import codegen, counting
from repro.core.engine_dfs import (
    MAX_STEP, DFSConfig, DFSEngine, batch_count, buffer_step, run_slices,
)
from repro.core.pattern import clique, cycle, diamond, motifs, path, star, tailed_triangle
from repro.core.plan import build_plan
from repro.core.setops import BACKENDS, Counter
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from repro.oracle import assert_equivalent

from test_engine_dfs import count_df

BIG = 1 << 40
#: A frontier step far below the tiny graphs' expansions.
TINY_STEP = 5

EI = [(clique(3), False), (clique(4), False), (clique(5), False),
      (diamond(), False), (cycle(4), False), (path(4), False)]
VI = [(p, True) for p in motifs(3) + motifs(4)]
IDS = [f"{p.name}-{'vi' if i else 'ei'}" for p, i in EI + VI]


@pytest.fixture(scope="module")
def g():
    e, _ = generate_graph("tiny_skew")
    return build_csr(e)


def tiny(name):
    e, _ = generate_graph(name)
    return build_csr(e)


def edge_run(g, p, induced):
    """The graph, plan and task edgelist a G2Miner run searches."""
    g, plan = DFSEngine()._graph_and_plan(g, p, induced)
    return g, plan, DFSEngine._edge_tasks(g, plan)


def per_task_count(g, plan):
    """The generated kernel run root by root over every vertex."""
    kernel = codegen.compile_kernel(plan, "vertex")
    ops, ctr = BACKENDS["numpy"], Counter()
    return sum(kernel(v0, g.indptr, g.indices, ops, ctr) for v0 in range(g.n))


@pytest.mark.parametrize("name,kind", [
    pytest.param(n, k, id=n if k == "edges" else f"{n}-{k}")
    for k in ("edges", "roots") for n in ("tiny", "tiny_dense", "tiny_skew")
])
@pytest.mark.parametrize("p,induced", EI + VI, ids=IDS)
def test_batch_count_equals_per_task_kernel(name, kind, p, induced):
    g, plan, tasks = edge_run(tiny(name), p, induced)
    if kind == "roots":
        tasks = np.arange(g.n, dtype=np.int64)
    want = per_task_count(g, plan)
    keys = g.edge_keys()
    for step in (1, TINY_STEP, MAX_STEP):
        got, touches = batch_count(plan, g.indptr, keys, tasks, step)
        assert got == want, step
        assert touches > 0


@pytest.mark.parametrize("budget", ["tight", "big"])
@pytest.mark.parametrize("p,induced", EI + VI, ids=IDS)
def test_batched_engine_matches_oracle(spark, g, p, induced, budget):
    """Every clique size runs the batched oriented kernel."""
    limit = BIG
    if budget == "tight":
        gg, plan, tasks = edge_run(g, p, induced)
        per = (plan.k + 1) * 8 * DFSConfig.num_partitions
        limit = gg.nbytes() + tasks.nbytes + TINY_STEP * per
    meter = memmod.MemoryMeter(limit)
    df = count_df(spark, DFSEngine(), g, p, induced=induced, meter=meter)
    sql = codegen.pattern_sql(build_plan(p, induced=induced))
    assert_equivalent(df, sql, adj=adj_pdf("tiny_skew"))
    assert meter.resident == 0
    assert meter.peak <= meter.budget
    if budget == "tight":
        assert meter.peak == meter.budget  # the step is TINY_STEP exactly


@pytest.mark.parametrize(
    "p,induced",
    [(path(3), True), (path(4), False), (path(4), True), (star(3), True),
     (tailed_triangle(), True)],
    ids=["3-path-vi", "4-path-ei", "4-path-vi", "3-star-vi", "tailed-triangle-vi"],
)
def test_unreduced_edgelist_guard(spark, g, p, induced):
    """Omega meets level 1's bounds: a plan whose first edge cannot be
    reduced runs on every stored edge, and the engine, DuckDB and
    ``batch_count`` over ``edge_tasks("all")`` agree on it; a plan that can
    be reduced runs on the half its bound keeps."""
    plan = build_plan(p, induced=induced)
    tasks = DFSEngine._edge_tasks(g, plan)
    if plan.first_edge_reduced():
        assert len(tasks) == g.num_edges
        assert ((tasks[:, 1] > tasks[:, 0]) == bool(plan.lower[1])).all()
        return
    assert np.array_equal(tasks, g.edge_tasks("all"))
    full, _ = batch_count(plan, g.indptr, g.edge_keys(), tasks, MAX_STEP)
    eng, meter = DFSEngine(), memmod.MemoryMeter(BIG)
    df = count_df(spark, eng, g, p, induced=induced, meter=meter)
    assert_equivalent(df, codegen.pattern_sql(plan), adj=adj_pdf("tiny_skew"))
    assert eng.count(spark, g, p, induced=induced, meter=meter) == full


@pytest.mark.parametrize("p", [diamond(), star(3)], ids=lambda p: p.name)
def test_leaf_reuse_counts_like_expansion(p):
    """A reused leaf counts what expanding the leaf level counts."""
    plan = build_plan(p, induced=False)
    assert plan.leaf_reuse()
    g, plan, tasks = edge_run(tiny("tiny_dense"), p, False)
    got, _ = batch_count(plan, g.indptr, g.edge_keys(), tasks, TINY_STEP)
    assert got == per_task_count(g, plan)


def test_edge_keys_are_sorted_rows(g):
    keys = g.edge_keys()
    assert keys.nbytes == g.indices.nbytes
    assert (np.diff(keys) > 0).all()
    for u in (0, 7, g.n - 1):
        row = keys[g.indptr[u] : g.indptr[u + 1]] - u * g.n
        assert np.array_equal(row, g.neighbors(u))


# -- run_slices: the broadcast task-slice transport ----------------------
# Workers are lambdas or nested functions, which Spark pickles by value.

@pytest.mark.parametrize("m", [0, 2, 1001])
def test_run_slices_covers_every_task_once(spark, m):
    P = spark.sparkContext.defaultParallelism
    tasks = np.arange(m, dtype=np.int64)
    [(n, s)] = run_slices(spark, [(10, tasks, lambda graph, t: (len(t), int(t.sum()) + graph))])
    assert n == m
    assert s == m * (m - 1) // 2 + 10 * P  # every device ran, once


@pytest.mark.parametrize("m", [0, 2, 1001])
def test_run_slices_sums_vectors_elementwise(spark, m):
    """A worker's result may be a long int64 vector (a count table)."""
    P = spark.sparkContext.defaultParallelism
    tasks = np.arange(m, dtype=np.int64)

    def worker(graph, t):
        vec = np.zeros(1000, dtype=np.int64)
        np.add.at(vec, t % 1000, t)
        vec[-1] += graph
        return vec

    [got] = run_slices(spark, [(1 << 40, tasks, worker)])
    want = np.zeros(1000, dtype=np.int64)
    np.add.at(want, tasks % 1000, tasks)
    want[-1] += (1 << 40) * P
    assert got == tuple(want.tolist())


def test_run_slices_edge_tasks(spark, g):
    tasks = g.edge_tasks("lt")
    got = run_slices(spark, [(0, tasks, lambda graph, t: (len(t), int(t[:, 1].sum())))])
    assert got == [(len(tasks), int(tasks[:, 1].sum()))]


def test_run_slices_gives_contiguous_slices(spark):
    P = spark.sparkContext.defaultParallelism
    tasks = np.arange(3 * P + 1, dtype=np.int64)
    size = -(-len(tasks) // P)

    def worker(graph, t):
        ok = len(t) == 0 or (np.array_equal(t, np.arange(t[0], t[0] + len(t)))
                             and t[0] % size == 0)
        return (int(ok),)

    assert run_slices(spark, [(None, tasks, worker)]) == [(P,)]


def test_run_slices_runs_each_launch_on_its_own_tasks(spark):
    """Launches of different task lengths in one job: each covers every
    one of its own tasks once, with its own graph."""
    P = spark.sparkContext.defaultParallelism
    a, b = np.arange(7, dtype=np.int64), np.arange(1001, 3001, dtype=np.int64)
    got = run_slices(spark, [
        (1, a, lambda graph, t: (len(t), int(t.sum()), graph)),
        (2, b, lambda graph, t: (len(t), int(t.sum()), graph)),
    ])
    assert got == [(7, 21, P), (2000, int(b.sum()), 2 * P)]


# -- counting sweep, config, ledger --------------------------------------

@pytest.mark.parametrize("name", ["tiny", "tiny_skew"])
def test_edge_triangle_stats_backends_agree(spark, name):
    gg = tiny(name)
    a = counting.edge_triangle_stats(spark, gg, engine=DFSEngine())
    b = counting.edge_triangle_stats(spark, gg, engine=DFSEngine(DFSConfig("python")))
    assert a == b


def test_unknown_setops_rejected():
    with pytest.raises(ValueError):
        DFSConfig("edge")
    for setops in ("batched", "numpy", "python"):
        DFSConfig(setops)


def test_frontier_step_sized_from_free_bytes():
    per = 5 * 8 * DFSConfig.num_partitions
    meter = memmod.MemoryMeter(1000 + 37 * per + 3)
    meter.alloc("csr", 1000)
    assert buffer_step(meter, 5) == 37
    assert meter.resident <= meter.budget
    roomy = memmod.MemoryMeter(BIG)
    assert buffer_step(roomy, 5) == MAX_STEP
    assert roomy.resident == MAX_STEP * per
