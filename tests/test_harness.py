"""Harness tests: run_cell dispatch and statuses on the tiny test graphs
(the bench graphs are exercised by benchmarks/), the per-table cell lists,
and the benchmark cell's result row."""
import pytest

from repro import harness, paper_numbers as paper
from repro.core import counting
from repro.graph import gen
from repro.harness import TABLES, get_csr, run_cell, sl_pattern, table_cells
from repro.timeout import CellResult

from test_jobs import load_bench


def test_get_csr_cached():
    assert get_csr("tiny") is get_csr("tiny")


def test_sl_patterns():
    assert sl_pattern("diamond").name == "diamond"
    assert sl_pattern("4-cycle").name == "4-cycle"


def test_run_cell_tc(spark):
    r = run_cell(spark, "G2Miner", ("tc",), "tiny", timeout_s=60)
    assert r.status == "ok" and r.value > 0


def test_run_cell_kcl(spark):
    r = run_cell(spark, "G2Miner", ("kcl", 4), "tiny", timeout_s=60)
    assert r.status == "ok"


def test_run_cell_sl(spark):
    r = run_cell(spark, "GraphZero", ("sl", "diamond"), "tiny", timeout_s=60)
    assert r.status == "ok"


def test_run_cell_mc(spark):
    r = run_cell(spark, "G2Miner", ("mc", 3), "tiny", timeout_s=60)
    assert r.status == "ok" and len(r.value) == 2


def test_run_cell_fsm(spark):
    r = run_cell(spark, "G2Miner", ("fsm", 3), "tiny_labeled", timeout_s=60)
    assert r.status == "ok" and r.value > 0


def test_fsm_graph_generated_once(spark, monkeypatch):
    """FSM cells of every system share one generation of their graph."""
    calls = []
    real = gen.generate_graph
    monkeypatch.setattr(gen, "generate_graph", lambda name: calls.append(name) or real(name))
    harness.get_fsm_inputs.cache_clear()
    for system in ("G2Miner", "DistGraph", "G2Miner"):
        r = run_cell(spark, system, ("fsm", 3), "tiny_labeled", timeout_s=60)
        assert r.status == "ok"
    assert calls == ["tiny_labeled"]


def test_run_cell_counting(spark):
    r = run_cell(spark, "G2Miner", ("counting", "diamond"), "tiny", timeout_s=60)
    assert r.status == "ok"


@pytest.mark.parametrize("system,scalar", [("Peregrine", True), ("G2Miner", False)])
def test_counting_sweep_follows_engine_setops(spark, monkeypatch, system, scalar):
    """The counting-only sweep runs the system engine's set-op backend:
    Peregrine's scalar loop, G2Miner's batched code."""
    calls = []
    real = counting._stats_scalar
    monkeypatch.setattr(counting, "_stats_scalar",
                        lambda *a: calls.append(a[0]) or real(*a))
    # Run each device's slice on the driver, where the counter lives.
    monkeypatch.setattr(counting, "run_slices", lambda spark, launches: [
        worker(graph, tasks) for graph, tasks, worker in launches])
    r = run_cell(spark, system, ("counting", "diamond"), "tiny", timeout_s=60)
    assert r.status == "ok"
    assert r.value == run_cell(spark, "GraphZero", ("sl", "diamond"), "tiny").value
    assert calls == (["python"] if scalar else [])


@pytest.mark.parametrize("system,workload", [
    ("G2Miner", ("tc",)), ("G2Miner", ("mc", 3)), ("G2Miner", ("mc", 4)),
    ("G2Miner", ("counting", "4-motif")), ("Peregrine", ("mc", 3)),
])
def test_dfs_cell_is_one_spark_job(spark, monkeypatch, system, workload):
    """A DFS cell launches all its kernels in one Spark job, as the GPU
    launches a cell's kernels back to back."""
    sc = spark.sparkContext
    groups = []
    real = harness.run_with_timeout

    def recording(spark, fn, timeout_s):
        def body():
            groups.append(sc.getLocalProperty("spark.jobGroup.id"))
            return fn()

        return real(spark, body, timeout_s)

    monkeypatch.setattr(harness, "run_with_timeout", recording)
    r = run_cell(spark, system, workload, "tiny", timeout_s=60)
    assert r.status == "ok"
    # Job events reach the status store through the listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup(groups[0])) == 1


class Benchmark:
    """pytest-benchmark's ``pedantic`` without the timing."""

    def pedantic(self, fn, rounds, iterations):
        return fn()


def test_unsupported_workload_is_na(spark):
    r = run_cell(spark, "PBE", ("mc", 3), "tiny")
    assert r.status == "n/a"
    r = run_cell(spark, "Pangolin", ("sl", "diamond"), "tiny")
    assert r.status == "n/a"


def test_bench_cell_records_csv_row(monkeypatch):
    """A benchmark cell runs ``run_cell`` under its default timeout and
    records the CSV row: the columns in order, a motif table's value
    summed, seconds rounded, and the paper's number."""
    calls = []
    result = CellResult(status="ok", value={"wedge": 5, "triangle": 2}, seconds=1.23456)
    monkeypatch.setattr(harness, "run_cell",
                        lambda *a, **kw: calls.append(kw) or result)
    bench = load_bench("test_tables.py")
    bench.REFERENCE = {}
    recorded = []
    bench.bench_cell(None, Benchmark(), lambda table, row: recorded.append((table, row)),
                     7, "G2Miner", ("mc", 3), "Lj", paper.TABLE7["G2Miner"][(3, "Lj")])
    assert calls == [{}]
    ((table, row),) = recorded
    assert table == "table7"
    assert list(row.items()) == [
        ("system", "G2Miner"), ("workload", "mc/3"), ("graph", "Lj"), ("status", "ok"),
        ("seconds", 1.235), ("value", 7), ("paper", paper.TABLE7["G2Miner"][(3, "Lj")]),
    ]


def test_bench_fails_when_finished_systems_disagree(monkeypatch):
    """Systems that finish the same cell must report the same value (a
    motif table compared whole), and that value must be the checked-in
    reference for its workload and graph, where there is one; OoM and TO
    cells are not compared."""
    results = {
        ("G2Miner", "Lj"): CellResult(status="ok", value={"wedge": 5, "triangle": 2}),
        ("Pangolin", "Lj"): CellResult(status="OoM"),
        ("Peregrine", "Lj"): CellResult(status="TO"),
        ("GraphZero", "Lj"): CellResult(status="ok", value={"wedge": 5, "triangle": 2}),
        # The two Or tables have the same sum but different motifs.
        ("G2Miner", "Or"): CellResult(status="ok", value={"wedge": 9, "triangle": 1}),
        ("GraphZero", "Or"): CellResult(status="ok", value={"wedge": 8, "triangle": 2}),
        ("G2Miner", "Fr"): CellResult(status="ok", value={"wedge": 5, "triangle": 2}),
    }
    monkeypatch.setattr(harness, "run_cell",
                        lambda spark, s, w, g, **kw: results[(s, g)])
    bench = load_bench("test_tables.py")
    bench.REFERENCE = {("mc/3", "Lj"): 7, ("mc/3", "Fr"): 8}

    def cell(system, graph):
        bench.bench_cell(None, Benchmark(), lambda table, row: None, 7,
                         system, ("mc", 3), graph, "-")

    for system in ("G2Miner", "Pangolin", "Peregrine", "GraphZero"):
        cell(system, "Lj")
    cell("G2Miner", "Or")
    with pytest.raises(AssertionError, match="GraphZero and G2Miner disagree"):
        cell("GraphZero", "Or")
    with pytest.raises(AssertionError, match="7 != reference 8"):
        cell("G2Miner", "Fr")


def test_paper_tables_well_formed():
    for tbl in [paper.TABLE4, paper.TABLE5, paper.TABLE6, paper.TABLE7,
                paper.TABLE8, paper.TABLE9]:
        for system, cells in tbl.items():
            assert cells, system
            for v in cells.values():
                assert isinstance(v, (int, float)) or v in (paper.OOM, paper.TO)


def test_sigma_scaling_table():
    assert paper.SIGMA_SCALE == {300: 3, 500: 5, 1000: 10, 5000: 50}


def test_cell_lists_cover_paper_tables():
    """Every entry of a paper table is exactly one cell of that table, with
    the paper's value; Table 8's paper sigma maps to the scaled sigma."""
    for no, (paper_tbl, _) in TABLES.items():
        cells = table_cells(no)
        assert len(cells) == sum(len(entries) for entries in paper_tbl.values())
        assert len({c[:3] for c in cells}) == len(cells)
        for system, workload, graph, value in cells:
            if no == 4:
                key = graph
            elif no == 8:
                sigma = {v: k for k, v in paper.SIGMA_SCALE.items()}[workload[1]]
                key = (graph, sigma)
            else:
                key = (workload[1], graph)
            assert paper_tbl[system][key] == value, (no, system, key)
    assert ("G2Miner", ("fsm", 50), "Yo", paper.TABLE8["G2Miner"][("Yo", 5000)]) \
        in table_cells(8)
