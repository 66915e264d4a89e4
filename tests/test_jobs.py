"""Tests of the experiment runners: the benchmark suite's table module
runs the harness's cells under ids that select one table, the checked-in
results agree with themselves, a partial run keeps the other rows of a
results CSV, the jobs/ scripts parse,
EXPERIMENTS.md is up to date with the results CSVs, and the names
perfbench's tracer wraps exist."""
import importlib.util
import inspect
import os
import py_compile

import pandas as pd
import pytest

from repro.core.pattern import clique
from repro.core.plan import build_plan
from repro.core.setops import BACKENDS
from repro.harness import TABLES, get_csr, table_cells
from repro.memory import MemoryMeter

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def load_bench(fname, folder=BENCH_DIR):
    """Import a module of benchmarks/, perfbench/ or jobs/ by path
    (tier-1 collects none of them)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{os.path.basename(folder)}_{fname[:-3]}", os.path.join(folder, fname)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fname", ["make_experiments_md.py"])
def test_job_compiles(fname):
    py_compile.compile(os.path.join(JOBS_DIR, fname), doraise=True)


def test_experiments_md_matches_results():
    """EXPERIMENTS.md's result tables are the ones rendered from the
    checked-in results CSVs: regenerate it after a benchmark run with
    ``python jobs/make_experiments_md.py``."""
    make_md = load_bench("make_experiments_md.py", JOBS_DIR)
    with open(os.path.join(JOBS_DIR, "..", "EXPERIMENTS.md")) as f:
        text = f.read()
    assert text == make_md.experiments_md(text)


@pytest.mark.parametrize("no", [4, 5, 6, 7, 8, 9])
def test_table_benchmarks_use_harness_cells(no):
    """benchmarks/test_tables.py runs table N's harness cells, in order,
    and ``-k tableN`` selects exactly those."""
    bench = load_bench("test_tables.py")
    assert [c[1:] for c in bench.CELLS if c[0] == no] == table_cells(no)
    selected = [c for c, i in zip(bench.CELLS, bench.IDS) if f"table{no}" in i]
    assert [c[0] for c in selected] == [no] * len(table_cells(no))


def test_table_benchmark_cells_have_unique_ids():
    """The suite's cells are every table's harness cells, concatenated, and
    each has its own id."""
    bench = load_bench("test_tables.py")
    assert [c[1:] for c in bench.CELLS] == [c for no in TABLES for c in table_cells(no)]
    assert len(set(bench.IDS)) == len(bench.IDS) == len(bench.CELLS)
    assert "table7-G2Miner-mc/3-Lj" in bench.IDS


def test_results_agree():
    """The checked-in results, the benchmark suite's reference counts
    (``REFERENCE``): the finished cells of one (workload, graph) hold one
    value, and each counting-only decomposition equals the enumeration it
    replaces on every graph where both finished."""
    bench = load_bench("test_tables.py")
    df = pd.concat(pd.read_csv(os.path.join(bench.RESULTS_DIR, f"table{no}.csv"))
                   for no in TABLES)
    done = df[df.status == "ok"].groupby(["workload", "graph"]).value
    assert (done.nunique() == 1).all(), done.unique()[done.nunique() > 1]
    value = done.first()
    assert bench.REFERENCE == {key: int(v) for key, v in value.items()}
    for counted, enumerated in [("counting/diamond", "sl/diamond"),
                                ("counting/3-motif", "mc/3"), ("counting/4-motif", "mc/4")]:
        a, b = value[counted], value[enumerated]
        both = a.index.intersection(b.index)
        assert len(both) and (a[both] == b[both]).all(), (counted, a, b)


def test_partial_run_merges_into_results(monkeypatch, tmp_path):
    """A run of a subset replaces its cells' rows in place, appends new
    cells and keeps the other rows of the table's CSV."""
    conf = load_bench("conftest.py")
    monkeypatch.setattr(conf, "RESULTS_DIR", str(tmp_path))

    def row(system, graph, status, seconds, value):
        return {"system": system, "workload": "tc", "graph": graph,
                "status": status, "seconds": seconds, "value": value, "paper": 0.1}

    conf.dump({"table4": [row("G2Miner", "Lj", "ok", 1.0, 5),
                          row("G2Miner", "Or", "ok", 2.0, 7),
                          row("Pangolin", "Lj", "OoM", 0.1, None)],
               "sched_scaling": [{"policy": "even_split", "n_gpus": 1, "speedup": 1.0},
                                 {"policy": "even_split", "n_gpus": 2, "speedup": 1.5}]})
    conf.dump({"table4": [row("G2Miner", "Or", "TO", 45.0, None)],
               "sched_scaling": [{"policy": "even_split", "n_gpus": 2, "speedup": 1.9},
                                 {"policy": "even_split", "n_gpus": 3, "speedup": 2.4}]})
    df = pd.read_csv(tmp_path / "table4.csv")
    assert list(df.columns) == ["system", "workload", "graph", "status",
                                "seconds", "value", "paper"]
    assert list(zip(df.system, df.graph, df.status)) == [
        ("G2Miner", "Lj", "ok"), ("G2Miner", "Or", "TO"), ("Pangolin", "Lj", "OoM")]
    assert df.value.iloc[0] == 5 and df.value.iloc[1:].isna().all()
    assert df.seconds.tolist() == [1.0, 45.0, 0.1]
    sched = pd.read_csv(tmp_path / "sched_scaling.csv")
    assert sched.n_gpus.tolist() == [1, 2, 3]
    assert sched.speedup.tolist() == [1.0, 1.9, 2.4]


def test_perfbench_tracer_finds_the_names_it_wraps():
    """perfbench/tracing.py wraps ``repro`` functions by name, and tier-1
    does not run the perfbench suite. Entering ``Tracer().patched()`` finds
    every wrapped name, leaving it restores each one, and the kernel replay
    compiles a vertex kernel and times it over both set-op backends."""
    tracing = load_bench("tracing.py", PERFBENCH_DIR)
    owners = [m for m in vars(tracing).values()
              if inspect.ismodule(m) and m.__name__.startswith("repro.")]
    owners += [c for m in owners for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    before = [dict(vars(o)) for o in owners]

    def changed():
        return {(o.__name__, k) for o, old in zip(owners, before)
                for k, v in vars(o).items() if old.get(k) is not v}

    alloc = MemoryMeter.__dict__["alloc"]
    with tracing.Tracer().patched():
        assert MemoryMeter.__dict__["alloc"] is not alloc
        assert ("MemoryMeter", "alloc") in changed()
    assert MemoryMeter.__dict__["alloc"] is alloc
    assert changed() == set()
    for backend in BACKENDS:
        rec = {"graph": get_csr("tiny"), "plan": build_plan(clique(3), induced=False),
               "mode": "vertex", "reduced": True, "setops": backend}
        assert tracing.replay_kernel(rec)["calls"] > 0
