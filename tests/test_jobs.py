"""Smoke tests for the spark-submit job entrypoints: they must parse,
reference real tables, and share the harness cell lists."""
import importlib.util
import os
import py_compile

import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
JOB_FILES = [
    "table4_tc.py", "table5_kcl.py", "table6_sl.py", "table7_kmc.py",
    "table8_fsm.py", "table9_counting.py", "sched_scaling.py", "_run.py",
]


@pytest.mark.parametrize("fname", JOB_FILES)
def test_job_compiles(fname):
    py_compile.compile(os.path.join(JOBS_DIR, fname), doraise=True)


def test_all_tables_have_jobs():
    from repro.harness import TABLES

    present = {f for f in os.listdir(JOBS_DIR) if f.startswith("table")}
    assert {int(f[5]) for f in present} == set(TABLES)


def test_cell_lists_cover_paper_tables():
    """Every (system, key) the paper reports must be a generated cell."""
    from repro.harness import TABLES, paper_key, table_cells

    for no, (paper_tbl, _, _) in TABLES.items():
        made = {(s, paper_key(w, g)) for (s, w, g) in table_cells(no)}
        for system, entries in paper_tbl.items():
            for key in entries:
                assert (system, key) in made, (no, system, key)


@pytest.mark.parametrize("no", [4, 5, 6, 7, 8, 9])
def test_table_benchmarks_use_harness_cells(monkeypatch, no):
    """Each benchmarks/test_tableN_*.py imports and runs the harness's cells
    for table N (tier-1 does not otherwise import the benchmark suite)."""
    from repro.harness import table_cells

    (fname,) = [f for f in os.listdir(BENCH_DIR) if f.startswith(f"test_table{no}_")]
    monkeypatch.syspath_prepend(BENCH_DIR)
    spec = importlib.util.spec_from_file_location(fname[:-3], os.path.join(BENCH_DIR, fname))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.CELLS == table_cells(no)
