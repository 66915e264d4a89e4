"""Smoke tests for the spark-submit job entrypoints: they must parse,
reference real tables, and share the harness cell lists."""
import os
import py_compile

import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
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
    from repro import paper_numbers as paper
    from repro.harness import TABLES, paper_key

    for no, (cells_fn, paper_tbl, _) in TABLES.items():
        made = {(s, paper_key(w, g)) for (s, w, g) in cells_fn()}
        for system, entries in paper_tbl.items():
            for key in entries:
                assert (system, key) in made, (no, system, key)
