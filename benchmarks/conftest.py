"""Benchmark-suite fixtures.

``test_tables.py`` reproduces the paper's Tables 4-9 and
``test_sched_scaling.py`` the substance of Fig 9/10. Each pytest-benchmark
case of a table is one (system, workload, graph) cell, run exactly once
under ``harness.DEFAULT_TIMEOUT_S`` (pedantic, 1 round — the paper reports
averages of 3 runs on real hardware; one round keeps the whole suite
tractable and cells are seconds-long so variance is dominated by Spark
scheduling noise either way). At the end of the session each table's rows
are merged into benchmarks/results/<table>.csv so EXPERIMENTS.md can cite
exact measured numbers; a run of a subset (``-k``) keeps the other rows.
"""
import os
from collections import defaultdict

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Results table -> the columns that name one of its cells, when they are
#: not a table cell's (system, workload, graph).
CELL_KEY = {"sched_scaling": ("policy", "n_gpus")}


def dump(rows: dict[str, list[dict]]) -> None:
    """Merge each table's new rows into its CSV by cell key: a re-run cell
    replaces its stored row in place, a new cell is appended, and every
    other stored row stays."""
    import pandas as pd

    os.makedirs(RESULTS_DIR, exist_ok=True)
    for table, new in rows.items():
        path = os.path.join(RESULTS_DIR, f"{table}.csv")
        key = CELL_KEY.get(table, ("system", "workload", "graph"))
        old = pd.read_csv(path).to_dict("records") if os.path.exists(path) else []
        merged = {tuple(str(row[k]) for k in key): row for row in old + new}
        pd.DataFrame(list(merged.values())).to_csv(path, index=False)


@pytest.fixture(scope="session")
def record():
    """record(table, row_dict): accumulate a measured cell; the rows are
    written when the session ends."""
    rows: dict[str, list[dict]] = defaultdict(list)
    yield lambda table, row: rows[table].append(row)
    dump(rows)


@pytest.fixture(scope="session", autouse=True)
def _warmup(spark):
    """Pay Spark/Arrow/python-worker startup once, outside any timed cell:
    one DFS count (an RDD job) and one BFS count (Catalyst joins)."""
    from repro.core.engine_bfs import BFSEngine
    from repro.core.engine_dfs import DFSEngine
    from repro.core.pattern import clique
    from repro.harness import get_csr

    DFSEngine().count(spark, get_csr("tiny"), clique(3))
    BFSEngine().count(spark, get_csr("tiny"), clique(3))
