"""Benchmark-suite fixtures.

Each benchmark file reproduces one table of the paper's evaluation; each
pytest-benchmark case is one (system, workload, graph) cell, run exactly
once (pedantic, 1 round — the paper reports averages of 3 runs on real
hardware; one round keeps the whole suite tractable and cells are
seconds-long so variance is dominated by Spark scheduling noise either
way). Results are accumulated and written to benchmarks/results/*.csv so
EXPERIMENTS.md can cite exact measured numbers.
"""
import atexit
import os
from collections import defaultdict

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_rows: dict[str, list[dict]] = defaultdict(list)


def _dump():
    import pandas as pd

    os.makedirs(RESULTS_DIR, exist_ok=True)
    for table, rows in _rows.items():
        pd.DataFrame(rows).to_csv(
            os.path.join(RESULTS_DIR, f"{table}.csv"), index=False
        )


atexit.register(_dump)


@pytest.fixture(scope="session")
def record():
    """record(table, row_dict): accumulate a measured cell."""

    def _record(table: str, row: dict):
        _rows[table].append(row)

    yield _record
    _dump()


@pytest.fixture(scope="session")
def cell_timeout() -> float:
    """Per-cell timeout — the paper's 8h/30h budgets at bench scale."""
    from repro.harness import DEFAULT_TIMEOUT_S

    return float(os.environ.get("REPRO_CELL_TIMEOUT", DEFAULT_TIMEOUT_S))


@pytest.fixture(scope="session", autouse=True)
def _warmup(spark):
    """Pay Spark/Arrow/python-worker startup once, outside any timed cell."""
    from repro.core.engine_dfs import DFSEngine
    from repro.core.pattern import clique
    from repro.harness import get_csr

    DFSEngine().count(spark, get_csr("tiny"), clique(3))
