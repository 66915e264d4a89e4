"""Tables 4-9 of the paper's evaluation: one benchmark case per cell.

The cases are ``harness.table_cells`` of every table, in the paper's
order, with ids ``tableN-system-workload-graph``; ``-k table7`` runs one
table and ``-k "table5 and G2Miner"`` a subset of one.
"""
import os

import pandas as pd
import pytest

from repro.harness import TABLES, cell_row, run_cell, table_cells

CELLS = [(no, *cell) for no in TABLES for cell in table_cells(no)]
IDS = [f"table{no}-{s}-{'/'.join(str(x) for x in w)}-{g}" for no, s, w, g, _ in CELLS]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def reference_values() -> dict[tuple[str, str], int]:
    """(workload, graph) -> the value of that cell's finished rows in the
    checked-in ``results/tableN.csv`` (one value per key: checked by
    ``tests/test_jobs.py``)."""
    ref = {}
    for no in TABLES:
        path = os.path.join(RESULTS_DIR, f"table{no}.csv")
        if os.path.exists(path):
            df = pd.read_csv(path)
            done = df[df.status == "ok"]
            ref.update({(w, g): int(v) for w, g, v in zip(done.workload, done.graph, done.value)})
    return ref


#: Read at import, before this session's results overwrite the CSVs.
REFERENCE = reference_values()

#: (workload, graph) -> (system, value) of the first system that finished
#: that cell in this session.
_finished: dict[tuple, tuple[str, object]] = {}


def bench_cell(
    spark, benchmark, record, no: int,
    system: str, workload: tuple, graph: str, paper_value,
) -> None:
    """Run one table cell under pytest-benchmark (single round) and record
    ours-vs-paper. OoM/TO are valid outcomes (they ARE the paper's cells);
    unexpected errors fail the benchmark, and so does a finished cell whose
    value (a motif table compared whole) differs from that of another
    system that finished the same cell, or from the checked-in results'
    value for its workload and graph."""
    result = benchmark.pedantic(
        lambda: run_cell(spark, system, workload, graph), rounds=1, iterations=1
    )
    row = cell_row(system, workload, graph, result, paper_value)
    record(f"table{no}", row)
    assert result.status in ("ok", "OoM", "TO"), result.detail
    if result.status == "ok":
        assert result.value is not None
        first, value = _finished.setdefault((workload, graph), (system, result.value))
        assert result.value == value, (
            f"{system} and {first} disagree on {row['workload']} {graph}: "
            f"{result.value!r} != {value!r}"
        )
        want = REFERENCE.get((row["workload"], graph))
        assert want is None or row["value"] == want, (
            f"{system} {row['workload']} {graph}: {row['value']} != reference {want}"
        )


@pytest.mark.parametrize("no,system,workload,graph,paper_value", CELLS, ids=IDS)
def test_table(spark, benchmark, record, no, system, workload, graph, paper_value):
    bench_cell(spark, benchmark, record, no, system, workload, graph, paper_value)
