"""Tables 4-9 of the paper's evaluation: one benchmark case per cell.

The cases are ``harness.table_cells`` of every table, in the paper's
order, with ids ``tableN-system-workload-graph``; ``-k table7`` runs one
table and ``-k "table5 and G2Miner"`` a subset of one.
"""
import pytest

from repro.harness import TABLES, cell_row, run_cell, table_cells

CELLS = [(no, *cell) for no in TABLES for cell in table_cells(no)]
IDS = [f"table{no}-{s}-{'/'.join(str(x) for x in w)}-{g}" for no, s, w, g, _ in CELLS]

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
    system that finished the same cell."""
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


@pytest.mark.parametrize("no,system,workload,graph,paper_value", CELLS, ids=IDS)
def test_table(spark, benchmark, record, no, system, workload, graph, paper_value):
    bench_cell(spark, benchmark, record, no, system, workload, graph, paper_value)
