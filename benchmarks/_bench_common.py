"""Shared cell-benchmark body for the per-table benchmark modules."""
from __future__ import annotations

from repro.harness import cell_row, paper_key, run_cell

#: (workload, graph) -> (system, value) of the first system that finished
#: that cell in this session.
_finished: dict[tuple, tuple[str, object]] = {}


def bench_cell(
    spark, benchmark, record, table: str, paper_tbl: dict,
    system: str, workload: tuple, graph: str, timeout_s: float,
) -> None:
    """Run one table cell under pytest-benchmark (single round) and record
    ours-vs-paper. OoM/TO are valid outcomes (they ARE the paper's cells);
    unexpected errors fail the benchmark, and so does a finished cell whose
    value (a motif table compared whole) differs from that of another
    system that finished the same cell."""
    result = benchmark.pedantic(
        lambda: run_cell(spark, system, workload, graph, timeout_s=timeout_s),
        rounds=1,
        iterations=1,
    )
    row = cell_row(system, workload, graph, result)
    row["paper"] = paper_tbl.get(system, {}).get(paper_key(workload, graph), "-")
    record(table, row)
    assert result.status in ("ok", "OoM", "TO"), result.detail
    if result.status == "ok":
        assert result.value is not None
        first, value = _finished.setdefault((workload, graph), (system, result.value))
        assert result.value == value, (
            f"{system} and {first} disagree on {row['workload']} {graph}: "
            f"{result.value!r} != {value!r}"
        )
