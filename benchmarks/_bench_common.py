"""Shared cell-benchmark body for the per-table benchmark modules."""
from __future__ import annotations

from repro.harness import cell_row, paper_key, run_cell


def bench_cell(
    spark, benchmark, record, table: str, paper_tbl: dict,
    system: str, workload: tuple, graph: str, timeout_s: float,
) -> None:
    """Run one table cell under pytest-benchmark (single round) and record
    ours-vs-paper. OoM/TO are valid outcomes (they ARE the paper's cells);
    only unexpected errors fail the benchmark."""
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
