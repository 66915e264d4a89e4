"""Evaluation harness: runs one (system, workload, graph) cell the way the
paper's experiment scripts do, with wall-clock timing, a hard timeout and
OoM capture, lists every cell of the paper's Tables 4-9 with the paper's
number, and builds a cell's result row.

The benchmark suite (``benchmarks/test_tables.py``) runs every table
through it; perfbench runs single cells.
"""
from __future__ import annotations

import time
from functools import lru_cache

import pandas as pd
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro import paper_numbers as paper
from repro.core import counting, fsm as fsmmod
from repro.core.motifs import count_motifs
from repro.core.pattern import Pattern, clique, cycle, diamond
from repro.graph.csr import CSRGraph, build_csr
from repro.graph import gen
from repro.systems import SYSTEMS
from repro.timeout import CellResult, TimeoutError_, run_with_timeout

#: The per-cell timeout: the paper's 8 h GPU / 30 h CPU budgets at
#: ~1/1000 time scale.
DEFAULT_TIMEOUT_S = 45.0


@lru_cache(maxsize=None)
def get_csr(name: str) -> CSRGraph:
    """Build (and cache) the CSR for a named data graph."""
    edges, _ = gen.generate_graph(name)
    return build_csr(edges)


@lru_cache(maxsize=None)
def get_fsm_inputs(name: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Build (and cache) a labelled graph's ``(adj, labels)`` frames, the
    FSM inputs. Every cell shares them, so no caller may modify them."""
    return gen.adj_pdf(name), gen.labels_pdf(name)


#: Counting-only workloads (Table 9) -> their decomposition.
COUNTING = {
    "diamond": counting.diamond_counting_only,
    "3-motif": counting.count3_counting_only,
    "4-motif": counting.count4_counting_only,
}


def sl_pattern(name: str) -> Pattern:
    return {"diamond": diamond(), "4-cycle": cycle(4)}[name]


#: Single-pattern workloads -> their pattern from the workload's arguments.
SINGLE_PATTERN = {"tc": lambda: clique(3), "kcl": clique, "sl": sl_pattern}


def run_cell(
    spark: SparkSession,
    system_name: str,
    workload: tuple,
    graph: str,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> CellResult:
    """Run one evaluation cell.

    ``workload`` is one of: ('tc',), ('kcl', k), ('sl', pattern_name),
    ('mc', k), ('fsm', sigma), ('counting', which) with which in
    {'diamond', '3-motif', '4-motif'}.
    """
    sys = SYSTEMS[system_name]
    kind = workload[0]
    if kind not in sys.supports:
        return CellResult(status="n/a", detail=f"{system_name} lacks {kind}")

    def body():
        if kind in SINGLE_PATTERN:
            pattern = SINGLE_PATTERN[kind](*workload[1:])
            return sys.make_engine().count(spark, get_csr(graph), pattern)
        if kind == "mc":
            return count_motifs(spark, get_csr(graph), workload[1], sys.make_engine())
        if kind == "fsm":
            adj, labels = get_fsm_inputs(graph)
            out = fsmmod.fsm3(
                spark, adj, labels, workload[1], variant=sys.fsm_variant
            )
            return len(out)
        if kind == "counting" and workload[1] in COUNTING:
            fn = COUNTING[workload[1]]
            return fn(spark, get_csr(graph), engine=sys.make_engine())
        raise ValueError(f"unknown workload {workload!r}")

    t0 = time.perf_counter()
    try:
        value = run_with_timeout(spark, body, timeout_s)
        return CellResult(status="ok", value=value, seconds=time.perf_counter() - t0)
    except memmod.OutOfMemoryError as e:
        return CellResult(
            status="OoM", seconds=time.perf_counter() - t0, detail=str(e)
        )
    except TimeoutError_ as e:
        return CellResult(status="TO", seconds=time.perf_counter() - t0, detail=str(e))


def cell_row(
    system: str, workload: tuple, graph: str, r: CellResult, paper_value
) -> dict:
    """One result row (the CSV columns); a motif table's value is summed."""
    value = sum(r.value.values()) if isinstance(r.value, dict) else r.value
    return {
        "system": system,
        "workload": "/".join(str(w) for w in workload),
        "graph": graph,
        "status": r.status,
        "seconds": round(r.seconds, 3),
        "value": value,
        "paper": paper_value,
    }


# -- per-table cell lists (one entry per cell of the paper's tables) -----

#: Table number -> (paper table, paper key -> (workload, graph)).
TABLES = {
    4: (paper.TABLE4, lambda g: (("tc",), g)),
    5: (paper.TABLE5, lambda kg: (("kcl", kg[0]), kg[1])),
    6: (paper.TABLE6, lambda pg: (("sl", pg[0]), pg[1])),
    7: (paper.TABLE7, lambda kg: (("mc", kg[0]), kg[1])),
    8: (paper.TABLE8, lambda gs: (("fsm", paper.SIGMA_SCALE[gs[1]]), gs[0])),
    9: (paper.TABLE9, lambda wg: (("counting", wg[0]), wg[1])),
}


def table_cells(no: int) -> list[tuple[str, tuple, str, object]]:
    """Table ``no``'s (system, workload, graph, paper value) cells: one per
    entry of the paper's table, in its order."""
    paper_tbl, to_cell = TABLES[no]
    return [
        (s, *to_cell(key), value)
        for s, entries in paper_tbl.items()
        for key, value in entries.items()
    ]
