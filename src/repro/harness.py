"""Evaluation harness: runs one (system, workload, graph) cell the way the
paper's experiment scripts do, with wall-clock timing, a hard timeout and
OoM capture, and formats tables that print the paper's number next to ours.

Used by the per-table benchmarks (``benchmarks/``) and the spark-submit
jobs (``jobs/``).
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

#: Default per-cell timeout: the paper's 8 h GPU / 30 h CPU budgets at
#: ~1/1000 time scale. ``REPRO_CELL_TIMEOUT`` overrides it for the benchmarks.
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


def fmt_cell(r: CellResult) -> str:
    if r.status == "ok":
        return f"{r.seconds:.2f}"
    return r.status


def fmt_paper(v) -> str:
    return v if isinstance(v, str) else f"{v:g}"


def cell_row(system: str, workload: tuple, graph: str, r: CellResult) -> dict:
    """One result row (the CSV columns); a motif table's value is summed."""
    value = sum(r.value.values()) if isinstance(r.value, dict) else r.value
    return {
        "system": system,
        "workload": "/".join(str(w) for w in workload),
        "graph": graph,
        "status": r.status,
        "seconds": round(r.seconds, 3),
        "value": value,
    }


def run_table(
    spark: SparkSession,
    cells: list[tuple[str, tuple, str]],
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> pd.DataFrame:
    """Run a list of (system, workload, graph) cells into a tidy frame,
    one row per cell in order."""
    return pd.DataFrame(
        [
            cell_row(s, w, g, run_cell(spark, s, w, g, timeout_s=timeout_s))
            for s, w, g in cells
        ]
    )


# -- per-table cell lists (one entry per cell of the paper's tables) -----

#: Table number -> (paper table, title, paper key -> (workload, graph)).
TABLES = {
    4: (paper.TABLE4, "Triangle counting (TC)", lambda g: (("tc",), g)),
    5: (paper.TABLE5, "k-clique listing (k-CL)", lambda kg: (("kcl", kg[0]), kg[1])),
    6: (paper.TABLE6, "Subgraph listing (SL)", lambda pg: (("sl", pg[0]), pg[1])),
    7: (paper.TABLE7, "k-motif counting (k-MC)", lambda kg: (("mc", kg[0]), kg[1])),
    8: (paper.TABLE8, "3-FSM",
        lambda gs: (("fsm", paper.SIGMA_SCALE[gs[1]]), gs[0])),
    9: (paper.TABLE9, "Counting-only pruning",
        lambda wg: (("counting", wg[0]), wg[1])),
}


def table_cells(no: int) -> list[tuple[str, tuple, str]]:
    """Table ``no``'s (system, workload, graph) cells: one per entry of the
    paper's table, in its order."""
    paper_tbl, _, to_cell = TABLES[no]
    return [(s, *to_cell(key)) for s, keys in paper_tbl.items() for key in keys]


def paper_key(workload: tuple, graph: str) -> tuple | str:
    """Map a cell back to the paper table's cell key."""
    kind = workload[0]
    if kind == "tc":
        return graph
    if kind in ("kcl", "sl", "mc", "counting"):
        return (workload[1], graph)
    if kind == "fsm":
        inv = {v: k for k, v in paper.SIGMA_SCALE.items()}
        return (graph, inv[workload[1]])
    raise ValueError(kind)


def print_side_by_side(
    cells: list[tuple[str, tuple, str]], df: pd.DataFrame, paper_tbl: dict
) -> str:
    """Render measured-vs-paper lines: one per cell of ``run_table(cells)``."""
    lines = []
    for (system, workload, graph), row in zip(cells, df.itertuples()):
        pv = paper_tbl.get(system, {}).get(paper_key(workload, graph), "-")
        ours = fmt_cell(CellResult(status=row.status, seconds=row.seconds))
        lines.append(
            f"{system:>10s} {row.workload:>10s} {graph:>4s} "
            f"ours={ours:>8s} paper={fmt_paper(pv):>8s}"
        )
    out = "\n".join(lines)
    print(out)
    return out
