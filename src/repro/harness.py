"""Evaluation harness: runs one (system, workload, graph) cell the way the
paper's experiment scripts do, with wall-clock timing, a hard timeout and
OoM capture, and formats tables that print the paper's number next to ours.

Used by the per-table benchmarks (``benchmarks/``) and the spark-submit
jobs (``jobs/``).
"""
from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
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
    edges, labels = gen.generate_graph(name)
    lab = labels if labels.any() else None
    return build_csr(edges, labels=lab)


@lru_cache(maxsize=None)
def get_fsm_inputs(name: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Build (and cache) a labelled graph's ``(adj, labels)`` frames, the
    FSM inputs. Every cell shares them, so no caller may modify them."""
    return gen.adj_pdf(name), gen.labels_pdf(name)


def sl_pattern(name: str) -> Pattern:
    return {"diamond": diamond(), "4-cycle": cycle(4)}[name]


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
        if kind == "tc":
            return sys.make_engine().count(spark, get_csr(graph), clique(3))
        if kind == "kcl":
            return sys.make_engine().count(spark, get_csr(graph), clique(workload[1]))
        if kind == "sl":
            return sys.make_engine().count(
                spark, get_csr(graph), sl_pattern(workload[1])
            )
        if kind == "mc":
            return count_motifs(spark, get_csr(graph), workload[1], sys.make_engine())
        if kind == "fsm":
            adj, labels = get_fsm_inputs(graph)
            out = fsmmod.fsm3(
                spark, adj, labels, workload[1], variant=sys.fsm_variant
            )
            return len(out)
        if kind == "counting":
            which = workload[1]
            csr = get_csr(graph)
            backend = sys.setops_backend
            if which == "diamond":
                return counting.diamond_counting_only(spark, csr, backend=backend)
            eng = sys.make_engine()
            if which == "3-motif":
                return counting.count3_counting_only(spark, csr, engine=eng)
            if which == "4-motif":
                return counting.count4_counting_only(
                    spark, csr, engine=eng, backend=backend
                )
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

TC_GRAPHS = ["Lj", "Or", "Tw2", "Tw4", "Fr", "Uk"]
KCL_CELLS = [(4, g) for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    (5, g) for g in ["Lj", "Or", "Fr"]
]
SL_CELLS = [("diamond", g) for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    ("4-cycle", g) for g in ["Lj", "Or", "Fr"]
]
MC_CELLS = [(3, g) for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    (4, g) for g in ["Lj", "Or", "Fr"]
]
FSM_CELLS = [
    (g, s) for g in ["Mi", "Pa", "Yo"] for s in [300, 500, 1000, 5000]
]
COUNTING_CELLS = [(w, g) for w in ["diamond", "3-motif"]
                  for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    ("4-motif", g) for g in ["Lj", "Or", "Fr"]
]


def table4_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero"]
    return [(s, ("tc",), g) for s in systems for g in TC_GRAPHS]


def table5_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero"]
    return [(s, ("kcl", k), g) for s in systems for (k, g) in KCL_CELLS]


def table6_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "PBE", "Peregrine", "GraphZero"]
    return [(s, ("sl", p), g) for s in systems for (p, g) in SL_CELLS]


def table7_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "Peregrine", "GraphZero"]
    return [(s, ("mc", k), g) for s in systems for (k, g) in MC_CELLS]


def table8_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "Peregrine", "DistGraph"]
    return [
        (s, ("fsm", paper.SIGMA_SCALE[sig]), g)
        for s in systems
        for (g, sig) in FSM_CELLS
    ]


def table9_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Peregrine"]
    return [(s, ("counting", w), g) for s in systems for (w, g) in COUNTING_CELLS]


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


TABLES = {
    4: (table4_cells, paper.TABLE4, "Triangle counting (TC)"),
    5: (table5_cells, paper.TABLE5, "k-clique listing (k-CL)"),
    6: (table6_cells, paper.TABLE6, "Subgraph listing (SL)"),
    7: (table7_cells, paper.TABLE7, "k-motif counting (k-MC)"),
    8: (table8_cells, paper.TABLE8, "3-FSM"),
    9: (table9_cells, paper.TABLE9, "Counting-only pruning"),
}


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
