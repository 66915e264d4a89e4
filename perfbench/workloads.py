"""Benchmark workloads: fixed lists of ``repro.harness.run_cell`` queries.

A workload is run as a closed loop with one client: each *pass* issues
every query of the workload once, one after the other, each only after
the previous one has returned. The seed only sets the query order within
each pass; the graphs are the fixed, calibrated Table 3 stand-ins.

Every query has a checked-in expected status and value in
``expected.json`` (see ``check``). Cells that several systems compute
share one expected value (``load_expected`` enforces this), so systems
whose answers all pass ``check`` also agree with each other.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Query:
    """One harness cell: ``run_cell(spark, system, workload, graph)``."""

    system: str
    workload: tuple
    graph: str

    @property
    def cell(self) -> str:
        """The (kind, graph) cell this query computes, shared across systems."""
        return "/".join(str(w) for w in self.workload) + "/" + self.graph

    @property
    def key(self) -> str:
        """Key into ``expected.json``, e.g. ``G2Miner/kcl/5/Lj``."""
        return f"{self.system}/{self.cell}"

    @property
    def metric(self) -> str:
        """Metric-name form of the key, e.g. ``G2Miner.kcl-5.Lj``."""
        kind = "-".join(str(w) for w in self.workload)
        return f"{self.system}.{kind}.{self.graph}"

    @property
    def uses_csr(self) -> bool:
        """FSM cells regenerate their labelled graph inside the cell; every
        other kind reads the cached CSR that ``get_csr`` builds."""
        return self.workload[0] != "fsm"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    queries: tuple[Query, ...]

    @property
    def csr_graphs(self) -> tuple[str, ...]:
        """Graphs whose CSR is built during set-up, in first-use order."""
        return tuple(dict.fromkeys(q.graph for q in self.queries if q.uses_csr))


def _q(system: str, spec: str, graph: str) -> Query:
    kind, *arg = spec.split("/")
    return Query(system, (kind, *(int(a) if a.isdigit() else a for a in arg)), graph)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kernels",
            "G2Miner's generated DFS kernels: oriented TC, LGS cliques, symmetry-bounded "
            "SL, induced motifs, counting-only triangle sweep; FSM work predicts no change",
            (
                _q("G2Miner", "tc", "Tw4"),
                _q("G2Miner", "kcl/5", "Lj"),
                _q("G2Miner", "sl/diamond", "Lj"),
                _q("G2Miner", "mc/3", "Lj"),
                _q("G2Miner", "counting/diamond", "Lj"),
            ),
        ),
        Workload(
            "fsm_baselines",
            "3-FSM as Catalyst SQL plus the yardstick systems (vertex mode, scalar set "
            "ops, BFS joins, ledger OoM); G2Miner kernel work predicts no change",
            (
                _q("G2Miner", "fsm/3", "Mi"),
                _q("GraphZero", "tc", "Lj"),
                _q("Peregrine", "tc", "Lj"),
                _q("PBE", "tc", "Lj"),
                _q("Pangolin", "tc", "Tw4"),
            ),
        ),
    )
}

#: Small graphs whose expected values the bench's own test recomputes with
#: the DuckDB oracle. Not part of the benchmark proper.
TINY = Workload(
    "tiny",
    "tiny-graph versions of the benchmark queries, checked against the DuckDB oracle",
    (
        _q("G2Miner", "tc", "tiny"),
        _q("G2Miner", "kcl/4", "tiny_dense"),
        _q("G2Miner", "sl/diamond", "tiny"),
        _q("G2Miner", "mc/3", "tiny"),
        _q("G2Miner", "counting/diamond", "tiny"),
        _q("G2Miner", "fsm/3", "tiny_labeled"),
        _q("GraphZero", "tc", "tiny"),
        _q("Peregrine", "tc", "tiny"),
        _q("PBE", "tc", "tiny"),
        _q("Pangolin", "tc", "tiny"),
    ),
)

ALL = {**WORKLOADS, TINY.name: TINY}


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict]:
    """Read the expected outcomes and check that they agree across systems."""
    expected = json.loads(path.read_text())
    by_cell: dict[str, tuple[str, object]] = {}
    for key, exp in expected.items():
        if exp["status"] != "ok":
            continue
        cell = key.split("/", 1)[1]
        if cell in by_cell and by_cell[cell][1] != exp["value"]:
            raise ValueError(
                f"expected values disagree on {cell}: "
                f"{by_cell[cell][0]}={by_cell[cell][1]} vs {key}={exp['value']}"
            )
        by_cell.setdefault(cell, (key, exp["value"]))
    return expected


def normalize(value):
    """A cell's value in its checked-in form: FSM cells return the number of
    frequent patterns, motif cells a {motif: count} dict."""
    if isinstance(value, dict):
        return {k: int(v) for k, v in sorted(value.items())}
    return None if value is None else int(value)


def check(q: Query, status: str, value, expected: dict[str, dict]) -> str | None:
    """Return why the outcome of ``q`` is wrong, or None when it is right."""
    exp = expected.get(q.key)
    if exp is None:
        return f"no expected outcome for {q.key} (got {status} {normalize(value)})"
    if status != exp["status"]:
        return f"status {status}, expected {exp['status']}"
    if status == "ok" and normalize(value) != exp["value"]:
        return f"value {normalize(value)}, expected {exp['value']}"
    return None

