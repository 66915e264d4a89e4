"""The evaluated systems: one row each of the paper's Table 1.

A system is one engine setting plus the workloads the paper reports it
supporting and its FSM variant. Everything else it is documented to do
(search order, orientation, schedule, set-op backend, memory budget)
follows from the engine setting; ``engine_dfs`` and ``engine_bfs`` say
how.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core.engine_bfs import BFSEngine
from repro.core.engine_dfs import DFSConfig, DFSEngine


@dataclass(frozen=True)
class System:
    """One evaluated system (a row of the paper's Table 1)."""

    name: str
    make_engine: Callable | None  # () -> DFSEngine | BFSEngine; None: FSM only
    supports: frozenset[str]  # of {'tc','kcl','sl','mc','fsm','counting'}
    fsm_variant: str | None = None


SYSTEMS: dict[str, System] = {
    s.name: s
    for s in [
        # The paper's system: every workload, FSM by domain counting after
        # label-frequency pruning (opt N), counting-only pruning (opt D).
        System("G2Miner", partial(DFSEngine, DFSConfig("batched")),
               frozenset({"tc", "kcl", "sl", "mc", "fsm", "counting"}), "g2miner"),
        # VLDB'20, the only prior GPU GPM system: per-level materialisation.
        # No SL (SS8); its FSM keeps embedding lists without label pruning.
        System("Pangolin", partial(BFSEngine, adj_partitions=0),
               frozenset({"tc", "kcl", "mc", "fsm"}), "pangolin"),
        # SIGMOD'20 subgraph matching on a partitioned graph: 2 adjacency
        # partitions, a fixed small P that keeps the per-level fan-out
        # overhead representative. No k-MC, no FSM (SS8).
        System("PBE", partial(BFSEngine, adj_partitions=2),
               frozenset({"tc", "kcl", "sl"})),
        # EuroSys'20 CPU GPM: scalar set ops, also in its counting-only
        # sweeps. It "does not mine multiple patterns simultaneously"
        # (SS8.2); the motif driver runs patterns one at a time for every
        # system, so the measured gap is the engine's.
        System("Peregrine", partial(DFSEngine, DFSConfig("python")),
               frozenset({"tc", "kcl", "sl", "mc", "fsm", "counting"}), "peregrine"),
        # OSR'21 CPU matching with code generation: the same matching and
        # symmetry order as G2Miner (SS8.2), run task by task. No FSM (SS8).
        System("GraphZero", partial(DFSEngine, DFSConfig("numpy")),
               frozenset({"tc", "kcl", "sl", "mc"})),
        # DMKD'16 distributed CPU FSM solver, Table 8 only: the driver-side
        # Python FSM variant (in RAM, CPU budget; slow on Mico like the
        # paper's 56-61 s against Peregrine's 4.4 s).
        System("DistGraph", None, frozenset({"fsm"}), "distgraph"),
    ]
}
