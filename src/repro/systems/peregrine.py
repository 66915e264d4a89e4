"""Peregrine baseline (EuroSys'20): state-of-the-art CPU GPM system.

Pattern-aware DFS with the same generated search plans as G2Miner, but
executed the CPU way: vertex-parallel tasks (coarse grained), *scalar*
pure-Python set operations (the stand-in for per-core scalar execution vs
the GPU's vectorised warps, also in its counting-only sweeps), id-based
symmetry bounds instead of degree orientation, vertex tasks in natural
order, CPU memory budget. For multi-pattern problems Peregrine
"does not mine multiple patterns simultaneously" (SS8.2) — the motif
driver runs its patterns one at a time, which is what we do for every
system, so the measured gap is due to the engine itself.
"""
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.systems.base import System, register


def make_engine() -> DFSEngine:
    return DFSEngine(DFSConfig(parallelism="vertex", setops="python"))


SYSTEM = register(
    System(
        name="Peregrine",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl", "mc", "fsm", "counting"}),
        fsm_variant="peregrine",
    )
)
