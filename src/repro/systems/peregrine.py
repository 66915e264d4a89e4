"""Peregrine baseline (EuroSys'20): state-of-the-art CPU GPM system.

Pattern-aware DFS with the same generated search plans as G2Miner, but
executed the CPU way: vertex-parallel tasks (coarse grained), *scalar*
pure-Python set operations (the stand-in for per-core scalar execution vs
the GPU's vectorised warps), id-based symmetry bounds instead of degree
orientation, CPU memory budget. For multi-pattern problems Peregrine
"does not mine multiple patterns simultaneously" (SS8.2) — the motif
driver runs its patterns one at a time, which is what we do for every
system, so the measured gap is due to the engine itself.
"""
from repro import memory as memmod
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.systems.base import System, register


def make_engine() -> DFSEngine:
    return DFSEngine(
        DFSConfig(
            parallelism="vertex",
            setops="python",
            orientation=False,
            memory_budget=memmod.CPU_MEM_BYTES,
            # CPU systems process vertex tasks in natural order with static
            # partitioning — the coarse-grain load imbalance of SS5.1(2);
            # chunked scheduling (opt G) is G2Miner's.
            chunked_schedule=False,
        )
    )


SYSTEM = register(
    System(
        name="Peregrine",
        kind="dfs",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl", "mc", "fsm", "counting"}),
        fsm_variant="peregrine",
        setops_backend="python",
        platform="CPU",
    )
)
