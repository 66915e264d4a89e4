"""GraphZero baseline (OSR'21): CPU subgraph matching with code generation.

Uses exactly the same matching order and symmetry order as G2Miner (the
paper makes this point for fairness, SS8.2) but runs them the CPU way:
vertex-parallel DFS, per-call set operations task by task, id-based
symmetry bounds rather than the degree-ordered DAG. No FSM
support (SS8).
"""
from repro import memory as memmod
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.systems.base import System, register


def make_engine() -> DFSEngine:
    return DFSEngine(
        DFSConfig(
            parallelism="vertex",
            setops="numpy",
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
        name="GraphZero",
        kind="dfs",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl", "mc"}),
        platform="CPU",
    )
)
