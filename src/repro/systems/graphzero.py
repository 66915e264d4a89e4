"""GraphZero baseline (OSR'21): CPU subgraph matching with code generation.

Uses exactly the same matching order and symmetry order as G2Miner (the
paper makes this point for fairness, SS8.2) but runs them the CPU way:
vertex-parallel DFS, per-call set operations task by task, id-based
symmetry bounds rather than the degree-ordered DAG, vertex tasks in natural
order and the CPU memory budget — all implied by the vertex-parallel engine
setting. No FSM support (SS8).
"""
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.systems.base import System, register


def make_engine() -> DFSEngine:
    return DFSEngine(DFSConfig(parallelism="vertex", setops="numpy"))


SYSTEM = register(
    System(
        name="GraphZero",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl", "mc"}),
    )
)
