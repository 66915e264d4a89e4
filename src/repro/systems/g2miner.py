"""G2Miner: the paper's system (Table 1 bottom row).

DFS order, pattern/input/architecture aware: the edge-parallel engine
setting, which brings vectorised (SIMD-analog) set ops, orientation for
cliques (every k runs the batched oriented kernel), edgelist reduction,
chunked round-robin partition scheduling and the GPU memory budget.
Supports every workload, including FSM (domain counting after
label-frequency pruning, opt N) and counting-only pruning (opt D).
"""
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.systems.base import System, register


def make_engine() -> DFSEngine:
    return DFSEngine(DFSConfig(parallelism="edge", setops="numpy"))


SYSTEM = register(
    System(
        name="G2Miner",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl", "mc", "fsm", "counting"}),
        fsm_variant="g2miner",
    )
)
