"""G2Miner: the paper's system (Table 1 bottom row).

DFS order, pattern/input/architecture aware: edge parallelism, vectorised
(SIMD-analog) set ops, orientation for cliques (every k runs the batched
oriented kernel), edgelist reduction, chunked round-robin partition
scheduling, GPU memory budget.
Supports every workload, including FSM (domain counting after
label-frequency pruning, opt N) and counting-only pruning (opt D).
"""
from repro import memory as memmod
from repro.core.engine_dfs import DFSConfig, DFSEngine
from repro.systems.base import System, register


def make_engine() -> DFSEngine:
    return DFSEngine(
        DFSConfig(
            parallelism="edge",
            setops="numpy",
            orientation=True,
            memory_budget=memmod.GPU_MEM_BYTES,
        )
    )


SYSTEM = register(
    System(
        name="G2Miner",
        kind="dfs",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl", "mc", "fsm", "counting"}),
        fsm_variant="g2miner",
        setops_backend="numpy",
        platform="GPU",
    )
)
