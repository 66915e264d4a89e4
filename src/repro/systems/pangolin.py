"""Pangolin baseline (VLDB'20): the only prior GPM system on GPU.

The BFS engine's unpartitioned setting (``adj_partitions=0``): fully
materialised per-level subgraph lists (the memory wall of SS2.3: >40 GB
for 5-clique on LiveJournal), orientation for cliques only (Table 2 row A:
the one optimization it shares), no edgelist reduction, no input
awareness. GPU memory budget — the OoM cells in Tables 4, 5, 7 and 8 come
from this setting's ledger.

Pangolin does not support SL (paper SS8), and its FSM variant materialises
embedding lists without label-frequency pruning.
"""
from repro.core.engine_bfs import BFSConfig, BFSEngine
from repro.systems.base import System, register


def make_engine() -> BFSEngine:
    return BFSEngine(BFSConfig(adj_partitions=0))


SYSTEM = register(
    System(
        name="Pangolin",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "mc", "fsm"}),
        fsm_variant="pangolin",
    )
)
