"""PBE baseline (SIGMOD'20): GPU subgraph enumeration on partitioned graphs.

The BFS engine's partitioned setting: BFS order over a P-way partitioned
adjacency, where every extension consults all partitions and reshuffles
the intermediate (the cross-partition communication the paper blames for
PBE being 3.8x slower than Pangolin), no orientation, block-streamed
intermediates so it never OoMs — it handles every graph but times out on
the hardest cells (Tw4 4-CL). GPU memory budget.

PBE is a subgraph-matching solver: no k-MC, no FSM (paper SS8).
"""
from repro.core.engine_bfs import BFSConfig, BFSEngine
from repro.systems.base import System, register

#: Number of graph partitions (the paper's PBE partitions large graphs;
#: fixed small P keeps the per-level fan-out overhead representative).
ADJ_PARTITIONS = 2


def make_engine() -> BFSEngine:
    return BFSEngine(BFSConfig(adj_partitions=ADJ_PARTITIONS))


SYSTEM = register(
    System(
        name="PBE",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl"}),
    )
)
