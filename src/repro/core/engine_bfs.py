"""BFS-order GPM engine (the Pangolin / PBE baselines, paper SS2.3, SS3).

Algorithm 2 of the paper, expressed as what it really is in a dataflow
system: the level-l *subgraph list* is a DataFrame with columns v0..vl, and
vertex extension is a Catalyst join against the adjacency DataFrame with
the pattern's constraints applied on the fly. This is exactly the
"DataFrame-based subgraph enumeration over partitioned graph data" port of
the GPU BFS systems:

- **Pangolin mode** (``adj_partitions=0``): every intermediate level is
  persisted and counted; its bytes are charged against the scaled GPU
  memory budget, which is where the paper's OoM cells come from. Pangolin
  has orientation for cliques (Table 2 opt A: yes) but no edgelist
  reduction (opt J: no) and no DFS data reuse.
- **PBE mode** (``adj_partitions=P > 0``): the adjacency is split into P
  partitions and every extension joins each partition separately, with a
  repartition of the intermediate per level — the cross-partition
  communication that makes PBE slower than G2Miner despite never running
  out of memory (it streams blocks). No orientation (SS8.1).

Both modes charge the GPU budget.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import memory as memmod
from repro.core.pattern import Pattern
from repro.core.plan import SearchPlan, build_plan, oriented_clique_plan
from repro.graph.csr import CSRGraph


class BFSEngine:
    """Level-by-level subgraph-list extension as Catalyst join chains."""

    def __init__(self, adj_partitions: int = 0):
        #: P-way partitioned adjacency: 0 is Pangolin, P > 0 is PBE.
        self.adj_partitions = adj_partitions

    @property
    def budget(self) -> int:
        """The device budget ``count`` charges unless given a ``meter``:
        the GPU's, in both modes."""
        return memmod.GPU_MEM_BYTES

    def count(
        self,
        spark: SparkSession,
        csr: CSRGraph,
        pattern: Pattern,
        *,
        induced: bool = False,
        meter: memmod.MemoryMeter | None = None,
    ) -> int:
        """Count matches of ``pattern`` with BFS extension.

        Raises ``OutOfMemoryError`` if the materialised subgraph lists
        exceed the engine's device budget (Pangolin mode).
        """
        P = self.adj_partitions
        # For cliques, vertex- and edge-induced matches coincide (SS2.1),
        # so Pangolin orients regardless of the induced flag.
        use_orient = pattern.is_clique() and P == 0
        g = csr.orient() if use_orient else csr
        plan = (
            oriented_clique_plan(pattern.k)
            if use_orient
            else build_plan(pattern, induced=induced)
        )
        edges = g.edge_tasks("all")  # no edgelist reduction in the baselines
        with memmod.charged(meter, self.budget) as meter:
            # PBE partitions the data graph precisely so that only one
            # partition is resident at a time — that is how it "supports
            # large graphs" (SS3.2) at the price of cross-partition
            # communication. Charge a single partition's share; Pangolin's
            # is the whole graph.
            meter.alloc("csr", g.nbytes() // (P or 1))
            meter.alloc("edgelist", edges.nbytes // (P or 1))
            if use_orient:
                # Pangolin constructs the DAG on the device next to the
                # input graph (footnote 3: orientation memory behaviour);
                # the symmetric CSR is resident during construction.
                # G2Miner's loader orients host-side (preprocessing SS4.2).
                meter.alloc("csr_symmetric", csr.nbytes())
            adj = spark.createDataFrame(
                pd.DataFrame({"src": edges[:, 0], "dst": edges[:, 1]})
            )
            adj_parts: list[DataFrame] = []
            if P > 0:
                # PBE: the data graph is partitioned; extension must consult
                # every partition (cross-partition communication).
                whole = adj.withColumn("p", F.pmod(F.hash("src"), F.lit(P)))
                adj_parts = [whole.filter(F.col("p") == i).drop("p") for i in range(P)]

            # Level-1 subgraph list: the edge list with v1's symmetry bound
            # applied on the fly (the baselines filter rather than pre-reduce
            # Omega — opt J is G2Miner-only).
            level = adj.select(F.col("src").alias("v0"), F.col("dst").alias("v1"))
            for j in plan.lower[1]:
                level = level.filter(F.col(f"v{j}") < F.col("v1"))

            persisted: list[DataFrame] = []
            try:
                for lvl in range(2, plan.k):
                    level = self._extend(level, lvl, plan, adj, adj_parts)
                    if lvl == plan.k - 1:
                        break  # leaf level: counted, never stored (Alg. 2 line 7)
                    if P == 0:
                        level = level.persist()
                        persisted.append(level)
                        rows = level.count()
                        # Subgraph list entry = lvl+1 vertex ids (SS2.3:
                        # memory exponential in pattern size).
                        meter.alloc(f"subgraph_list_{lvl}", rows * (lvl + 1) * 8)
                    else:
                        # PBE streams blocks: charge one block, not the list.
                        # (The communication cost is already paid by the
                        # per-partition join fan-out + union above.)
                        meter.alloc(f"block_{lvl}", 1 << 16)
                return level.count()
            finally:
                for df in persisted:
                    df.unpersist()

    def count_many(
        self,
        spark: SparkSession,
        csr: CSRGraph,
        patterns: list[Pattern],
        *,
        induced: bool = False,
        meter: memmod.MemoryMeter | None = None,
    ) -> list[int]:
        """``count`` each pattern in turn on the shared ``meter``: a BFS
        system materialises each pattern's subgraph lists level by level,
        one Spark job per level, so its patterns share no job."""
        return [self.count(spark, csr, p, induced=induced, meter=meter) for p in patterns]

    def _extend(
        self,
        level: DataFrame,
        lvl: int,
        plan: SearchPlan,
        adj: DataFrame,
        adj_parts: list[DataFrame],
    ) -> DataFrame:
        """One vertex extension (Algorithm 2 lines 3-6) as Catalyst joins."""

        def extend_with(a: DataFrame) -> DataFrame:
            # The candidate-generating join draws from ``a`` (one graph
            # partition in PBE mode); the remaining connectivity checks
            # must consult the *full* adjacency — those lookups are PBE's
            # cross-partition communication.
            conn = plan.conn[lvl]
            e0 = a.select(
                F.col("src").alias("_s0"), F.col("dst").alias(f"v{lvl}")
            )
            out = level.join(e0, F.col(f"v{conn[0]}") == F.col("_s0")).drop("_s0")
            for j in conn[1:]:
                ej = adj.select(
                    F.col("src").alias(f"_s{j}"), F.col("dst").alias(f"_d{j}")
                )
                out = out.join(
                    ej,
                    (F.col(f"v{j}") == F.col(f"_s{j}"))
                    & (F.col(f"v{lvl}") == F.col(f"_d{j}")),
                ).drop(f"_s{j}", f"_d{j}")
            return out

        if adj_parts:
            parts = [extend_with(a) for a in adj_parts]
            out = parts[0]
            for p in parts[1:]:
                out = out.unionByName(p)
        else:
            out = extend_with(adj)

        for j in plan.anti[lvl]:
            na = adj.select(F.col("src").alias("_as"), F.col("dst").alias("_ad"))
            out = out.join(
                na,
                (F.col(f"v{j}") == F.col("_as")) & (F.col(f"v{lvl}") == F.col("_ad")),
                "left_anti",
            )
        for j in plan.lower[lvl]:
            out = out.filter(F.col(f"v{lvl}") > F.col(f"v{j}"))
        for j in plan.excl[lvl]:
            out = out.filter(F.col(f"v{lvl}") != F.col(f"v{j}"))
        return out
