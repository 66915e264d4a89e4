"""k-motif counting (k-MC) drivers — the multi-pattern problem (SS5.3).

``count_motifs`` runs all connected k-vertex patterns (Fig. 3) as
vertex-induced counts with one ``engine.count_many`` call. G2Miner
generates one kernel per pattern group (kernel fission: merging everything
into one gigantic kernel would blow register pressure, so the paper splits
kernels); here each pattern is one kernel, and a DFS engine launches all of
them together, in one Spark job. Peregrine's documented behaviour — it "does
not mine multiple patterns simultaneously" — is the same one kernel per
pattern, so the systems differ where they truly differ: search order,
task granularity and set-op backend. A BFS engine counts pattern after pattern.

For the counting-only variants (Table 9) see ``repro.core.counting``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.engine_bfs import BFSEngine
from repro.core.engine_dfs import DFSEngine
from repro.core.pattern import motifs
from repro.graph.csr import CSRGraph
from repro import memory as memmod


def count_motifs(
    spark: SparkSession,
    csr: CSRGraph,
    k: int,
    engine: DFSEngine | BFSEngine,
    *,
    meter: memmod.MemoryMeter | None = None,
) -> dict[str, int]:
    """Count every connected k-vertex motif (vertex-induced). Returns
    {motif name: count}. The shared ``meter`` makes multi-pattern runs
    charge one device budget (subgraph lists coexist in BFS systems)."""
    pats = motifs(k)
    # Engines account and release their own structures per pattern; the
    # binding constraint is the largest single pattern's intermediate state
    # (wedge lists for 4-path in BFS systems).
    counts = engine.count_many(spark, csr, pats, induced=True, meter=meter)
    return {p.name: c for p, c in zip(pats, counts)}
