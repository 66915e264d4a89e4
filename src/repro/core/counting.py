"""Counting-only pruning via pattern decomposition (paper SS5.4(1), Table 9).

When the user asks to *count* rather than *list*, some patterns decompose
into cheaper sub-counts: a diamond is two triangles on a shared edge, so
``diamond = sum_e C(t_e, 2)`` where ``t_e`` is the per-edge triangle count
(Algorithm 3); an induced wedge count follows from degrees and the triangle
count; and all six 4-motif counts follow from a handful of non-induced
aggregates plus one real enumeration (4-cycle, for which the paper notes no
decomposition exists).

Instead of hand-deriving the ESCAPE-style inclusion formulas, the
non-induced -> induced conversion matrix is computed *programmatically*
(``conversion_matrix``): M[H, H'] = number of spanning subgraphs of H'
isomorphic to H, brute-forced over the 4-vertex motifs; induced counts are
the solution of the triangular system. This mirrors the paper's "automatic
pattern decomposition [82]" and is property-tested against direct induced
enumeration.

The per-edge triangle statistics pass (``stats_launch``) is one
sweep (an ``engine_dfs.run_slices`` launch) over the reduced edgelist
computing, per edge (u, v), t_e = |N(u) ∩ N(v)| and summing closed forms
of t_e and the two endpoint degrees (``_edge_sums``) — enough for T and the
non-induced diamond, tailed-triangle and 4-path counts in a single pass
(the W-buffer reuse of Algorithm 1).
"""
from __future__ import annotations

from functools import partial
from itertools import combinations

import numpy as np
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro.core.engine_dfs import (
    MAX_STEP, DFSEngine, Launch, chunks, expand, member, run_slices,
)
from repro.core.pattern import Pattern, clique, cycle, motifs
from repro.core.setops import BACKENDS
from repro.graph.csr import CSRGraph

#: Canonical 4-motif order (by edge count; the triangular system order).
MOTIF4_NAMES = ("4-path", "3-star", "tailed-triangle", "4-cycle", "diamond", "4-clique")


def _spanning_copies(h: Pattern, hp: Pattern) -> int:
    """#subsets of E(H') forming a graph on the same 4 vertices ~= H
    with no isolated vertex mismatch (H's vertex set is all 4)."""
    target_edges = list(hp.edges)
    count = 0
    for r in range(len(target_edges) + 1):
        for sub in combinations(target_edges, r):
            cand = Pattern(hp.k, frozenset(sub))
            if cand.num_edges == h.num_edges and cand.is_isomorphic(h):
                count += 1
    return count


def conversion_matrix() -> np.ndarray:
    """M with M[i, j] = #copies of motif i spanning motif j (4-vertex).

    ``non_induced = M @ induced``; M is upper-triangular with unit diagonal
    under the MOTIF4_NAMES order, so induced counts follow by back-substitution.
    """
    pats = {p.name: p for p in motifs(4)}
    k = len(MOTIF4_NAMES)
    M = np.zeros((k, k), dtype=np.int64)
    for i, hi in enumerate(MOTIF4_NAMES):
        for j, hj in enumerate(MOTIF4_NAMES):
            M[i, j] = _spanning_copies(pats[hi], pats[hj])
    return M


def _edge_sums(t: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """The sweep's sums over edges (u, v) with t common neighbours:
    sum t (= 3T), sum C(t, 2) (= non-induced diamonds), sum t(d_u+d_v-4)
    (= 2 paws: each triangle vertex w has d_w - 2 tails, and w lies on two
    of the triangle's edges) and sum (d_u-1)(d_v-1) (= non-induced 4-paths
    + 3T: the walks x-u-v-y with the edge in the middle, where x = y once
    per edge of each triangle)."""
    return np.array([t.sum(), (t * (t - 1) // 2).sum(),
                     (t * (du + dv - 4)).sum(), ((du - 1) * (dv - 1)).sum()])


def _stats_batch(graph, tasks):
    """The stats sweep with the batched kernel's expand/membership code."""
    indptr, keys = graph
    n = len(indptr) - 1
    deg = np.diff(indptr)
    sums = np.zeros(4, dtype=np.int64)
    u, v = tasks[:, 0], tasks[:, 1]
    for lo, hi in chunks(deg[u], MAX_STEP):
        du, dv = deg[u[lo:hi]], deg[v[lo:hi]]
        row, w = expand(keys, u[lo:hi], indptr[u[lo:hi]], du, n)
        t = np.bincount(row[member(keys, v[lo:hi][row], w, n)], minlength=hi - lo)
        sums += _edge_sums(t, du, dv)
    return sums


def _stats_scalar(backend: str, graph, tasks):
    """The stats sweep one edge at a time with ``backend``'s set ops."""
    indptr, indices = graph
    ops = BACKENDS[backend]
    deg = np.diff(indptr)
    t = np.array([
        len(ops.intersect(indices[indptr[u] : indptr[u + 1]],
                          indices[indptr[v] : indptr[v + 1]], None))
        for u, v in tasks.tolist()
    ], dtype=np.int64)
    return _edge_sums(t, deg[tasks[:, 0]], deg[tasks[:, 1]])


def stats_launch(csr: CSRGraph, engine: DFSEngine) -> Launch:
    """The stats sweep's launch over the reduced edgelist (``run_slices``).

    The sweep runs with the engine's ``setops``: ``"batched"`` (G2Miner)
    sweeps each device's slice with the batched kernel's code, a set-op
    backend (Peregrine's ``"python"``) keeps a per-edge loop. Its graph and
    tasks are charged to the engine's budget in one ``memory.charged``
    scope, as ``DFSEngine.launches`` charges a kernel; the sweep's step
    stays ``MAX_STEP``.
    """
    tasks = csr.edge_tasks("gt")
    with memmod.charged(None, engine.budget) as m:
        m.alloc("csr", csr.nbytes())
        m.alloc("tasks", tasks.nbytes)
    setops = engine.cfg.setops
    if setops == "batched":
        return (csr.indptr, csr.edge_keys()), tasks, _stats_batch
    return (csr.indptr, csr.indices), tasks, partial(_stats_scalar, setops)


def _stats(vec: tuple[int, ...]) -> dict[str, int]:
    t_sum, d_sum, paw2, p4_3t = vec
    return {"T": t_sum // 3, "diamond_non": d_sum, "paw_non": paw2 // 2,
            "p4_non": p4_3t - t_sum}


def edge_triangle_stats(
    spark: SparkSession, csr: CSRGraph, *, engine: DFSEngine
) -> dict[str, int]:
    """One sweep over the reduced edgelist -> {T, diamond_non, paw_non,
    p4_non}."""
    (vec,) = run_slices(spark, [stats_launch(csr, engine)])
    return _stats(vec)


def count3_counting_only(
    spark: SparkSession, csr: CSRGraph, *, engine: DFSEngine
) -> dict[str, int]:
    """3-motif counts with counting-only pruning: triangles enumerated once
    (TC), induced wedges from degrees: sum C(d, 2) - 3T."""
    t = engine.count(spark, csr, clique(3))
    deg = csr.degrees.astype(np.int64)
    wedges_non = int((deg * (deg - 1) // 2).sum())
    return {"3-path": wedges_non - 3 * t, "3-clique": t}


def count4_counting_only(
    spark: SparkSession, csr: CSRGraph, *, engine: DFSEngine
) -> dict[str, int]:
    """All six induced 4-motif counts from decompositions + two real
    enumerations (4-clique, 4-cycle). The stats sweep, with the engine's
    ``setops``, gives the non-induced 4-path, tailed-triangle and diamond
    counts, and degrees the 3-star count. The sweep and both kernels
    launch in one Spark job."""
    # 4-cycle has no decomposition (SS5.4).
    kernels = engine.launches(csr, [clique(4), cycle(4)])
    vec, (k4, _), (c4_non, _) = run_slices(spark, [stats_launch(csr, engine), *kernels])
    stats = _stats(vec)
    deg = csr.degrees.astype(np.int64)
    claw_non = int((deg * (deg - 1) * (deg - 2) // 6).sum())
    non_induced = np.array(
        [stats["p4_non"], claw_non, stats["paw_non"], c4_non, stats["diamond_non"], k4],
        dtype=np.int64,
    )
    # Exact back-substitution: M is unit upper-triangular over the integers.
    M = conversion_matrix()
    induced = np.zeros_like(non_induced)
    for i in reversed(range(len(induced))):
        induced[i] = non_induced[i] - M[i, i + 1 :] @ induced[i + 1 :]
    return dict(zip(MOTIF4_NAMES, induced.tolist()))


def diamond_counting_only(
    spark: SparkSession, csr: CSRGraph, *, engine: DFSEngine
) -> int:
    """Algorithm 3: edge-induced diamond count = sum_e C(t_e, 2), swept
    with the engine's ``setops``."""
    return edge_triangle_stats(spark, csr, engine=engine)["diamond_non"]
