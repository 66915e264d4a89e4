"""Frequent subgraph mining with domain support (paper SS5.2, SS7.2(4), Table 8).

Scope: 3-FSM over vertex-labeled graphs = frequent patterns up to 3
vertices (single-edge, labeled wedge, labeled triangle), with *domain*
(MNI) support: the support of a pattern is the minimum over its vertex
orbits of the number of distinct data vertices appearing in that orbit
across all embeddings. (The paper's 3-FSM on Pangolin counts patterns a
fixed number of edge-extensions deep; restricting to 3-vertex patterns
keeps the same systems behaviour — bounded-BFS aggregation, label-frequency
pruning, embedding-list OoM — at this reproduction's scale and is recorded
as a substitution in DESIGN.md.)

``support_sql`` generates the support computation as SQL that runs
identically on Spark and DuckDB (the oracle): embeddings via adjacency
self-joins, orbit rows via UNION ALL, then min-over-orbits of
COUNT(DISTINCT vertex). It is the oracle for every variant and the body of
the Pangolin and Peregrine variants.

System variants (Table 8):

- ``g2miner``   — domain counting without embedding lists: after
                  label-frequency pruning (opt N), one ``run_slices`` job
                  over contiguous slices of domain vertices. Each device
                  counts, for the vertices it owns, every orbit domain they
                  lie in, from the neighbour-label histogram (edge and
                  wedge orbits) and batched triangle checks; the paper's
                  per-orbit domain bitmaps become per-device count vectors
                  that add exactly, since every vertex has one owner.
- ``pangolin``  — BFS with *materialised* embedding lists: two SQL queries
                  count the wedge and triangle embeddings, whose bytes are
                  charged to the scaled GPU budget (-> OoM on Yo) before
                  the supports are aggregated; no label pruning.
- ``peregrine`` — pattern-at-a-time: one Spark job per (level, frequent
                  label) slice; no cross-pattern reuse, hence slow.
- ``distgraph`` — hand-written CPU solver: driver-side Python enumeration
                  with per-embedding object overhead charged to the CPU
                  budget (OoM on the largest graph before enumeration).
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro.core.engine_dfs import buffer_step, chunks, expand, member, run_slices
from repro.graph.csr import CSRGraph, build_csr

#: Python-object overhead factor for DistGraph's in-RAM embedding store
#: (a 3-tuple of boxed ints is ~6x the packed 24 bytes).
_DISTGRAPH_OVERHEAD = 6


def support_sql(kind: str, *, where: str = "") -> str:
    """Generate the (pattern, support) SQL for one pattern family over
    views ``adj(src, dst)`` and ``labels(v, label)``.

    ``kind``: 'edge' | 'wedge' | 'tri'. ``where`` filters embeddings (used
    by the pattern-at-a-time variant). Orbit keys: wedge centers are their
    own orbit; same-labeled symmetric positions share an orbit, which is
    exactly the MNI orbit structure of labeled 3-vertex patterns.
    """
    if kind == "edge":
        emb = (
            "SELECT e.src AS a, e.dst AS b, la.label AS la, lb.label AS lb\n"
            "  FROM adj e JOIN labels la ON la.v = e.src\n"
            "             JOIN labels lb ON lb.v = e.dst\n"
            "  WHERE e.src < e.dst"
        )
        pat = ("'E:' || CAST(least(la, lb) AS STRING) || '_' || "
               "CAST(greatest(la, lb) AS STRING)")
        orbits = [
            (pat, "'p:' || CAST(la AS STRING)", "a"),
            (pat, "'p:' || CAST(lb AS STRING)", "b"),
        ]
    elif kind == "wedge":
        emb = (
            "SELECT e1.src AS c, e1.dst AS a, e2.dst AS b,\n"
            "       lc.label AS lc, la.label AS la, lb.label AS lb\n"
            "  FROM adj e1 JOIN adj e2 ON e2.src = e1.src AND e1.dst < e2.dst\n"
            "  JOIN labels lc ON lc.v = e1.src\n"
            "  JOIN labels la ON la.v = e1.dst\n"
            "  JOIN labels lb ON lb.v = e2.dst"
        )
        pat = ("'W:' || CAST(lc AS STRING) || ':' || "
               "CAST(least(la, lb) AS STRING) || '_' || "
               "CAST(greatest(la, lb) AS STRING)")
        orbits = [
            (pat, "'c'", "c"),
            (pat, "'e:' || CAST(la AS STRING)", "a"),
            (pat, "'e:' || CAST(lb AS STRING)", "b"),
        ]
    elif kind == "tri":
        emb = (
            "SELECT e1.src AS a, e1.dst AS b, e2.dst AS c,\n"
            "       la.label AS la, lb.label AS lb, lc.label AS lc\n"
            "  FROM adj e1\n"
            "  JOIN adj e2 ON e2.src = e1.src AND e2.dst > e1.dst\n"
            "  JOIN adj e3 ON e3.src = e1.dst AND e3.dst = e2.dst\n"
            "  JOIN labels la ON la.v = e1.src\n"
            "  JOIN labels lb ON lb.v = e1.dst\n"
            "  JOIN labels lc ON lc.v = e2.dst\n"
            "  WHERE e1.src < e1.dst"
        )
        pat = (
            "'T:' || CAST(least(la, lb, lc) AS STRING) || '_' || "
            "CAST(la + lb + lc - least(la, lb, lc) - greatest(la, lb, lc) AS STRING)"
            " || '_' || CAST(greatest(la, lb, lc) AS STRING)"
        )
        orbits = [
            (pat, "'t:' || CAST(la AS STRING)", "a"),
            (pat, "'t:' || CAST(lb AS STRING)", "b"),
            (pat, "'t:' || CAST(lc AS STRING)", "c"),
        ]
    else:
        raise ValueError(f"bad kind {kind!r}")

    wh = f"\n  WHERE {where}" if where else ""
    orbit_rows = "\nUNION ALL\n".join(
        f"SELECT {p} AS pattern, {o} AS orbit, {v} AS vtx FROM emb{wh}"
        for (p, o, v) in orbits
    )
    return (
        f"WITH emb AS (\n{emb}\n),\n"
        f"orbit_rows AS (\n{orbit_rows}\n),\n"
        "orbit_counts AS (\n"
        "  SELECT pattern, orbit, COUNT(DISTINCT vtx) AS dom\n"
        "  FROM orbit_rows GROUP BY pattern, orbit\n"
        ")\n"
        "SELECT pattern, MIN(dom) AS support\n"
        "FROM orbit_counts GROUP BY pattern"
    )


def _register_views(spark: SparkSession, adj: pd.DataFrame, labels: pd.DataFrame):
    spark.createDataFrame(adj).createOrReplaceTempView("adj")
    spark.createDataFrame(labels).createOrReplaceTempView("labels")


def _frequent(pdf: pd.DataFrame, sigma: int) -> pd.DataFrame:
    out = pdf[pdf["support"] >= sigma].sort_values("pattern").reset_index(drop=True)
    return out[["pattern", "support"]]


def fsm3(
    spark: SparkSession,
    adj: pd.DataFrame,
    labels: pd.DataFrame,
    sigma: int,
    *,
    variant: str = "g2miner",
    meter: memmod.MemoryMeter | None = None,
) -> pd.DataFrame:
    """Run 3-FSM, returning the frequent (pattern, support) table.

    All variants return identical results; they differ in execution shape
    and memory behaviour, which is what Table 8 measures.
    """
    if variant == "g2miner":
        return _fsm_g2miner(spark, adj, labels, sigma, meter)
    if variant == "pangolin":
        return _fsm_pangolin(spark, adj, labels, sigma, meter)
    if variant == "peregrine":
        return _fsm_peregrine(spark, adj, labels, sigma, meter)
    if variant == "distgraph":
        return _fsm_distgraph(adj, labels, sigma, meter)
    raise ValueError(f"unknown variant {variant!r}")


def _tally(xu: np.ndarray, flags: np.ndarray, L: int) -> np.ndarray:
    """Per-label domain sizes of a block: ``out[x, k]`` is the number of
    block vertices with label ``xu`` = x whose flag ``flags[., k]`` is set.
    A vertex lies in one block of one device, so blocks add exactly."""
    flags = flags.reshape(len(xu), -1)
    r, k = np.nonzero(flags)
    K = flags.shape[1]
    return np.bincount(xu[r] * K + k, minlength=L * K)


def _domain_worker(L: int, step: int, graph, tasks) -> np.ndarray:
    """Orbit domain sizes of every labelled 3-vertex pattern, counted over
    the device's domain vertices ``tasks``.

    Returns one int64 vector, the four tables flattened in order:

    - ``p[x, y]``     vertices of label x with a label-y neighbour (edge
                      orbit ``p:x`` of ``E:x_y``);
    - ``c[c, x, y]``  vertices of label c with two distinct neighbours of
                      labels x and y (wedge centre of ``W:c:x_y``);
    - ``e[x, c, y]``  vertices of label x with a label-c neighbour that has
                      another label-y neighbour (wedge endpoint ``e:x``);
    - ``t[x, y, z]``  vertices of label x in a triangle with labels y, z
                      (triangle orbit ``t:x``).

    The first three come from the neighbour-label histogram H, so no wedge
    is listed; the triangle flags check, for every edge (u, v), the
    neighbours w > v on the shorter of N(u), N(v) against the other one,
    with the batched kernel's expand/member code. A vertex block (its
    flag block, its H rows and its neighbours' rows) and the triangle
    candidates inside it hold at most ``step`` cells.
    """
    indptr, keys, lab = graph
    n = len(lab)
    deg = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Every device holds H for the whole graph: an endpoint orbit reads
    # the rows of its vertices' neighbours.
    H = np.bincount(src * L + lab[keys - src * n], minlength=n * L).reshape(n, L)
    p = np.zeros(L * L, dtype=np.int64)
    c, e, t = (np.zeros(L**3, dtype=np.int64) for _ in range(3))
    diag = np.arange(L)
    for lo, hi in chunks(L * L + deg[tasks] * L, step):
        u = tasks[lo:hi]
        xu, hu = lab[u], H[u]
        p += _tally(xu, hu >= 1, L)
        pair = (hu >= 1)[:, :, None] & (hu >= 1)[:, None, :]
        pair[:, diag, diag] = hu >= 2
        c += _tally(xu, pair, L)
        row, v = expand(keys, u, indptr[u], deg[u], n)
        base = (row * L + lab[v]) * L
        # v's other neighbours: H[v] less u itself.
        other = H[v]
        other[np.arange(len(row)), xu[row]] -= 1
        r, y = np.nonzero(other >= 1)
        flags = np.zeros(len(u) * L * L, dtype=bool)
        flags[base[r] + y] = True
        e += _tally(xu, flags, L)
        # Triangles (u, v, w), w > v: candidates from the shorter list.
        uu = u[row]
        su = np.searchsorted(keys, uu * n + v, "right")
        sv = np.searchsorted(keys, v * n + v, "right")
        lu, lv = indptr[uu + 1] - su, indptr[v + 1] - sv
        side = lu <= lv
        a, b = np.where(side, uu, v), np.where(side, v, uu)
        start, lens = np.where(side, su, sv), np.minimum(lu, lv)
        flags[:] = False
        for lo2, hi2 in chunks(lens, step):
            crow, w = expand(keys, a[lo2:hi2], start[lo2:hi2], lens[lo2:hi2], n)
            hit = member(keys, b[lo2:hi2][crow], w, n)
            crow, w = crow[hit] + lo2, w[hit]
            flags[base[crow] + lab[w]] = True
            flags[(row[crow] * L + lab[w]) * L + lab[v[crow]]] = True
        t += _tally(xu, flags, L)
    return np.concatenate([p, c, e, t])


def _supports(vec: np.ndarray, good: np.ndarray, sigma: int) -> pd.DataFrame:
    """The frequent (pattern, support) table from the summed domain tables.

    Support is the minimum over a pattern's orbits; a pattern with an
    embedding has support >= 1. ``good`` maps compacted labels back.
    """
    L = len(good)
    p = vec[: L * L].reshape(L, L)
    c, e, t = vec[L * L :].reshape(3, L, L, L)
    a, b = np.triu_indices(L)
    w, wa, wb = np.repeat(np.arange(L), len(a)), np.tile(a, L), np.tile(b, L)
    x, y, z = (m.ravel() for m in np.indices((L, L, L)))
    tri = (x <= y) & (y <= z)
    x, y, z = x[tri], y[tri], z[tri]
    families = [
        ("E:{}_{}", (a, b), np.minimum(p[a, b], p[b, a])),
        ("W:{}:{}_{}", (w, wa, wb),
         np.minimum.reduce([c[w, wa, wb], e[wa, w, wb], e[wb, w, wa]])),
        ("T:{}_{}_{}", (x, y, z),
         np.minimum.reduce([t[x, y, z], t[y, x, z], t[z, x, y]])),
    ]
    rows = []
    for key, labs, sup in families:
        hit = sup >= max(sigma, 1)
        names = zip(*(good[m[hit]].tolist() for m in labs))
        rows += [(key.format(*ls), s) for ls, s in zip(names, sup[hit].tolist())]
    return _frequent(pd.DataFrame(rows, columns=["pattern", "support"]), sigma)


def _pruned_graph(adj, labels, sigma) -> tuple[np.ndarray, CSRGraph, np.ndarray]:
    """Opt N: label-frequency pruning. Infrequent labels cannot appear in
    any frequent pattern (their orbit domain is capped by label frequency),
    so their vertices are dropped before any search.

    Returns the frequent labels (ascending), the pruned symmetric CSR, with
    the kept vertices renumbered 0..n-1 in id order (neighbour lists stay
    sorted), and each kept vertex's label compacted to an index into the
    first.
    """
    freq = labels.groupby("label")["v"].count()
    good = np.sort(freq[freq >= sigma].index.to_numpy())
    kept = labels[labels["label"].isin(good)].sort_values("v")
    keep = kept["v"].to_numpy()
    ends = adj[["src", "dst"]].to_numpy()
    vid = np.full(max(ends.max(initial=-1), labels["v"].max()) + 1, -1)
    vid[keep] = np.arange(len(keep))
    ends = vid[ends]
    lab = np.searchsorted(good, kept["label"].to_numpy())
    # adj holds both directions and the renumbering keeps id order, so the
    # rows with -1 < src < dst are each edge between kept vertices once.
    g = build_csr(ends[(ends[:, 0] >= 0) & (ends[:, 0] < ends[:, 1])], n=len(keep))
    return good, g, lab


def _fsm_g2miner(spark, adj, labels, sigma, meter) -> pd.DataFrame:
    good, g, lab = _pruned_graph(adj, labels, sigma)
    with memmod.charged(meter, memmod.GPU_MEM_BYTES) as meter:
        # The edge keys replace indices: the same bytes as the "graph" charge.
        meter.alloc("graph", g.nbytes() + lab.nbytes)
        L = len(good)
        meter.alloc("histogram", g.n * L * 8)
        step = buffer_step(meter, 1)
        (vec,) = run_slices(
            spark, [((g.indptr, g.edge_keys(), lab), np.arange(g.n),
                     partial(_domain_worker, L, step))],
        )
    return _supports(np.array(vec, dtype=np.int64), good, sigma)


def _fsm_pangolin(spark, adj, labels, sigma, meter) -> pd.DataFrame:
    with memmod.charged(meter, memmod.GPU_MEM_BYTES) as meter:
        meter.alloc("graph", adj.values.nbytes + labels.values.nbytes)
        # No label pruning, and each level's embedding list is materialised
        # before aggregation (the BFS subgraph list): count the embeddings
        # and charge them against the device budget first.
        _register_views(spark, adj, labels)
        wedges = spark.sql(
            "SELECT COUNT(*) c FROM adj e1 JOIN adj e2 "
            "ON e2.src = e1.src AND e1.dst < e2.dst"
        ).collect()[0][0]
        meter.alloc("wedge_embeddings", int(wedges) * 3 * 8)
        tris = spark.sql(
            "SELECT COUNT(*) c FROM adj e1 "
            "JOIN adj e2 ON e2.src = e1.src AND e2.dst > e1.dst "
            "JOIN adj e3 ON e3.src = e1.dst AND e3.dst = e2.dst "
            "WHERE e1.src < e1.dst"
        ).collect()[0][0]
        meter.alloc("tri_embeddings", int(tris) * 3 * 8)
        parts = [
            spark.sql(support_sql(k)).toPandas() for k in ("edge", "wedge", "tri")
        ]
        return _frequent(pd.concat(parts, ignore_index=True), sigma)


def _fsm_peregrine(spark, adj, labels, sigma, meter) -> pd.DataFrame:
    with memmod.charged(meter, memmod.CPU_MEM_BYTES) as meter:
        meter.alloc("graph", adj.values.nbytes + labels.values.nbytes)
        _register_views(spark, adj, labels)
        edge_tab = spark.sql(support_sql("edge")).toPandas()
        freq_edge = _frequent(edge_tab, sigma)
        # Frequent labels = labels appearing in some frequent edge pattern;
        # only they can head a frequent 3-vertex pattern.
        freq_labels = sorted(
            {
                int(x)
                for p in freq_edge["pattern"]
                for x in p[2:].split("_")
            }
        )
        parts = [edge_tab]
        # Pattern-at-a-time: one job per (family, anchor label) — Peregrine
        # enumerates each pattern separately, with no cross-pattern reuse.
        for lab in freq_labels:
            parts.append(
                spark.sql(support_sql("wedge", where=f"lc = {lab}")).toPandas()
            )
            parts.append(
                spark.sql(
                    support_sql("tri", where=f"least(la, lb, lc) = {lab}")
                ).toPandas()
            )
        merged = pd.concat(parts, ignore_index=True).drop_duplicates("pattern")
        return _frequent(merged, sigma)


def _fsm_distgraph(adj, labels, sigma, meter) -> pd.DataFrame:
    lab = labels.set_index("v")["label"].to_dict()
    # Input-oblivious embedding store: estimate the wedge list size from
    # degrees and charge it (with Python object overhead) before
    # enumerating — the solver keeps all embeddings in RAM. ``adj`` holds
    # both directions, so the src column alone gives each vertex's degree.
    deg = adj["src"].value_counts()
    est_wedges = int((deg * (deg - 1) // 2).sum())
    with memmod.charged(meter, memmod.CPU_MEM_BYTES) as meter:
        meter.alloc("graph", adj.values.nbytes)
        meter.alloc("embeddings", est_wedges * 3 * 8 * _DISTGRAPH_OVERHEAD)
        nbrs: dict[int, list[int]] = {}
        for s_, d_ in adj.itertuples(index=False):
            nbrs.setdefault(int(s_), []).append(int(d_))
        nsets = {u: set(ns) for u, ns in nbrs.items()}
        dom: dict[tuple, dict[str, set]] = {}

        def touch(pat, orbit, v):
            dom.setdefault(pat, {}).setdefault(orbit, set()).add(v)

        for u, ns in nbrs.items():
            lu = lab[u]
            for v in ns:
                if u < v:
                    lv = lab[v]
                    p = ("E", min(lu, lv), max(lu, lv))
                    touch(p, f"p:{lu}", u)
                    touch(p, f"p:{lv}", v)
            ns_sorted = sorted(ns)
            for i in range(len(ns_sorted)):
                a = ns_sorted[i]
                la = lab[a]
                for b in ns_sorted[i + 1 :]:
                    lb = lab[b]
                    p = ("W", lu, min(la, lb), max(la, lb))
                    touch(p, "c", u)
                    touch(p, f"e:{la}", a)
                    touch(p, f"e:{lb}", b)
                    if u < a and b in nsets.get(a, ()):
                        ls = sorted((lu, la, lb))
                        p = ("T", ls[0], ls[1], ls[2])
                        touch(p, f"t:{lu}", u)
                        touch(p, f"t:{la}", a)
                        touch(p, f"t:{lb}", b)
        rows = []
        for p, orbits in dom.items():
            sup = min(len(s) for s in orbits.values())
            if p[0] == "E":
                key = f"E:{p[1]}_{p[2]}"
            elif p[0] == "W":
                key = f"W:{p[1]}:{p[2]}_{p[3]}"
            else:
                key = f"T:{p[1]}_{p[2]}_{p[3]}"
            rows.append((key, sup))
        pdf = pd.DataFrame(rows, columns=["pattern", "support"])
        return _frequent(pdf, sigma)
