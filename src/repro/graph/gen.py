"""Deterministic synthetic data graphs (the paper's Table 3 stand-ins).

The paper evaluates on public power-law graphs (LiveJournal .. Uk2007) that
are billions of edges; this reproduction generates Chung-Lu style power-law
graphs at ~1/1000-1/4000 scale with matched *shape* (relative size, degree
skew, vertex-label counts for the FSM graphs). Generators are deterministic
in ``seed`` so Spark and the DuckDB oracle see identical inputs.

All graphs are simple, undirected, loop-free, duplicate-free — the same
invariants as the paper's Table 3 ("symmetric, no loops or duplicate edges").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one synthetic data graph.

    ``alpha`` is the power-law exponent of the target degree sequence
    (smaller = heavier skew); ``max_deg`` caps the degree weights so the
    heaviest hub stays proportional to the paper graph's relative Delta.
    ``n_labels`` > 0 makes a vertex-labeled graph (for FSM).
    """

    name: str
    n: int
    target_edges: int
    alpha: float
    max_deg: int
    seed: int
    n_labels: int = 0
    #: Fraction of edges produced by triadic closure (closing random
    #: wedges). Social graphs are clustered; pure Chung-Lu is not, and
    #: without closure the clique-heavy workloads (k-CL, diamond) would be
    #: trivially empty at this scale.
    closure: float = 0.35
    #: Planted dense communities: ``plant_count`` cliques of ``plant_k``
    #: vertices each. Community-structured graphs (LiveJournal) owe their
    #: enormous k-clique counts to such dense cores; Chung-Lu + closure
    #: alone cannot reach realistic K4/K5 density.
    plant_k: int = 0
    plant_count: int = 0


#: Unlabeled graphs for TC / k-CL / SL / k-MC (paper Table 3, bottom 6 rows).
#: Sizes/skew are calibrated jointly with the device-memory budget in
#: ``repro.memory`` so the paper's OoM frontier reproduces (see DESIGN.md).
GRAPHS: dict[str, GraphSpec] = {
    "Lj": GraphSpec(
        "Lj", 4_800, 34_000, 2.2, 300, 101, closure=0.4, plant_k=14, plant_count=250
    ),
    "Or": GraphSpec("Or", 3_100, 50_000, 2.4, 400, 102),
    "Tw2": GraphSpec("Tw2", 8_000, 130_000, 1.9, 1_600, 103),
    "Tw4": GraphSpec("Tw4", 14_000, 220_000, 1.9, 1_500, 104),
    "Fr": GraphSpec("Fr", 100_000, 175_000, 2.9, 100, 105, closure=0.25),
    "Uk": GraphSpec("Uk", 24_000, 300_000, 1.9, 3_600, 106),
}

#: Vertex-labeled graphs for FSM (paper Table 3, top 3 rows).
LABELED_GRAPHS: dict[str, GraphSpec] = {
    "Mi": GraphSpec("Mi", 1_000, 8_000, 2.3, 60, 201, n_labels=29),
    "Pa": GraphSpec("Pa", 3_000, 15_000, 2.9, 40, 202, n_labels=37),
    "Yo": GraphSpec("Yo", 7_000, 80_000, 2.0, 700, 203, n_labels=28),
}

#: Tiny graphs for unit tests (SF ~= 0.01 of the bench graphs).
TEST_GRAPHS: dict[str, GraphSpec] = {
    "tiny": GraphSpec("tiny", 60, 220, 2.2, 25, 7),
    "tiny_skew": GraphSpec("tiny_skew", 150, 900, 1.8, 70, 8),
    "tiny_dense": GraphSpec("tiny_dense", 40, 300, 3.0, 40, 9),
    "tiny_labeled": GraphSpec("tiny_labeled", 80, 350, 2.2, 30, 10, n_labels=5),
}


def chung_lu_edges(spec: GraphSpec) -> np.ndarray:
    """Generate the undirected edge set of a Chung-Lu power-law graph.

    Returns an ``(m, 2)`` int64 array with ``src < dst``, no loops, no
    duplicates. Endpoints are sampled proportional to a power-law weight
    sequence, which yields the heavy-tailed degree distribution the paper's
    load-balance results depend on.
    """
    g = np.random.default_rng(spec.seed)
    ranks = np.arange(1, spec.n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (spec.alpha - 1.0))
    w *= spec.max_deg / w[0]
    np.clip(w, 1.0, spec.max_deg, out=w)
    p = w / w.sum()

    planted: set[int] = set()
    if spec.plant_count:
        for _ in range(spec.plant_count):
            members = g.choice(spec.n, size=spec.plant_k, replace=False, p=p)
            members = np.sort(members)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    planted.add(int(members[i]) * spec.n + int(members[j]))

    n_base = max(int(spec.target_edges * (1.0 - spec.closure)) - len(planted), 0)
    # Oversample to survive dedup/loop removal, then trim to target.
    n_draw = int(n_base * 1.6) + 16
    src = g.choice(spec.n, size=n_draw, p=p)
    dst = g.choice(spec.n, size=n_draw, p=p)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(
        lo[keep].astype(np.int64) * spec.n + hi[keep].astype(np.int64)
    )
    g.shuffle(pairs)
    pairs = pairs[:n_base]

    # Triadic closure: repeatedly close random wedges (pick an edge
    # endpoint's two neighbors, connect them). This plants the triangle/
    # clique density real social graphs have.
    pair_set = set(pairs.tolist()) | planted
    nbrs: dict[int, list[int]] = {}
    for pk in pair_set:
        a, b = divmod(pk, spec.n)
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    want = spec.target_edges - len(pair_set)
    centers = g.choice(spec.n, size=max(want * 12, 64), p=p)
    for c in centers.tolist():
        if want <= 0:
            break
        ns = nbrs.get(c)
        if not ns or len(ns) < 2:
            continue
        i = int(g.integers(0, len(ns)))
        j = int(g.integers(0, len(ns)))
        a, b = ns[i], ns[j]
        if a == b:
            continue
        lo2, hi2 = (a, b) if a < b else (b, a)
        pk = lo2 * spec.n + hi2
        if pk in pair_set:
            continue
        pair_set.add(pk)
        nbrs.setdefault(lo2, []).append(hi2)
        nbrs.setdefault(hi2, []).append(lo2)
        want -= 1
    out = np.sort(np.fromiter(pair_set, dtype=np.int64, count=len(pair_set)))
    return np.stack([out // spec.n, out % spec.n], axis=1)


def vertex_labels(spec: GraphSpec) -> np.ndarray:
    """Zipf-distributed vertex labels (skewed label frequency, like Mico):
    a few frequent labels and a long tail of infrequent ones, which is what
    makes the paper's label-frequency pruning (opt N) effective."""
    if spec.n_labels == 0:
        return np.zeros(spec.n, dtype=np.int64)
    g = np.random.default_rng(spec.seed + 7)
    ranks = np.arange(1, spec.n_labels + 1, dtype=np.float64)
    p = 1.0 / ranks**1.2
    p /= p.sum()
    return g.choice(spec.n_labels, size=spec.n, p=p).astype(np.int64)


def _spec(name: str) -> GraphSpec:
    for cat in (GRAPHS, LABELED_GRAPHS, TEST_GRAPHS):
        if name in cat:
            return cat[name]
    raise KeyError(f"unknown graph {name!r}")


def generate_graph(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Generate graph ``name`` -> (undirected edge array ``src<dst``, labels)."""
    spec = _spec(name)
    return chung_lu_edges(spec), vertex_labels(spec)


def adj_pdf(name: str) -> pd.DataFrame:
    """Symmetric adjacency as pandas: both (u,v) and (v,u) rows.

    This is the table registered with DuckDB as ``adj`` in oracle tests and
    created as a Spark view for the BFS (Catalyst) engines.
    """
    e, _ = generate_graph(name)
    both = np.concatenate([e, e[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    return pd.DataFrame({"src": both[:, 0], "dst": both[:, 1]})


def labels_pdf(name: str) -> pd.DataFrame:
    """Vertex labels as pandas ``(v, label)``."""
    spec = _spec(name)
    return pd.DataFrame(
        {"v": np.arange(spec.n, dtype=np.int64), "label": vertex_labels(spec)}
    )
