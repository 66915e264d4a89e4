"""CSR data graph + the paper's preprocessing passes (SS4.2, SS7.2).

``CSRGraph`` is the broadcast-friendly substrate every engine searches over:
plain numpy arrays (indptr/indices), neighbor lists sorted ascending (the
paper sorts them to enable early exit / bounded search), plus the input
information G2Miner's loader extracts (|V|, |E|, max degree Delta).

Preprocessing ports:

- ``orient``      — *orientation* (opt A): convert the undirected graph into
                    a DAG by (degree, id) order; halves the edges, shrinks
                    Delta, removes on-the-fly symmetry checks for cliques.
- ``edge_tasks``  — the task edgelist, with *edgelist reduction* (opt J):
                    when the symmetry order bounds v1 by v0, keep one
                    instance per undirected edge.
- ``edge_keys``   — the row-major edge keys the batched kernel probes in
                    place of the neighbour indices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CSRGraph:
    """Immutable CSR representation of a data graph.

    ``indptr``/``indices`` follow the usual CSR convention; every neighbor
    list ``indices[indptr[v]:indptr[v+1]]`` is sorted ascending. For an
    undirected graph the structure is symmetric; after ``orient`` it holds
    only the DAG out-edges.
    """

    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = False
    _oriented: "CSRGraph | None" = field(default=None, init=False, repr=False, compare=False)
    _keys: "np.ndarray | None" = field(default=None, init=False, repr=False, compare=False)

    # -- input information (paper: "extracts input information") ---------
    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Undirected edge count |E|."""
        return len(self.indices) if self.directed else len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < len(nb) and nb[i] == v

    def nbytes(self) -> int:
        """Bytes of the CSR structure — input to the device-memory model."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    # -- preprocessing ---------------------------------------------------

    def orient(self) -> "CSRGraph":
        """Orientation (opt A): keep edge u->v iff (deg(u),u) < (deg(v),v).

        Produces a DAG whose out-degree is bounded by the graph degeneracy
        neighborhood — the classic clique preprocessing. Must be called on
        the symmetric graph. The DAG is built once per graph and kept on
        the instance: the graph is immutable, and every clique query on it
        searches the same DAG.
        """
        if self.directed:
            raise ValueError("orient() expects the symmetric graph")
        if self._oriented is None:
            deg = self.degrees
            src = np.repeat(np.arange(self.n), deg)
            dst = self.indices
            rank = np.argsort(np.argsort(deg * (self.n + 1) + np.arange(self.n)))
            keep = rank[src] < rank[dst]
            self._oriented = build_csr(
                np.stack([src[keep], dst[keep]], axis=1),
                n=self.n,
                directed=True,
            )
        return self._oriented

    def edge_keys(self) -> np.ndarray:
        """Row-major edge keys ``u * n + v``, ascending.

        The same bytes as ``indices``, in a form that one ``searchsorted``
        probes for any edge: row u's neighbour list is
        ``keys[indptr[u]:indptr[u+1]] - u * n``. Built once per graph and
        kept on the instance, like ``orient``, so every kernel of a job
        that searches this graph holds the same array and the job's
        broadcast stores it once.
        """
        if self._keys is None:
            rows = np.arange(self.n, dtype=np.int64) * self.n
            self._keys = np.repeat(rows, self.degrees) + self.indices
        return self._keys

    def edge_tasks(self, mode: str = "all") -> np.ndarray:
        """The task edgelist Omega (SS7.1) as an ``(m, 2)`` array.

        ``mode`` applies edgelist reduction (opt J): ``"lt"`` keeps one
        instance per undirected edge with src < dst (valid when the
        symmetry order bounds v1 below by v0), ``"all"`` keeps both
        directions. ``"gt"``, one instance with src > dst, is the choice of
        the counting-only sweeps (``core.counting``): any one instance per
        edge serves them, and no search plan asks for it. On an oriented
        graph the DAG edges already are a reduced list, so ``mode`` is
        ignored.
        """
        deg = self.degrees
        src = np.repeat(np.arange(self.n), deg)
        dst = self.indices
        if mode not in ("all", "lt", "gt"):
            raise ValueError(f"bad mode {mode!r}")
        if mode != "all" and not self.directed:
            keep = src < dst if mode == "lt" else src > dst
            return np.stack([src[keep], dst[keep]], axis=1)
        return np.stack([src, dst], axis=1)


def build_csr(
    edges: np.ndarray,
    *,
    n: int | None = None,
    directed: bool = False,
) -> CSRGraph:
    """Build a CSR graph from an ``(m, 2)`` edge array.

    An undirected graph (the graph-loader default) takes each edge once and
    stores both directions; a ``directed`` one stores the edges as given.
    Neighbor lists come out sorted ascending, the invariant every set-op
    primitive relies on.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max(initial=-1)) + 1
    if not directed:
        edges = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    src, dst = edges[order, 0], edges[order, 1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(
        indptr=indptr,
        indices=np.ascontiguousarray(dst),
        directed=directed,
    )
