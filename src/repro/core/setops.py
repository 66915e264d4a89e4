"""Device primitives for set operations (paper SS6).

The paper's GPM kernels spend 75-92% of their time in three set primitives
over sorted vertex lists: intersection, difference, and bounding. G2Miner
implements them with warp-level SIMD instructions (``__ballot_sync`` /
``__popc``); CPU systems execute them scalar.

This module ports that split:

- ``NumpySetOps``  — vectorised numpy kernels: the SIMD/warp analog used by
                     the GraphZero configuration. G2Miner does not call
                     these primitives: it batches its set ops over a whole
                     task slice (``engine_dfs.batch_count``).
- ``PythonSetOps`` — pure-Python two-pointer merges: the scalar-CPU analog
                     used by the Peregrine/DistGraph configurations. The
                     measured gap between the two backends is this
                     reproduction's stand-in for the paper's GPU-vs-CPU
                     throughput gap, so the relative ordering of systems in
                     the evaluation tables emerges from real execution.

All sorted-list inputs/outputs are ascending int64 numpy arrays with unique
elements (the CSR invariant). Every op also reports the number of element
touches via the optional ``Counter``: the set-op work of the generated
kernel's run, reported as ``DFSEngine.last_ops``.
"""
from __future__ import annotations

import numpy as np


class Counter:
    """Accumulates element-touch counts (the generated kernel's set-op work)."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0


class NumpySetOps:
    """Vectorised sorted-list primitives (the SIMD-aware library, SS6.1)."""

    name = "numpy"

    @staticmethod
    def intersect(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        if ctr is not None:
            ctr.ops += len(a) + len(b)
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        # Binary-search formulation (the paper finds binary search least
        # divergent on GPU): probe the smaller list into the larger one.
        if len(a) > len(b):
            a, b = b, a
        idx = np.searchsorted(b, a)
        idx[idx == len(b)] = len(b) - 1
        return a[b[idx] == a]

    @staticmethod
    def difference(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        if ctr is not None:
            ctr.ops += len(a) + len(b)
        if len(a) == 0 or len(b) == 0:
            return a
        idx = np.searchsorted(b, a)
        idx[idx == len(b)] = len(b) - 1
        return a[b[idx] != a]

    @staticmethod
    def bound_upper(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        """Set bounding: {x in a | x < y} (early exit on sorted lists)."""
        if ctr is not None:
            ctr.ops += int(np.log2(len(a) + 1)) + 1
        return a[: np.searchsorted(a, y)]

    @staticmethod
    def bound_lower(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        """{x in a | x > y}."""
        if ctr is not None:
            ctr.ops += int(np.log2(len(a) + 1)) + 1
        return a[np.searchsorted(a, y, side="right"):]

    @staticmethod
    def remove(a: np.ndarray, vals, ctr: Counter | None = None) -> np.ndarray:
        """Identity exclusion: drop the (few) explicit values in ``vals``."""
        if len(a) == 0:
            return a
        mask = np.ones(len(a), dtype=bool)
        for v in vals:
            i = np.searchsorted(a, v)
            if i < len(a) and a[i] == v:
                mask[i] = False
        if ctr is not None:
            ctr.ops += len(vals)
        return a[mask]


class PythonSetOps:
    """Scalar two-pointer primitives (the CPU-system analog).

    Deliberately interpreter-bound: each comparison is a Python bytecode,
    mirroring scalar per-element execution on a CPU core versus the
    vectorised (warp) kernels above.
    """

    name = "python"

    @staticmethod
    def intersect(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        al, bl = a.tolist(), b.tolist()
        while i < la and j < lb:
            x, y = al[i], bl[j]
            if x == y:
                out.append(x)
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
        if ctr is not None:
            ctr.ops += la + lb
        return np.array(out, dtype=np.int64)

    @staticmethod
    def difference(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        al, bl = a.tolist(), b.tolist()
        while i < la:
            if j >= lb or al[i] < bl[j]:
                out.append(al[i])
                i += 1
            elif al[i] == bl[j]:
                i += 1
                j += 1
            else:
                j += 1
        if ctr is not None:
            ctr.ops += la + lb
        return np.array(out, dtype=np.int64)

    @staticmethod
    def bound_upper(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        out = []
        for x in a.tolist():
            if x >= y:
                break  # early exit enabled by the sorted neighbor lists
            out.append(x)
        if ctr is not None:
            ctr.ops += len(out) + 1
        return np.array(out, dtype=np.int64)

    @staticmethod
    def bound_lower(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        out = [x for x in a.tolist() if x > y]
        if ctr is not None:
            ctr.ops += len(a)
        return np.array(out, dtype=np.int64)

    @staticmethod
    def remove(a: np.ndarray, vals, ctr: Counter | None = None) -> np.ndarray:
        vs = set(int(v) for v in vals)
        out = [x for x in a.tolist() if x not in vs]
        if ctr is not None:
            ctr.ops += len(a)
        return np.array(out, dtype=np.int64)


BACKENDS = {"numpy": NumpySetOps, "python": PythonSetOps}
