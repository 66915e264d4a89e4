"""The G2Miner execution engine: DFS search on Spark (paper SS5-SS7).

Execution model (SS5.1's warp-centric two-level parallel execution, ported
to the Spark dataflow model):

- *Tasks* are edges or root vertices: a numpy task array, broadcast once
  with the graph. ``run_slices`` gives each Spark partition one
  contiguous slice of it: one Spark task = one "GPU".
- A cell is one Spark job, a plain RDD job. The GPU loads the graph once
  and launches the cell's kernels back to back (``count_many``: one kernel
  per pattern for k-MC), so each device runs every launch of the cell on
  its slices in turn, with no host round trip between kernels.
- G2Miner runs one *batched kernel* (``batch_count``) over the device's
  whole slice, one pattern level at a time: an expansion step over the
  slice is the set of warps, each candidate check one warp lane's work.
  Level-at-a-time inside a slice is the bounded BFS of opt M, and the step
  is sized from the device-memory ledger (opt K); across steps the search
  stays depth first. Membership is a ``searchsorted`` into the row-major
  edge keys ``u*n+v`` (``CSRGraph.edge_keys``), broadcast in place of the
  neighbour indices. Its tasks are the edgelist Omega, reduced (opt J) to
  v0 < v1 when the symmetry order bounds v1 by v0; when Omega would not
  fit the device budget next to the graph, they are the root vertices and
  Omega is never kept (the vertex-parallel mode of SS5.1).
- The CPU systems run the pattern's *generated kernel* (codegen.py) root
  vertex by root vertex with that system's set-op backend, their
  documented strategy.
- G2Miner's cliques of every size run on the oriented graph (opt A) with
  the analyzer's ``oriented_clique_plan`` (``core.plan``) on DAG-edge
  tasks: each level's candidates come from the intersection of the earlier
  out-neighbourhoods, a search inside the (v0, v1) local graph (the role
  of the paper's LGS, opt E) with membership tested on the sorted edge
  keys in place of a dense bitmap (opt F).

``DFSConfig.setops`` picks the whole bundle. ``"batched"`` is G2Miner on
the GPU: the batched kernel on edge tasks, orientation for cliques, tasks
pre-permuted with the chunked round-robin order (SS7.1 policy 3) and the
GPU budget. ``"numpy"`` (GraphZero) and ``"python"`` (Peregrine) are the
CPU systems: the generated kernel on vertex tasks with that set-op
backend, no orientation, tasks in natural order and the host budget.

The engine accounts all materialised state against a device-memory budget
(``repro.memory``). ``per_task_costs`` measures G2Miner's batched kernel one
Omega task at a time, the per-task work the multi-GPU scheduling
simulation distributes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, Iterator

import numpy as np
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro.core import codegen
from repro.core.pattern import Pattern
from repro.core.plan import SearchPlan, build_plan, oriented_clique_plan
from repro.core.setops import BACKENDS, Counter
from repro.graph.csr import CSRGraph
from repro.sched.policies import CHUNK, chunked_round_robin_order


@dataclass(frozen=True)
class DFSConfig:
    """Engine configuration: the set-op strategy, which picks the rest
    (see the module docstring)."""

    #: 'batched' (G2Miner: the batched kernel on edge tasks, or on root
    #: vertices when Omega does not fit) | 'numpy' (GraphZero: the generated
    #: kernel, vectorised set ops per call) | 'python' (Peregrine: the
    #: generated kernel, scalar set ops)
    setops: str = "batched"
    #: Concurrent devices the chunked round-robin order and the buffer
    #: charges assume. Fixed, so the ledger does not depend on the host.
    num_partitions: ClassVar[int] = 16

    def __post_init__(self):
        if self.setops != "batched" and self.setops not in BACKENDS:
            raise ValueError(f"unknown setops {self.setops!r}")


# -- batched kernel (G2Miner) --------------------------------------------

#: Most candidates one batched expansion may hold: the cap on the frontier
#: step that opt K sizes from the ledger (``buffer_step``).
MAX_STEP = 1 << 14


def buffer_step(meter: memmod.MemoryMeter, words: int) -> int:
    """Adaptive buffering (opt K): size a kernel's step from the ledger's
    free bytes, at most ``MAX_STEP`` cells of ``words`` int64 words on each
    of ``DFSConfig.num_partitions`` concurrent devices, and charge it under
    ``"buffers"``."""
    per = words * 8 * DFSConfig.num_partitions
    step = max(1, min(MAX_STEP, (meter.budget - meter.resident) // per))
    meter.alloc("buffers", step * per)
    return step


def chunks(lens: np.ndarray, step: int) -> Iterator[tuple[int, int]]:
    """Contiguous row ranges whose expansions hold at most ``step``
    candidates in total. A single row always runs: its list is <= Delta."""
    cum = np.cumsum(lens)
    lo = 0
    while lo < len(lens):
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + step, side="right")))
        yield lo, hi
        lo = hi


def expand(
    keys: np.ndarray, u: np.ndarray, start: np.ndarray, lens: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate, for every row, ``lens`` neighbours of its vertex ``u``
    from key position ``start`` on.

    Returns ``(row, cand)``: each candidate and the row it came from. Rows
    stay in order and each row's candidates stay sorted.
    """
    row = np.repeat(np.arange(len(u)), lens)
    pos = np.arange(len(row)) + (start - (np.cumsum(lens) - lens))[row]
    return row, keys[pos] - u[row] * n


def member(keys: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Batched edge test: is (a[i], b[i]) an edge, for every i."""
    q = a * n + b
    idx = np.searchsorted(keys, q)
    return keys[np.minimum(idx, len(keys) - 1)] == q


def batch_count(
    plan: SearchPlan,
    indptr: np.ndarray,
    keys: np.ndarray,
    tasks: np.ndarray,
    step: int,
) -> tuple[int, int]:
    """Count ``plan``'s matches rooted at a slice of tasks.

    ``tasks`` are the first rows of the search: a 1-D array of root
    vertices (the vertex-parallel mode of SS5.1, where level 1 expands
    ``N(v0)``), or an ``(m, 2)`` edgelist that already meets level 1's
    bound (``DFSEngine._edge_tasks``).

    Level at a time over the whole slice (opt M's bounded BFS): level i
    expands the neighbours of ``conn[i][0]`` above its ``lower`` bounds,
    for at most ``step`` candidates at once, masks ``excl``, and
    checks the other ``conn`` members and the plan's ``anti`` with one
    ``searchsorted`` each; the leaf sums the mask, or counts pairs when
    ``plan.leaf_reuse()``. Across steps the search stays depth first.

    Returns ``(count, touches)``; touches counts candidate checks.
    """
    n = len(indptr) - 1
    cols = [tasks] if tasks.ndim == 1 else [tasks[:, 0], tasks[:, 1]]
    if len(cols) == plan.k:
        return len(cols[0]), 0
    reuse = plan.leaf_reuse()
    last = plan.k - 2 if reuse else plan.k - 1
    touches = 0

    def level(cols: list[np.ndarray], i: int) -> int:
        nonlocal touches
        u = cols[plan.conn[i][0]]
        # Set bounding (SS6.1): on a sorted list a lower bound is a
        # suffix, found by one searchsorted per row, so bounded-out
        # candidates are never expanded.
        start, end = indptr[u], indptr[u + 1]
        for j in plan.lower[i]:
            start = np.maximum(start, np.searchsorted(keys, u * n + cols[j], "right"))
        lens = np.maximum(end - start, 0)
        checks = [(j, True) for j in plan.conn[i][1:]] + [(j, False) for j in plan.anti[i]]
        total = 0
        for lo, hi in chunks(lens, step):
            pre = [c[lo:hi] for c in cols]
            row, cand = expand(keys, u[lo:hi], start[lo:hi], lens[lo:hi], n)
            touches += len(cand)
            for j in plan.excl[i]:
                keep = cand != pre[j][row]
                row, cand = row[keep], cand[keep]
            for j, adjacent in checks:
                touches += len(cand)
                keep = member(keys, pre[j][row], cand, n) == adjacent
                row, cand = row[keep], cand[keep]
            if i < last:
                total += level([c[row] for c in pre] + [cand], i + 1)
            elif reuse:
                # The leaf's set is each row's surviving candidates.
                t = np.bincount(row, minlength=hi - lo)
                total += int((t * (t - 1)).sum()) // 2
            else:
                total += len(cand)
        return total

    return level(cols, len(cols)), touches


# -- per-device workers: (graph, task slice) -> (cnt, ops) ----------------

def _batch_worker(plan: SearchPlan, step: int, graph, tasks):
    indptr, keys = graph
    return batch_count(plan, indptr, keys, tasks, step)


def _vertex_worker(kernel_src: str, backend: str, graph, tasks):
    indptr, indices = graph
    ns: dict = {}
    exec(compile(kernel_src, "<kernel>", "exec"), ns)
    kernel = ns["kernel"]
    ops = BACKENDS[backend]
    ctr = Counter()
    total = 0
    for v0 in tasks.tolist():
        total += kernel(v0, indptr, indices, ops, ctr)
    return total, ctr.ops


#: One kernel launch: ``(graph, tasks, worker)``; see ``run_slices``.
Launch = tuple[object, np.ndarray, Callable]


def run_slices(spark: SparkSession, launches: list[Launch]) -> list[tuple[int, ...]]:
    """Run a cell's kernel launches as one Spark job; return, per launch,
    the element-wise sum of its devices' int64 vectors.

    One Spark task is one GPU. Partition p of ``P = defaultParallelism``
    runs every launch in list order, back to back as a GPU launches its
    kernels with no host round trip between them: ``worker(graph, slice)``
    on contiguous slice p of ``ceil(m/P)`` of the launch's already
    scheduled ``tasks``, returning one vector (a tuple of counts or a count
    table). Graphs and task arrays are broadcast once, with plain pickle,
    so a graph object shared by several launches is stored once; workers
    travel in the job's closure. The job is a plain RDD job, not a
    DataFrame: it is no relational operator, so there is no task frame, no
    Arrow encoding and no shuffle stage, and the P per-device lists are
    collected and summed on the driver.
    """
    sc = spark.sparkContext
    P = sc.defaultParallelism
    sizes = [-(-len(tasks) // P) for _, tasks, _ in launches]
    workers = [worker for _, _, worker in launches]
    bc = sc.broadcast([(graph, tasks) for graph, tasks, _ in launches])

    def device(p: int, _) -> Iterator[list[np.ndarray]]:
        yield [
            np.asarray(worker(graph, tasks[p * size : (p + 1) * size]), dtype=np.int64)
            for (graph, tasks), size, worker in zip(bc.value, sizes, workers)
        ]

    try:
        rows = sc.parallelize(range(P), P).mapPartitionsWithIndex(device).collect()
    finally:
        bc.unpersist()
    return [tuple(np.sum(vecs, axis=0).tolist()) for vecs in zip(*rows)]


class DFSEngine:
    """Pattern counting/listing via generated DFS kernels on Spark."""

    def __init__(self, config: DFSConfig | None = None):
        self.cfg = config or DFSConfig()
        self._gpu = self.cfg.setops == "batched"
        self.last_ops = 0  # measured set-op work of the last run

    @property
    def budget(self) -> int:
        """The device budget ``count`` charges unless given a ``meter``:
        the GPU's for G2Miner, the host's for the CPU systems."""
        return memmod.GPU_MEM_BYTES if self._gpu else memmod.CPU_MEM_BYTES

    # -- public API (the count()/list() of Listing 1) --------------------

    def count(
        self,
        spark: SparkSession,
        csr: CSRGraph,
        pattern: Pattern,
        *,
        induced: bool = False,
        meter: memmod.MemoryMeter | None = None,
    ) -> int:
        """Count matches of ``pattern`` in the data graph: the one-pattern
        case of ``count_many``.

        ``induced=True`` counts vertex-induced matches (k-MC semantics),
        else edge-induced/monomorphism matches up to automorphism
        (TC/k-CL/SL semantics).
        """
        return self.count_many(spark, csr, [pattern], induced=induced, meter=meter)[0]

    def count_many(
        self,
        spark: SparkSession,
        csr: CSRGraph,
        patterns: list[Pattern],
        *,
        induced: bool = False,
        meter: memmod.MemoryMeter | None = None,
    ) -> list[int]:
        """Count each pattern's matches with one kernel per pattern, all
        launched in one Spark job (``run_slices``). ``last_ops`` is the
        set-op work summed over the kernels."""
        out = run_slices(spark, self.launches(csr, patterns, induced=induced, meter=meter))
        self.last_ops = sum(ops for _, ops in out)
        return [cnt for cnt, _ in out]

    def launches(
        self,
        csr: CSRGraph,
        patterns: list[Pattern],
        *,
        induced: bool = False,
        meter: memmod.MemoryMeter | None = None,
    ) -> list[Launch]:
        """Plan one kernel launch per pattern; each worker returns
        ``(count, ops)``.

        The device runs the kernels one after another, so each is planned
        on the ledger alone, in that order: its graph, its tasks and its
        buffers are charged in one ``memory.charged`` scope, released
        before the next. The peak and any OoM are those of running the
        patterns one at a time. A graph that several kernels search is
        built once and, since pickle stores an array once however many
        launches hold it, broadcast once.
        """
        out = []
        for pattern in patterns:
            g, plan = self._graph_and_plan(csr, pattern, induced)
            with memmod.charged(meter, self.budget) as m:
                m.alloc("csr", g.nbytes())
                if self._gpu:
                    tasks = self._edge_tasks(g, plan)
                    # Input-aware Omega management (SS5.1 + SS7.2): when the
                    # symmetry order does not bound v1 by v0 the edgelist
                    # cannot be reduced, and a full Omega may not fit the
                    # device budget next to G. The paper's escape hatch is
                    # the vertex-parallel mode, "in which case Omega is not
                    # generated to save memory": the same kernel on root tasks.
                    if m.resident + tasks.nbytes > m.budget:
                        tasks = np.arange(g.n, dtype=np.int64)
                    m.alloc("tasks", tasks.nbytes)
                    # The batched kernel's expansion step: candidates of k+1 words.
                    worker = partial(_batch_worker, plan, buffer_step(m, plan.k + 1))
                else:
                    tasks = np.arange(g.n, dtype=np.int64)
                    kernel_src = codegen.kernel_source(plan, "vertex")
                    # Adaptive buffering (opt K): X buffers of Delta words per
                    # concurrent warp (= partition here).
                    m.alloc("tasks", tasks.nbytes)
                    m.alloc(
                        "buffers",
                        plan.num_buffers() * g.max_degree * 8 * DFSConfig.num_partitions,
                    )
                    worker = partial(_vertex_worker, kernel_src, self.cfg.setops)
                # G2Miner's keys replace indices: the same bytes as the
                # "csr" charge.
                graph = (g.indptr, g.edge_keys() if self._gpu else g.indices)
                out.append((graph, self._schedule(tasks), worker))
        return out

    # -- internals -------------------------------------------------------

    def _graph_and_plan(
        self, csr: CSRGraph, pattern: Pattern, induced: bool
    ) -> tuple[CSRGraph, SearchPlan]:
        """The data graph and search plan ``count`` searches. G2Miner runs
        cliques on the oriented graph with ``oriented_clique_plan``: for
        cliques, vertex- and edge-induced matches coincide (SS2.1), so
        orientation applies regardless of ``induced``."""
        if self._gpu and pattern.is_clique():
            return csr.orient(), oriented_clique_plan(pattern.k)
        return csr, build_plan(pattern, induced=induced)

    @staticmethod
    def _edge_tasks(g: CSRGraph, plan: SearchPlan) -> np.ndarray:
        """Task edgelist Omega, reduced (opt J) to the edges with v0 < v1
        when level 1 is bounded below by v0; the symmetry order has no
        other bound on (v0, v1). An oriented graph's DAG edges already are
        a reduced list."""
        return g.edge_tasks("lt" if plan.first_edge_reduced() else "all")

    def _schedule(self, tasks: np.ndarray) -> np.ndarray:
        """G2Miner applies the chunked round-robin permutation (SS7.1
        policy 3) so contiguous partitions get interleaved (balanced)
        work; the CPU systems keep natural order with static partitioning
        (the coarse-grain load imbalance of SS5.1(2))."""
        if not self._gpu or len(tasks) == 0:
            return tasks
        perm = chunked_round_robin_order(len(tasks), DFSConfig.num_partitions, chunk=CHUNK)
        return tasks[perm]

    def per_task_costs(
        self, csr: CSRGraph, pattern: Pattern, *, induced: bool = False
    ) -> np.ndarray:
        """Measured work of every Omega task (candidate checks + 1) in the
        batched kernel ``count`` runs, one task at a time on the driver:
        the input of the multi-GPU scheduling simulation (Fig 9/10
        substance). The costs sum to ``last_ops`` of a ``count`` on Omega
        plus one per task."""
        g, plan = self._graph_and_plan(csr, pattern, induced)
        tasks = self._edge_tasks(g, plan)
        keys = g.edge_keys()
        return np.array(
            [batch_count(plan, g.indptr, keys, tasks[t : t + 1], MAX_STEP)[1] + 1
             for t in range(len(tasks))],
            dtype=np.int64,
        )
