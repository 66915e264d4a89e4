"""Per-layer tracing for the benchmark's traced run.

Spans are taken from the benchmark's side only: ``Tracer.patched`` wraps
the public functions of each ``repro`` layer on the driver for the
duration of a traced pass and restores them afterwards. Nothing in
``src/`` changes. ``mapInPandas`` workers are separate Python processes
that a driver-side wrapper cannot reach, so the set-op share is measured
by replaying each DFS query's generated kernel on the driver
(``replay_kernel``) with a timing proxy for the kernel's ``ops`` argument.

``traced_cell`` calls ``repro.harness.run_cell`` itself. ``run_cell``
binds ``run_with_timeout``, ``build_csr`` and ``count_motifs`` by name, so
those are wrapped in ``repro.harness``'s namespace; the wrapped watchdog
records the Spark job group it set and the body's wall time, so the
Spark job, stage and task counts of each query can be taken from the
status tracker.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro import harness, memory as memmod
from repro.core import codegen, counting, engine_bfs, engine_dfs, fsm as fsmmod
from repro.core.setops import BACKENDS, Counter
from repro.graph import csr as csrmod, gen

#: Most tasks replayed per DFS query; tasks are taken at an even stride.
REPLAY_TASKS = 2000

_SET_OPS = ("intersect", "difference", "bound_upper", "bound_lower", "remove")


class Tracer:
    """Aggregated spans (calls, total and self seconds) and counts."""

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.kernels: dict[str, dict] = {}  # query key -> replay inputs
        self.fsm_tables: dict[str, tuple] = {}  # query key -> (adj, labels, sigma, out)
        self._child: list[float] = []
        self._dfs: dict | None = None  # the DFSEngine.count call in progress
        self.query_key = ""
        self.query_calls = 0  # DFSEngine.count calls so far in this query
        self.group: str | None = None  # Spark job group of the query's watchdog
        self.body_s: float | None = None  # wall time of the query's body

    @contextmanager
    def span(self, name: str):
        """Time a block; its time also counts as child time of the enclosing span."""
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = self._child.pop()
            s = self.spans[name]
            s[0] += 1
            s[1] += dt
            s[2] += dt - child
            if self._child:
                self._child[-1] += dt

    def _wrap(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def patched(self):
        """Wrap each layer's public functions for the duration of the block."""

        def on_orient(args, kwargs, out):
            if self._dfs is not None:
                self._dfs["graph"] = out

        def on_edge_tasks(args, kwargs, out):
            self.counts["graph.csr.edge_tasks.rows"] += len(out)
            if self._dfs is not None:
                self._dfs["tasks"] = out

        def on_kernel_source(args, kwargs, out):
            if self._dfs is not None:
                self._dfs["plan"], self._dfs["mode"] = args[0], args[1]
                self._dfs["reduced"] = kwargs.get("assume_reduced", True)

        def on_fsm3(args, kwargs, out):
            self.counts["core.fsm.frequent_patterns"] += len(out)
            spark, adj, labels, sigma = args[:4]
            self.fsm_tables.setdefault(self.query_key, (adj, labels, sigma, out))

        dfs_count = engine_dfs.DFSEngine.count
        tracer = self

        def traced_dfs_count(engine, spark, csr, pattern, **kw):
            tracer._dfs = {"graph": csr, "tasks": None, "plan": None,
                           "setops": engine.cfg.setops}
            try:
                with tracer.span("core.engine_dfs.count"):
                    out = dfs_count(engine, spark, csr, pattern, **kw)
                tracer.counts["core.setops.touches"] += engine.last_ops
                rec = tracer._dfs
                if rec["plan"] is not None:
                    key = f"{tracer.query_key}#{tracer.query_calls}"
                    tracer.kernels.setdefault(key, rec)
                tracer.query_calls += 1
                return out
            finally:
                tracer._dfs = None

        run_with_timeout = harness.run_with_timeout

        def traced_run_with_timeout(spark, fn, timeout_s):
            sc = spark.sparkContext

            def body():
                tracer.group = sc.getLocalProperty("spark.jobGroup.id")
                t0 = time.perf_counter()
                try:
                    return fn()
                finally:
                    tracer.body_s = time.perf_counter() - t0

            return run_with_timeout(spark, body, timeout_s)

        alloc = memmod.MemoryMeter.alloc

        def traced_alloc(meter, what, nbytes):
            try:
                alloc(meter, what, nbytes)
            finally:
                peak = tracer.counts["memory.ledger_peak_bytes"]
                tracer.counts["memory.ledger_peak_bytes"] = max(peak, meter.peak)

        patches = [
            (harness, "run_with_timeout", traced_run_with_timeout),
            (gen, "generate_graph", self._wrap(gen.generate_graph, "graph.gen")),
            (csrmod, "build_csr", self._wrap(csrmod.build_csr, "graph.csr.build")),
            (harness, "build_csr", self._wrap(harness.build_csr, "graph.csr.build")),
            (csrmod.CSRGraph, "orient",
             self._wrap(csrmod.CSRGraph.orient, "graph.csr.orient", on_orient)),
            (csrmod.CSRGraph, "edge_tasks",
             self._wrap(csrmod.CSRGraph.edge_tasks, "graph.csr.edge_tasks", on_edge_tasks)),
            (engine_dfs, "build_plan", self._wrap(engine_dfs.build_plan, "core.plan.build_plan")),
            (engine_bfs, "build_plan", self._wrap(engine_bfs.build_plan, "core.plan.build_plan")),
            (codegen, "kernel_source",
             self._wrap(codegen.kernel_source, "core.codegen.kernel_source", on_kernel_source)),
            (engine_dfs.DFSEngine, "count", traced_dfs_count),
            (engine_bfs.BFSEngine, "count",
             self._wrap(engine_bfs.BFSEngine.count, "core.engine_bfs.count")),
            (counting, "edge_triangle_stats",
             self._wrap(counting.edge_triangle_stats, "core.counting.edge_triangle_stats")),
            (harness, "count_motifs",
             self._wrap(harness.count_motifs, "core.motifs.count_motifs")),
            (fsmmod, "fsm3", self._wrap(fsmmod.fsm3, "core.fsm.fsm3", on_fsm3)),
            (memmod.MemoryMeter, "alloc", traced_alloc),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def traced_cell(spark, q, tracer: Tracer, timeout_s: float):
    """Run ``q`` through ``repro.harness.run_cell`` under spans; return
    (status, value). The wrapped watchdog records the query's Spark job
    group and body time, so Spark counts and watchdog time can be read."""
    tracer.query_key, tracer.query_calls = q.key, 0
    tracer.group, tracer.body_s = None, None
    t0 = time.perf_counter()
    with tracer.patched():
        r = harness.run_cell(spark, q.system, q.workload, q.graph, timeout_s=timeout_s)
    wall = time.perf_counter() - t0
    if r.status == "OoM":
        tracer.counts["memory.oom"] += 1
    if tracer.body_s is not None:
        tracer.counts["timeout.watchdog.s"] += wall - tracer.body_s
    if tracer.group:
        _count_spark(spark.sparkContext.statusTracker(), tracer.group, tracer)
    return r.status, r.value


def _count_spark(st, group: str, tracer: Tracer) -> None:
    for jid in st.getJobIdsForGroup(group):
        job = st.getJobInfo(jid)
        if job is None:
            continue
        tracer.counts["spark.jobs"] += 1
        for sid in job.stageIds:
            stage = st.getStageInfo(sid)
            if stage is None:
                continue
            tracer.counts["spark.stages"] += 1
            tracer.counts["spark.tasks"] += stage.numTasks
            tracer.counts["spark.failed_tasks"] += stage.numFailedTasks


class TimedSetOps:
    """Stand-in for a set-op backend that times and counts every call."""

    def __init__(self, backend):
        self.calls = 0
        self.seconds = 0.0
        for name in _SET_OPS:
            setattr(self, name, self._timed(getattr(backend, name)))

    def _timed(self, fn):
        def op(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            return out

        return op


def replay_kernel(rec: dict) -> dict[str, float]:
    """Replay a DFS query's generated kernel serially on the driver over an
    even sample of its task list; return set-op and kernel seconds."""
    g, plan, mode = rec["graph"], rec["plan"], rec["mode"]
    kernel = codegen.compile_kernel(plan, mode, assume_reduced=rec["reduced"])
    tasks = rec["tasks"] if mode == "edge" else np.arange(g.n, dtype=np.int64)
    stride = max(1, math.ceil(len(tasks) / REPLAY_TASKS))
    sample = tasks[::stride]
    ops = TimedSetOps(BACKENDS[rec["setops"]])
    ctr = Counter()
    indptr, indices = g.indptr, g.indices
    t0 = time.perf_counter()
    if mode == "edge":
        for v0, v1 in sample.tolist():
            kernel(v0, v1, indptr, indices, ops, ctr)
    else:
        for v0 in sample.tolist():
            kernel(v0, indptr, indices, ops, ctr)
    kernel_s = time.perf_counter() - t0
    return {"tasks": len(sample), "calls": ops.calls, "setops_s": ops.seconds,
            "kernel_s": kernel_s}


def fsm_oracle_mismatch(spark, adj, labels, sigma: int, out) -> str | None:
    """Compare a 3-FSM (pattern, support) table with ``fsm.support_sql``
    run on DuckDB over the same inputs; return the mismatch, if any."""
    from repro.oracle import assert_equivalent

    sql = (
        "WITH allsup AS ("
        + " UNION ALL ".join(
            f"SELECT * FROM ({fsmmod.support_sql(k)})" for k in ("edge", "wedge", "tri")
        )
        + f") SELECT pattern, support FROM allsup WHERE support >= {sigma}"
    )
    try:
        assert_equivalent(spark.createDataFrame(out), sql, adj=adj, labels=labels)
    except AssertionError as e:
        return f"3-FSM table differs from the DuckDB oracle: {e}"
    return None
