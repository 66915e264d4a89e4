"""Closed-loop benchmark over ``repro.harness.run_cell``.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 32 --trace 0

Runs one workload (see ``workloads.py``) on one local Spark session
(``local[nproc]``) from one process, with one client and no extra
threads: set-up, one warm-up pass, then timed passes that fit in
``--seconds``. Every answer is checked against ``expected.json``; a wrong
answer makes the run exit with code 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes a
separate traced run: untraced passes (the per-query latencies and the
baseline for the tracing overhead) alternate with traced passes, which
give the per-layer metrics; it reports no end-to-end metric.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is a
JSON report with the machine facts, per-query latencies, pass-time
quartiles and every failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for Spark, the JVM and Python workers, inside the checkout.
WORK = ROOT / ".bench_work"

#: Set-up repetitions of the graph build; ``setup_s`` uses their median.
GRAPH_BUILDS = 3
DRIVER_MEMORY = "2g"
#: As in ``jobs/_run.py``, the spark-submit entry point for the tables.
SHUFFLE_PARTITIONS = 32


def parse_args(argv=None):
    from workloads import ALL

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment() -> None:
    """Point Spark, its JVM and its Python workers at ``src`` and at
    scratch directories inside the checkout. Must run before pyspark
    starts the JVM, which reads these at launch."""
    for sub in ("tmp", "spark-local", "warehouse"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{os.cpu_count()}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={WORK / 'spark-local'}",
        f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'}",
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={WORK / 'tmp'}",
        "pyspark-shell",
    ])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM pyspark launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        proc.wait(timeout=60)


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(spark) -> dict:
    import numpy
    import pyspark

    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "default_parallelism": sc.defaultParallelism,
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "python": sys.version.split()[0],
        "spark": pyspark.__version__,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


class Loop:
    """One closed-loop client: passes over a workload's queries, each
    answer checked as it arrives."""

    def __init__(self, workload, seed: int, expected: dict):
        self.workload = workload
        self.rng = random.Random(seed)
        self.expected = expected
        self.attempted = 0
        self.failures: list[dict] = []

    def run_pass(self, label: str, run_query) -> tuple[float, dict[str, float]]:
        """Run every query once in seeded order; return the pass wall time
        and each query's latency."""
        from workloads import check

        order = self.rng.sample(self.workload.queries, len(self.workload.queries))
        outcomes, latency = [], {}
        t0 = time.perf_counter()
        for q in order:
            tq = time.perf_counter()
            try:
                status, value = run_query(q)
            except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
                traceback.print_exc()
                status, value = "error", None
            latency[q.key] = time.perf_counter() - tq
            outcomes.append((q, status, value))
        wall = time.perf_counter() - t0
        for q, status, value in outcomes:
            self.attempted += 1
            why = check(q, status, value, self.expected)
            if why is not None:
                self.failures.append({"pass": label, "query": q.key, "why": why})
        return wall, latency

    def run_for(self, seconds: float, *runners):
        """Closed loop: start another pass while, at the median pass time so
        far, it would end within ``seconds``. Passes cycle through
        ``runners`` (label, run_query); each runs at least one pass.
        Returns the pass walls and query latencies of each runner."""
        walls = {label: [] for label, _ in runners}
        latencies = {label: [] for label, _ in runners}
        done: list[float] = []
        t0 = time.perf_counter()
        while len(done) < len(runners) or (
            time.perf_counter() - t0 + statistics.median(done) <= seconds
        ):
            label, run_query = runners[len(done) % len(runners)]
            wall, lat = self.run_pass(f"{label}{len(walls[label])}", run_query)
            walls[label].append(wall)
            latencies[label].append(lat)
            done.append(wall)
        return walls, latencies


def untraced_query(spark):
    from repro.harness import run_cell

    def run(q):
        r = run_cell(spark, q.system, q.workload, q.graph)
        return r.status, r.value

    return run


def quartiles(xs: list[float]) -> dict:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def per_query_medians(latencies: list[dict[str, float]]) -> dict[str, float]:
    keys = latencies[0]
    return {k: statistics.median(lat[k] for lat in latencies) for k in keys}


def end_to_end(setup_s: float, walls, latencies) -> dict:
    medians = per_query_medians(latencies)
    geomean = math.exp(statistics.fmean(math.log(v) for v in medians.values()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(walls), "unit": "s"},
        "query_geomean_s": {"value": geomean, "unit": "s"},
        "driver_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(spark, loop: Loop, tracer, walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, plus the driver-side
    kernel replay and the FSM oracle check."""
    import tracing

    n = len(walls)
    replays = [tracing.replay_kernel(rec) for rec in tracer.kernels.values()]
    # Each distinct kernel call is replayed once, so replay totals are per pass.
    setops_s = sum(r["setops_s"] for r in replays)
    kernel_s = sum(r["kernel_s"] for r in replays)
    for key, (adj, labels, sigma, out) in tracer.fsm_tables.items():
        why = tracing.fsm_oracle_mismatch(spark, adj, labels, sigma, out)
        if why is not None:
            loop.failures.append({"pass": "fsm-oracle", "query": key, "why": why})
    span = tracer.spans
    c = tracer.counts
    m = {
        "timeout.watchdog.s": (c["timeout.watchdog.s"] / n, "s"),
        "graph.gen.calls": (span["graph.gen"][0] / n, "count"),
        "graph.gen.s": (span["graph.gen"][1] / n, "s"),
        "graph.csr.build.s": (span["graph.csr.build"][1] / n, "s"),
        "graph.csr.orient.calls": (span["graph.csr.orient"][0] / n, "count"),
        "graph.csr.orient.s": (span["graph.csr.orient"][1] / n, "s"),
        "graph.csr.edge_tasks.rows": (c["graph.csr.edge_tasks.rows"] / n, "count"),
        "graph.csr.edge_tasks.s": (span["graph.csr.edge_tasks"][1] / n, "s"),
        "core.plan.build_plan.calls": (span["core.plan.build_plan"][0] / n, "count"),
        "core.plan.build_plan.s": (span["core.plan.build_plan"][1] / n, "s"),
        "core.codegen.kernel_source.s": (span["core.codegen.kernel_source"][1] / n, "s"),
        "core.codegen.kernel.replay_s": (kernel_s, "s"),
        "core.setops.touches": (c["core.setops.touches"] / n, "count"),
        "core.setops.replay.calls": (sum(r["calls"] for r in replays), "count"),
        "core.setops.replay.s": (setops_s, "s"),
        "core.setops.replay_share": (setops_s / kernel_s if kernel_s else 0.0, "ratio"),
        "core.engine_dfs.count.calls": (span["core.engine_dfs.count"][0] / n, "count"),
        "core.engine_dfs.count.self_s": (span["core.engine_dfs.count"][2] / n, "s"),
        "core.engine_bfs.count.calls": (span["core.engine_bfs.count"][0] / n, "count"),
        "core.engine_bfs.count.self_s": (span["core.engine_bfs.count"][2] / n, "s"),
        "core.counting.edge_triangle_stats.s":
            (span["core.counting.edge_triangle_stats"][1] / n, "s"),
        "core.motifs.count_motifs.s": (span["core.motifs.count_motifs"][1] / n, "s"),
        "core.fsm.fsm3.s": (span["core.fsm.fsm3"][1] / n, "s"),
        "core.fsm.frequent_patterns": (c["core.fsm.frequent_patterns"] / n, "count"),
        "spark.jobs": (c["spark.jobs"] / n, "count"),
        "spark.stages": (c["spark.stages"] / n, "count"),
        "spark.tasks": (c["spark.tasks"] / n, "count"),
        "spark.failed_tasks": (c["spark.failed_tasks"] / n, "count"),
        "memory.ledger_peak_bytes": (c["memory.ledger_peak_bytes"], "bytes"),
        "memory.oom": (c["memory.oom"] / n, "count"),
        "trace.overhead_share": (
            statistics.median(walls) / statistics.median(untraced_walls) - 1.0, "ratio"
        ),
    }
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
    detail = {"traced_passes": quartiles(walls), "replays": replays}
    return metrics, detail


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "harness.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    configure_environment()

    from workloads import ALL, load_expected

    workload = ALL[args.workload]
    expected = load_expected()
    spark = start_spark()
    try:
        from repro.harness import get_csr

        spark_start_s = time.perf_counter() - t_start
        builds = []
        for _ in range(GRAPH_BUILDS):
            get_csr.cache_clear()
            t0 = time.perf_counter()
            for g in workload.csr_graphs:
                get_csr(g)
            builds.append(time.perf_counter() - t0)
        loop = Loop(workload, args.seed, expected)
        run_untraced = untraced_query(spark)
        warmup_s, _ = loop.run_pass("warmup", run_untraced)
        setup_s = spark_start_s + statistics.median(builds) + warmup_s

        report = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "machine": machine_facts(spark),
            "setup": {"spark_start_s": spark_start_s, "graph_build_s": builds,
                      "warmup_pass_s": warmup_s},
        }
        if args.trace:
            import tracing
            from repro.harness import DEFAULT_TIMEOUT_S

            tracer = tracing.Tracer()
            walls, lats = loop.run_for(args.seconds, ("untraced", run_untraced), (
                "traced",
                lambda q: tracing.traced_cell(spark, q, tracer, DEFAULT_TIMEOUT_S),
            ))
            metrics, detail = per_layer(
                spark, loop, tracer, walls["traced"], walls["untraced"]
            )
            report.update(detail)
            walls, lats = walls["untraced"], lats["untraced"]
        else:
            walls, lats = loop.run_for(args.seconds, ("timed", run_untraced))
            walls, lats = walls["timed"], lats["timed"]
            metrics = end_to_end(setup_s, walls, lats)
        report["pass_s"] = quartiles(walls)
        report["passes"] = [{"wall_s": w, "latency_s": lat} for w, lat in zip(walls, lats)]
        medians = per_query_medians(lats)
        report["harness.run_cell"] = {
            f"harness.run_cell.{q.metric}.s": medians[q.key] for q in workload.queries
        }
    finally:
        stop_spark(spark)

    failed = len(loop.failures)
    report["failed_share"] = {"value": failed / loop.attempted, "unit": "ratio"}
    report["failures"] = loop.failures
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
