"""Shared runner for the per-table spark-submit jobs.

Each jobs/tableN_*.py is ``python jobs/tableN_*.py [--timeout S] [--systems
A,B] [--graphs X,Y]`` (or via spark-submit); it runs that table's cells and
prints measured-vs-paper rows. The pytest benchmarks reuse the same cell
lists; these entrypoints exist so a table can be regenerated standalone.
"""
from __future__ import annotations

import argparse
import os
import sys


def make_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 16g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def run_table_job(table_no: int) -> None:
    from repro.harness import (
        DEFAULT_TIMEOUT_S, TABLES, print_side_by_side, run_table, table_cells,
    )

    ap = argparse.ArgumentParser()
    ap.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S)
    ap.add_argument("--systems", type=str, default="")
    ap.add_argument("--graphs", type=str, default="")
    args = ap.parse_args()

    paper_tbl, title, _ = TABLES[table_no]
    cells = table_cells(table_no)
    if args.systems:
        keep = set(args.systems.split(","))
        cells = [c for c in cells if c[0] in keep]
    if args.graphs:
        keep = set(args.graphs.split(","))
        cells = [c for c in cells if c[2] in keep]

    spark = make_spark()
    try:
        print(f"== Table {table_no}: {title} ==", flush=True)
        df = run_table(spark, cells, timeout_s=args.timeout)
        print_side_by_side(cells, df, paper_tbl)
    finally:
        spark.stop()
    sys.stdout.flush()
