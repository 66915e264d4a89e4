"""Tests of the benchmark itself: its expected outcomes and its gate.

    python -m pytest perfbench -q

The tiny-graph versions of the benchmark queries are recomputed here with
the DuckDB oracle; the bench-size values cannot be (the oracle query runs
for minutes or fills the disk there), so those rest on agreement between
independently implemented systems, recorded in ``expected.json``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import duckdb
import pytest

from repro.core import codegen, fsm as fsmmod
from repro.core.pattern import clique, motifs
from repro.core.plan import build_plan
from repro.graph.gen import adj_pdf, labels_pdf
from repro.harness import sl_pattern

from workloads import ALL, TINY, WORKLOADS, Query, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _count(con, pattern, induced: bool) -> int:
    return con.execute(codegen.pattern_sql(build_plan(pattern, induced=induced))).fetchone()[0]


def oracle_value(q: Query):
    """The DuckDB oracle's answer for a tiny-graph query."""
    kind, graph = q.workload[0], q.graph
    con = duckdb.connect()
    try:
        con.register("adj", adj_pdf(graph))
        if kind == "tc":
            return _count(con, clique(3), False)
        if kind == "kcl":
            return _count(con, clique(q.workload[1]), False)
        if kind in ("sl", "counting") and q.workload[1] == "diamond":
            return _count(con, sl_pattern("diamond"), False)
        if kind == "mc":
            return {p.name: _count(con, p, True) for p in sorted(motifs(q.workload[1]),
                                                                  key=lambda p: p.name)}
        if kind == "fsm":
            con.register("labels", labels_pdf(graph))
            rows = 0
            for k in ("edge", "wedge", "tri"):
                sup = con.execute(fsmmod.support_sql(k)).fetchdf()
                rows += int((sup["support"] >= q.workload[1]).sum())
            return rows
    finally:
        con.close()
    raise ValueError(q.key)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_query_has_an_expected_outcome():
    expected = load_expected()
    for w in ALL.values():
        for q in w.queries:
            assert q.key in expected, q.key


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("q", TINY.queries, ids=lambda q: q.key)
def test_tiny_expected_matches_oracle(q):
    assert load_expected()[q.key]["value"] == oracle_value(q)


def test_expected_values_must_agree(tmp_path):
    exp = load_expected()
    exp["PBE/tc/tiny"] = dict(exp["PBE/tc/tiny"], value=exp["PBE/tc/tiny"]["value"] + 1)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(exp))
    with pytest.raises(ValueError, match="disagree on tc/tiny"):
        load_expected(path)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_run_is_correct_and_reports_every_metric():
    proc = run_bench(ROOT, "--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:]
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2 * len(TINY.queries)
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_traced_run_reports_every_layer_metric():
    proc = run_bench(ROOT, "--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:]
    res = _result(proc)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert res["metrics"]["core.setops.replay.calls"]["value"] > 0
    assert res["metrics"]["spark.jobs"]["value"] > 0


def _copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_expected_value_fails_the_run(tmp_path):
    _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    exp = load_expected()
    exp["G2Miner/sl/diamond/tiny"]["value"] += 1
    (tmp_path / "perfbench" / "expected.json").write_text(json.dumps(exp))
    proc = run_bench(tmp_path, "--workload", "tiny", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 1
    res = _result(proc)
    assert not res["correct"] and res["failed"] >= 2  # warm-up and timed pass


def test_fails_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = run_bench(tmp_path, "--workload", "kernels", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
