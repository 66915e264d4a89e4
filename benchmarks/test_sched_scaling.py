"""Multi-GPU scaling benchmark (the substance of the paper's Fig 9/10).

Measures real per-edge-task work on the skewed Tw2 graph with the
instrumented engine, then simulates 1-8 virtual GPUs under the paper's
scheduling policies. Recorded rows: speedup per (policy, n)."""
import pytest

from repro.core.engine_dfs import DFSEngine
from repro.core.pattern import clique
from repro.harness import get_csr
from repro.sched.policies import simulate


@pytest.fixture(scope="module")
def costs():
    return DFSEngine().per_task_costs(get_csr("Tw2"), clique(3))


@pytest.mark.parametrize("policy", ["even_split", "chunked_rr"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_scaling(benchmark, record, costs, policy, n):
    r = benchmark.pedantic(lambda: simulate(costs, n, policy), rounds=1, iterations=1)
    record(
        "sched_scaling",
        {"policy": policy, "n_gpus": n, "speedup": round(r["speedup"], 2),
         "imbalance": round(r["imbalance"], 3)},
    )
    if policy == "chunked_rr":
        # Fig 9's claim: chunked round-robin scales linearly.
        assert r["speedup"] > 0.85 * n
    assert r["makespan"] > 0
