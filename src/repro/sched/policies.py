"""Multi-GPU task scheduling policies and makespan simulation (SS7.1).

The paper divides the task edgelist Omega among n GPUs and compares three
policies: even-split (policy 1), round-robin (policy 2), and chunked
round-robin (policy 3, c = alpha * warps, the generalisation of both).
We have no GPUs; what the policies actually decide — *which tasks land on
which device* — is hardware-independent, so we reproduce the experiment by
assigning measured per-task costs (the batched kernel's candidate checks
per task, ``DFSEngine.per_task_costs``) to n virtual GPUs and computing
each GPU's busy time and the makespan. Chunked round-robin scales ~linearly
and even-split trails it on a skewed graph, because contiguous slices of
the task list carry unequal work.
"""
from __future__ import annotations

import numpy as np

POLICIES = ("even_split", "round_robin", "chunked_rr")

#: Tasks per chunk of the chunked round-robin policy (policy 3's c): the
#: engine's task order and the Fig 9/10 simulation both use it.
CHUNK = 32


def assign(m: int, n_gpus: int, policy: str, *, chunk: int = CHUNK) -> np.ndarray:
    """Return bin id (0..n_gpus-1) for each of ``m`` tasks under ``policy``.

    - ``even_split``: n contiguous ranges of m/n tasks (policy 1).
    - ``round_robin``: task j -> j mod n (policy 2, c = 1).
    - ``chunked_rr``: chunks of ``chunk`` tasks round-robined (policy 3);
      with chunk = ceil(m/n) it degenerates to even-split, with chunk = 1
      to round-robin (the generalisation property, tested).
    """
    if n_gpus < 1:
        raise ValueError("need n_gpus >= 1")
    j = np.arange(m, dtype=np.int64)
    if policy == "even_split":
        per = -(-m // n_gpus) if m else 1
        return np.minimum(j // per, n_gpus - 1)
    if policy == "round_robin":
        return j % n_gpus
    if policy == "chunked_rr":
        if chunk < 1:
            raise ValueError("chunk >= 1")
        return (j // chunk) % n_gpus
    raise ValueError(f"unknown policy {policy!r}")


def chunked_round_robin_order(m: int, n_bins: int, *, chunk: int = CHUNK) -> np.ndarray:
    """Permutation that gathers chunked-RR bins into contiguous runs, so a
    task array reordered by it maps onto contiguous Spark partitions with
    balanced work. Used by the engines' partition scheduling."""
    bins = assign(m, n_bins, "chunked_rr", chunk=chunk)
    return np.argsort(bins, kind="stable")


def per_gpu_time(costs: np.ndarray, bins: np.ndarray, n_gpus: int) -> np.ndarray:
    """Busy time (sum of task costs) of each virtual GPU."""
    out = np.zeros(n_gpus, dtype=np.float64)
    np.add.at(out, bins, costs.astype(np.float64))
    return out


def simulate(costs: np.ndarray, n_gpus: int, policy: str, *, chunk: int = CHUNK) -> dict:
    """Simulate one multi-GPU run: per-GPU busy times, makespan, and the
    speedup vs the same policy on 1 GPU (= total work)."""
    bins = assign(len(costs), n_gpus, policy, chunk=chunk)
    times = per_gpu_time(costs, bins, n_gpus)
    total = float(costs.sum())
    makespan = float(times.max(initial=0.0))
    return {
        "per_gpu": times,
        "makespan": makespan,
        "speedup": (total / makespan) if makespan else float(n_gpus),
        "imbalance": (makespan * n_gpus / total) if total else 1.0,
    }
