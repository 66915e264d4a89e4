"""Entrypoint for the multi-GPU scaling experiment (the substance of the
paper's Figs 8-10, reported as a table).

Measures the work of every task of G2Miner's triangle-counting run on a
skewed graph (``DFSEngine.per_task_costs``: the batched kernel on the
oriented graph, one edge task at a time) and simulates 1-8 virtual GPUs
under even-split vs chunked round-robin, printing speedups and per-GPU
shares of work. The measurement runs on the driver, so no Spark session is
started.
"""
import argparse


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--graph", default="Tw2")
    args = ap.parse_args()

    from repro.core.engine_dfs import DFSEngine
    from repro.core.pattern import clique
    from repro.harness import get_csr
    from repro.sched.policies import simulate

    csr = get_csr(args.graph)
    costs = DFSEngine().per_task_costs(csr, clique(3))
    print(f"== Multi-GPU scaling on {args.graph} "
          f"({len(costs)} edge tasks, measured work) ==")
    print(f"{'n':>2s} {'even-split':>12s} {'chunked-rr':>12s}")
    for n in [1, 2, 3, 4, 8]:
        es = simulate(costs, n, "even_split")
        cr = simulate(costs, n, "chunked_rr")
        print(f"{n:2d} {es['speedup']:12.2f} {cr['speedup']:12.2f}")
    es = simulate(costs, 4, "even_split")["per_gpu"]
    cr = simulate(costs, 4, "chunked_rr")["per_gpu"]
    tot = costs.sum()
    print("per-GPU share of work (4 GPUs), even-split:",
          [f"{t / tot:.2f}" for t in es])
    print("per-GPU share of work (4 GPUs), chunked-rr:",
          [f"{t / tot:.2f}" for t in cr])


if __name__ == "__main__":
    main()
