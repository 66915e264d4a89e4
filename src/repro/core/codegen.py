"""Pattern-specific code generation (paper SS5).

G2Miner's code generator turns a search plan into pattern-specific CUDA
kernels. This port generates two artifacts from the same ``SearchPlan``:

1. **DFS kernels** — Python source for the nested-loop search program
   (Algorithm 1 shape: one loop per level, set-op calls against the
   primitive library, symmetry-breaking bounds, leaf counted with ``len``),
   written by one emitter in a single pass over the plan's levels and
   compiled with ``exec``. One kernel per pattern, exactly like one CUDA
   kernel per pattern, with a root vertex as the task: the CPU systems'
   vertex-parallel tasks. G2Miner itself runs the level-generic batched
   kernel of ``engine_dfs``, which needs no generated code. The generated
   source is kept on the function object (``kernel.__source__``) for
   inspection/tests.

2. **Pattern SQL** — a join-chain query over a symmetric adjacency table
   ``adj(src, dst)`` with NOT EXISTS anti-edges and symmetry predicates.
   The same text runs on Spark Catalyst (the BFS engines build the
   equivalent DataFrame chain) and on DuckDB (the correctness oracle), so
   every engine result is checked against an independently generated and
   independently executed query.
"""
from __future__ import annotations

from repro.core.plan import SearchPlan


def _emit_level(plan: SearchPlan, i: int, lines: list[str], ind: str,
                needed: set[int]) -> None:
    """Emit level ``i`` and, recursively, every deeper level.

    The candidate set starts as ``N{conn[i][0]}`` and each of the level's
    constraints is one set-op call on it: intersect with the other
    pattern neighbours, difference with the plan's ``anti``, the symmetry
    bounds (``bound_lower``: the plan's only kind of bound), then the
    identity exclusions. The leaf counts its set with ``len`` (the paper's
    counting at the leaf); any other level loops over it.
    """
    calls = [("intersect", f"N{j}") for j in plan.conn[i][1:]]
    calls += [("difference", f"N{j}") for j in plan.anti[i]]
    calls += [("bound_lower", f"v{j}") for j in plan.lower[i]]
    if plan.excl[i]:
        calls.append(("remove", "(" + ", ".join(f"v{j}" for j in plan.excl[i]) + ",)"))
    cur = f"N{plan.conn[i][0]}"
    for op, arg in calls:
        lines.append(f"{ind}S{i} = ops.{op}({cur}, {arg}, ctr)")
        cur = f"S{i}"
    if i == plan.k - 1:
        lines.append(f"{ind}total += len({cur})")
        return
    lines.append(f"{ind}for v{i} in {cur}:")
    ind += "    "
    if i in needed:
        lines.append(f"{ind}N{i} = indices[indptr[v{i}]:indptr[v{i}+1]]")
    _emit_level(plan, i + 1, lines, ind, needed)


def kernel_source(plan: SearchPlan, mode: str) -> str:
    """Generate the DFS kernel source for ``plan``.

    The task is a root vertex v0 and the kernel owns the v1 loop: the
    CPU systems' vertex-parallel tasks. ``mode`` must be ``'vertex'``;
    G2Miner's edge tasks run the batched kernel
    (``engine_dfs.batch_count``), which is not generated.
    """
    if mode != "vertex":
        raise ValueError(f"bad mode {mode!r}")
    k = plan.k
    # Positions whose neighbour list a deeper level reads.
    needed = {j for i in range(2, k) for j in plan.conn[i] + plan.anti[i]}
    lines = [
        "def kernel(v0, indptr, indices, ops, ctr):",
        "    total = 0",
        "    N0 = indices[indptr[v0]:indptr[v0+1]]",
    ]
    _emit_level(plan, 1, lines, "    ", needed)
    lines.append("    return total")
    return "\n".join(lines) + "\n"


def compile_kernel(plan: SearchPlan, mode: str, *, assume_reduced: bool = True):
    """Compile the generated source into a callable; the NVCC step.

    ``assume_reduced`` has no effect: it is accepted only because the
    benchmark's kernel replay (``perfbench/tracing.py``) still passes it.
    """
    src = kernel_source(plan, mode)
    ns: dict = {}
    exec(compile(src, f"<kernel:{plan.pattern.name or 'pattern'}:{mode}>", "exec"), ns)
    fn = ns["kernel"]
    fn.__source__ = src
    return fn


# -- SQL generation ------------------------------------------------------

def pattern_sql(plan: SearchPlan) -> str:
    """Generate the counting SQL for ``plan`` over a symmetric adjacency
    table ``adj(src, dst)``.

    The query introduces data vertices in matching order: v0, v1 come from
    the first adjacency row; each later level joins one adjacency row per
    pattern edge, adds NOT EXISTS per member of the plan's ``anti``, and
    exclusion predicates; then one ``v_j < v_i`` per symmetry bound.
    Returns one row ``cnt``.
    """
    k = plan.k
    if k < 2:
        raise ValueError("need k >= 2")
    v = {0: "e1.src", 1: "e1.dst"}
    joins = ["adj e1"]
    preds: list[str] = []
    for i in range(2, k):
        conn = plan.conn[i]
        a0 = f"e{i}_{conn[0]}"
        joins.append(f"adj {a0}")
        preds.append(f"{a0}.src = {v[conn[0]]}")
        v[i] = f"{a0}.dst"
        for j in conn[1:]:
            al = f"e{i}_{j}"
            joins.append(f"adj {al}")
            preds.append(f"{al}.src = {v[j]}")
            preds.append(f"{al}.dst = {v[i]}")
        for j in plan.anti[i]:
            preds.append(
                f"NOT EXISTS (SELECT 1 FROM adj x{i}_{j} "
                f"WHERE x{i}_{j}.src = {v[j]} AND x{i}_{j}.dst = {v[i]})"
            )
        for j in plan.excl[i]:
            preds.append(f"{v[i]} <> {v[j]}")
    for i in range(1, k):
        preds += [f"{v[j]} < {v[i]}" for j in plan.lower[i]]
    where = ("\nWHERE " + "\n  AND ".join(preds)) if preds else ""
    return (
        "SELECT COUNT(*) AS cnt\nFROM "
        + ",\n     ".join(joins)
        + where
    )
