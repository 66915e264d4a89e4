"""Code-generator tests: the generated kernel must count what DuckDB
counts on the generated SQL, for every pattern — the reproduction's
equivalent of validating NVCC kernel output.
"""
import duckdb
import numpy as np
import pytest

from repro.core import codegen
from repro.core.pattern import Pattern, clique, cycle, diamond, motifs, path
from repro.core.plan import build_plan
from repro.core.setops import BACKENDS, Counter
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from test_plan import ALL_PLANS

CASES = (
    [(p, False) for p in [clique(3), clique(4), clique(5), diamond(), cycle(4), path(4)]]
    + [(p, True) for p in motifs(3)]
    + [(p, True) for p in motifs(4)]
)
CASE_IDS = [f"{p.name}-{'vi' if ind else 'ei'}" for p, ind in CASES]


@pytest.fixture(scope="module")
def graph():
    e, _ = generate_graph("tiny")
    return build_csr(e)


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    con.register("adj", adj_pdf("tiny"))
    yield con
    con.close()


def run_kernel(plan, g, backend="numpy"):
    """The generated kernel run root by root over every vertex."""
    kernel = codegen.compile_kernel(plan, "vertex")
    ops = BACKENDS[backend]
    ctr = Counter()
    return sum(kernel(v0, g.indptr, g.indices, ops, ctr) for v0 in range(g.n))


@pytest.mark.parametrize("p,induced", CASES, ids=CASE_IDS)
def test_kernel_edge_matches_duckdb(graph, duck, p, induced):
    plan = build_plan(p, induced=induced)
    want = duck.execute(codegen.pattern_sql(plan)).fetchone()[0]
    assert run_kernel(plan, graph) == want


@pytest.mark.parametrize(
    "p,induced", [(clique(4), False), (diamond(), True), (cycle(4), False)],
    ids=["4cl", "diamond-vi", "c4"],
)
def test_python_backend_matches_numpy(graph, p, induced):
    plan = build_plan(p, induced=induced)
    assert run_kernel(plan, graph, "python") == run_kernel(plan, graph, "numpy")


def test_kernel_source_attached():
    plan = build_plan(diamond(), induced=False)
    k = codegen.compile_kernel(plan, "vertex")
    assert "def kernel(" in k.__source__
    assert "ops.intersect" in k.__source__


def test_kernel_source_leaf_counts_with_len():
    plan = build_plan(clique(4), induced=False)
    src = codegen.kernel_source(plan, "vertex")
    assert "total += len(" in src, "counting at the leaf (no innermost loop)"


def test_kernel_source_has_bounds_for_symmetry():
    plan = build_plan(clique(4), induced=False)
    src = codegen.kernel_source(plan, "vertex")
    assert "bound" in src, "symmetry order compiled into bound ops"


def test_bad_mode_rejected():
    plan = build_plan(clique(3), induced=False)
    for mode in ("edge", "cta"):
        with pytest.raises(ValueError):
            codegen.kernel_source(plan, mode)


def test_pattern_sql_shape():
    plan = build_plan(diamond(), induced=True)
    sql = codegen.pattern_sql(plan)
    assert sql.startswith("SELECT COUNT(*) AS cnt")
    assert "NOT EXISTS" in sql, "anti-edge for vertex-induced diamond"


def test_pattern_sql_non_induced_has_no_anti():
    plan = build_plan(diamond(), induced=False)
    assert "NOT EXISTS" not in codegen.pattern_sql(plan)


EDGE_PLANS = [(n, p) for n, p in ALL_PLANS if not n.endswith("-induced")]


@pytest.mark.parametrize("plan", [p for _, p in EDGE_PLANS], ids=[n for n, _ in EDGE_PLANS])
def test_edge_plans_emit_no_anti(plan):
    """An edge-induced plan lists no non-edge test, so neither generator
    emits one."""
    assert not any(plan.anti)
    assert "NOT EXISTS" not in codegen.pattern_sql(plan)
    assert "ops.difference(" not in codegen.kernel_source(plan, "vertex")


def test_pattern_sql_rejects_k1():
    plan = build_plan(Pattern(1, frozenset()), induced=False)
    with pytest.raises(ValueError):
        codegen.pattern_sql(plan)


@pytest.mark.parametrize("name", ["tiny_skew", "tiny_dense"])
def test_kernels_on_other_graphs(name):
    e, _ = generate_graph(name)
    g = build_csr(e)
    con = duckdb.connect()
    con.register("adj", adj_pdf(name))
    try:
        for p, induced in [(clique(4), False), (diamond(), True)]:
            plan = build_plan(p, induced=induced)
            want = con.execute(codegen.pattern_sql(plan)).fetchone()[0]
            assert run_kernel(plan, g) == want
    finally:
        con.close()
