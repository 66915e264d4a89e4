"""FSM tests: every system variant must return exactly the frequent
(pattern, support) table that DuckDB computes from the same generated SQL."""
import numpy as np
import pandas as pd
import pytest

from repro import memory as memmod
from repro.core import fsm as fsmmod
from repro.core.engine_dfs import MAX_STEP
from repro.graph.gen import adj_pdf, labels_pdf
from repro.oracle import assert_equivalent

VARIANTS = ["g2miner", "pangolin", "peregrine", "distgraph"]
BIG = memmod.MemoryMeter(1 << 40)


@pytest.fixture(scope="module")
def data():
    return adj_pdf("tiny_labeled"), labels_pdf("tiny_labeled")


def oracle_sql(sigma: int) -> str:
    return (
        "WITH allsup AS ("
        + " UNION ALL ".join(
            f"SELECT * FROM ({fsmmod.support_sql(k)})"
            for k in ("edge", "wedge", "tri")
        )
        + f") SELECT pattern, support FROM allsup WHERE support >= {sigma}"
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("sigma", [1, 3, 8, 12])
def test_variant_matches_duckdb_oracle(spark, data, variant, sigma):
    adj, labels = data
    got = fsmmod.fsm3(
        spark, adj, labels, sigma, variant=variant,
        meter=memmod.MemoryMeter(1 << 40),
    )
    assert_equivalent(
        spark.createDataFrame(got), oracle_sql(sigma), adj=adj, labels=labels
    )


@pytest.fixture(scope="module")
def one_label():
    """K4 on 0..3 plus the pendant path 3-4-5-6, every vertex labelled 4:
    every orbit is a same-label orbit (E:4_4, W:4:4_4, T:4_4_4)."""
    e = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]
    both = sorted(e + [(b, a) for a, b in e])
    adj = pd.DataFrame(both, columns=["src", "dst"], dtype=np.int64)
    labels = pd.DataFrame({"v": np.arange(7, dtype=np.int64),
                           "label": np.full(7, 4, dtype=np.int64)})
    return adj, labels


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("sigma", [1, 4, 6])
def test_one_label_graph_matches_duckdb_oracle(spark, one_label, variant, sigma):
    adj, labels = one_label
    got = fsmmod.fsm3(
        spark, adj, labels, sigma, variant=variant,
        meter=memmod.MemoryMeter(1 << 40),
    )
    if sigma == 1:
        assert dict(zip(got["pattern"], got["support"])) == {
            "E:4_4": 7, "W:4:4_4": 6, "T:4_4_4": 4,
        }
    assert_equivalent(
        spark.createDataFrame(got), oracle_sql(sigma), adj=adj, labels=labels
    )


@pytest.mark.parametrize("step", [1, 5, MAX_STEP])
def test_domain_counts_do_not_depend_on_slicing(data, step):
    """The G2Miner worker's count vectors add exactly over any split of
    the domain vertices into contiguous slices, at any block step."""
    adj, labels = data
    good, g, lab = fsmmod._pruned_graph(adj, labels, 3)
    graph = (g.indptr, g.edge_keys(), lab)
    tasks = np.arange(g.n)

    def run(P):
        size = -(-g.n // P)
        return sum(
            fsmmod._domain_worker(len(good), step, graph, tasks[p * size : (p + 1) * size])
            for p in range(P)
        )

    one = run(1)
    assert one.dtype == np.int64 and one.any()
    for P in (3, 7):
        assert np.array_equal(run(P), one)


@pytest.mark.parametrize("variant", VARIANTS)
def test_sigma_monotone(spark, data, variant):
    adj, labels = data
    lo = fsmmod.fsm3(spark, adj, labels, 3, variant=variant,
                     meter=memmod.MemoryMeter(1 << 40))
    hi = fsmmod.fsm3(spark, adj, labels, 10, variant=variant,
                     meter=memmod.MemoryMeter(1 << 40))
    assert len(hi) <= len(lo)
    assert set(hi["pattern"]) <= set(lo["pattern"])


def test_pattern_families_present(spark, data):
    adj, labels = data
    out = fsmmod.fsm3(spark, adj, labels, 3, meter=memmod.MemoryMeter(1 << 40))
    kinds = {p[0] for p in out["pattern"]}
    assert "E" in kinds and "W" in kinds


def test_supports_respect_sigma(spark, data):
    adj, labels = data
    out = fsmmod.fsm3(spark, adj, labels, 6, meter=memmod.MemoryMeter(1 << 40))
    assert (out["support"] >= 6).all()


def test_pangolin_oom_on_tiny_budget(spark, data):
    adj, labels = data
    with pytest.raises(memmod.OutOfMemoryError):
        fsmmod.fsm3(spark, adj, labels, 3, variant="pangolin",
                    meter=memmod.MemoryMeter(4096))


def test_g2miner_oom_on_tiny_budget(spark, data):
    adj, labels = data
    with pytest.raises(memmod.OutOfMemoryError):
        fsmmod.fsm3(spark, adj, labels, 3, variant="g2miner",
                    meter=memmod.MemoryMeter(4096))


def test_g2miner_yo_fits_gpu_budget(spark):
    """Table 8's "G2Miner runs Yo": the real ledger stays within the GPU
    budget and is empty afterwards."""
    meter = memmod.MemoryMeter(memmod.GPU_MEM_BYTES)
    out = fsmmod.fsm3(spark, adj_pdf("Yo"), labels_pdf("Yo"), 3, meter=meter)
    assert len(out) == 11_432
    assert meter.resident == 0
    assert 0 < meter.peak <= meter.budget


def test_distgraph_oom_on_tiny_budget(spark, data):
    adj, labels = data
    with pytest.raises(memmod.OutOfMemoryError):
        fsmmod.fsm3(spark, adj, labels, 3, variant="distgraph",
                    meter=memmod.MemoryMeter(4096))


def test_label_pruning_is_lossless(spark, data):
    """Opt N must not change results: g2miner (prunes) vs pangolin (not)."""
    adj, labels = data
    a = fsmmod.fsm3(spark, adj, labels, 12, variant="g2miner",
                    meter=memmod.MemoryMeter(1 << 40))
    b = fsmmod.fsm3(spark, adj, labels, 12, variant="pangolin",
                    meter=memmod.MemoryMeter(1 << 40))
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True), check_dtype=False
    )


def test_unknown_variant_rejected(spark, data):
    adj, labels = data
    with pytest.raises(ValueError):
        fsmmod.fsm3(spark, adj, labels, 3, variant="nope")


def test_support_sql_rejects_bad_kind():
    with pytest.raises(ValueError):
        fsmmod.support_sql("square")
