"""Device-memory model tests: the byte ledger, the one scope that releases
a run's charges, and every engine path charging through it."""
import pytest

from repro import memory as memmod
from repro.core import fsm as fsmmod
from repro.core.pattern import clique
from repro.harness import get_csr, get_fsm_inputs
from repro.memory import (
    CPU_MEM_BYTES,
    GPU_MEM_BYTES,
    MemoryMeter,
    OutOfMemoryError,
)
from repro.systems import SYSTEMS

BIG = 1 << 40


def test_budgets_scaled_like_paper():
    # 190 GB / 32 GB host-to-device ratio preserved.
    assert abs(CPU_MEM_BYTES / GPU_MEM_BYTES - 190 / 32) < 0.01


def test_oom_raised_and_described():
    m = MemoryMeter(100)
    m.alloc("graph", 60)
    with pytest.raises(OutOfMemoryError) as ei:
        m.alloc("subgraph_list", 50)
    assert "subgraph_list" in str(ei.value)
    assert ei.value.meter.peak == 110


def test_scope_releases_on_exit():
    with memmod.charged(None, 1000) as m:
        assert (m.budget, m.resident, m.ledger) == (1000, 0, {})
        m.alloc("a", 400)
        m.alloc("b", 500)
        assert m.resident == 900 and m.ledger == {"a": 400, "b": 500}
    assert m.resident == 0 and m.ledger == {}


def test_scope_releases_on_oom():
    m = MemoryMeter(100)
    with pytest.raises(OutOfMemoryError) as ei:
        with memmod.charged(m, BIG) as inner:
            assert inner is m
            m.alloc("graph", 60)
            m.alloc("subgraph_list", 50)
    assert ei.value.what == "subgraph_list"
    assert m.resident == 0 and m.ledger == {}


def test_scope_keeps_peak():
    m = MemoryMeter(1000)
    for nbytes in (900, 300):
        with memmod.charged(m, BIG):
            m.alloc("x", nbytes)
    assert m.resident == 0 and m.peak == 900


def test_nested_scopes_restore_their_entry():
    m = MemoryMeter(1000)
    m.alloc("caller", 100)
    with memmod.charged(m, BIG):
        m.alloc("graph", 200)
        with pytest.raises(OutOfMemoryError):
            with memmod.charged(m, BIG):
                m.alloc("graph", 300)
                m.alloc("list", 500)
        assert m.resident == 300 and m.ledger == {"caller": 100, "graph": 200}
    assert m.resident == 100 and m.ledger == {"caller": 100}
    assert m.peak == 1100


def test_repeated_alloc_accumulates():
    m = MemoryMeter(1000)
    with memmod.charged(m, BIG):
        m.alloc("x", 100)
        m.alloc("x", 100)
        assert m.resident == 200 and m.ledger == {"x": 200}
    assert m.resident == 0


# -- every engine path releases its charges on OoM ------------------------

class Recorder(MemoryMeter):
    """A meter that also keeps every charge, in order."""

    def __init__(self, budget: int):
        super().__init__(budget)
        self.charges: list[tuple[str, int]] = []

    def alloc(self, what: str, nbytes: int) -> None:
        self.charges.append((what, int(nbytes)))
        super().alloc(what, nbytes)


def _engine(system):
    return lambda spark, meter: SYSTEMS[system].make_engine().count(
        spark, get_csr("tiny"), clique(4), meter=meter)


def _fsm(variant):
    return lambda spark, meter: fsmmod.fsm3(
        spark, *get_fsm_inputs("tiny_labeled"), 3, variant=variant, meter=meter)


PATHS = {
    "G2Miner": _engine("G2Miner"),  # DFS, edge mode
    "GraphZero": _engine("GraphZero"),  # DFS, vertex mode
    "Pangolin": _engine("Pangolin"),
    "PBE": _engine("PBE"),
    **{f"fsm3-{v}": _fsm(v) for v in ("g2miner", "pangolin", "peregrine", "distgraph")},
}

#: (path, the charge that breaks the budget): each path's first charge and
#: a later one. Peregrine's 3-FSM charges only its graph.
CASES = [
    ("G2Miner", "csr"), ("G2Miner", "buffers"),
    ("GraphZero", "csr"), ("GraphZero", "buffers"),
    ("Pangolin", "csr"), ("Pangolin", "subgraph_list_2"),
    ("PBE", "csr"), ("PBE", "block_2"),
    ("fsm3-g2miner", "graph"), ("fsm3-g2miner", "buffers"),
    ("fsm3-pangolin", "graph"), ("fsm3-pangolin", "tri_embeddings"),
    ("fsm3-peregrine", "graph"),
    ("fsm3-distgraph", "graph"), ("fsm3-distgraph", "embeddings"),
]


@pytest.fixture(scope="module")
def charges(spark):
    """Path -> its charges, in order, on an unbounded budget."""
    seen: dict[str, list] = {}

    def get(path):
        if path not in seen:
            rec = Recorder(BIG)
            PATHS[path](spark, rec)
            seen[path] = rec.charges
        return seen[path]

    return get


@pytest.mark.parametrize("path,what", CASES, ids=[f"{p}-{w}" for p, w in CASES])
def test_oom_leaves_the_ledger_empty(spark, charges, path, what):
    """On a budget of exactly the bytes charged before ``what``, the run
    breaks at ``what`` and leaves nothing charged."""
    names = [w for w, _ in charges(path)]
    budget = sum(nbytes for _, nbytes in charges(path)[: names.index(what)])
    meter = MemoryMeter(budget)
    with pytest.raises(OutOfMemoryError) as ei:
        PATHS[path](spark, meter)
    assert ei.value.what == what
    assert meter.resident == 0
    assert meter.ledger == {}
    assert meter.peak > meter.budget
