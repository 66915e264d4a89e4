"""System tests: the systems table must encode the paper's Table 1, and
all systems must agree on counts (they differ only in how, not what)."""
import dataclasses
import inspect

import numpy as np
import pytest

from repro import memory as memmod
from repro.core.engine_bfs import BFSEngine
from repro.core.engine_dfs import DFSConfig
from repro.core.pattern import clique, cycle, diamond
from repro.graph.csr import CSRGraph, build_csr
from repro.graph.gen import generate_graph
from repro.harness import TABLES, table_cells
from repro.systems import SYSTEMS, System

GPU, CPU = memmod.GPU_MEM_BYTES, memmod.CPU_MEM_BYTES

ALL = ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero", "DistGraph"]


def test_registry_complete():
    assert set(SYSTEMS) == set(ALL)


# Table 1 / SS8 support matrix.
@pytest.mark.parametrize(
    "name,workload,supported",
    [
        ("G2Miner", "fsm", True),
        ("G2Miner", "counting", True),
        ("Pangolin", "sl", False),  # "Pangolin does not support SL"
        ("Pangolin", "fsm", True),
        ("PBE", "mc", False),  # "PBE does not support k-MC and FSM"
        ("PBE", "fsm", False),
        ("PBE", "sl", True),
        ("Peregrine", "mc", True),
        ("GraphZero", "fsm", False),  # "GraphZero does not support FSM"
        ("GraphZero", "kcl", True),
        ("DistGraph", "fsm", True),
        ("DistGraph", "tc", False),
    ],
)
def test_support_matrix_matches_paper(name, workload, supported):
    assert (workload in SYSTEMS[name].supports) == supported


CELLS = [c for no in TABLES for c in table_cells(no)]


def test_every_table_cell_is_supported():
    """Every Table 4-9 cell runs a workload its system supports."""
    assert len(CELLS) == 208
    assert [c for c in CELLS if c[1][0] not in SYSTEMS[c[0]].supports] == []


def test_every_support_flag_is_used():
    """Every workload a system supports appears in one of its cells."""
    used = {(system, workload[0]) for system, workload, _, _ in CELLS}
    assert {(s.name, k) for s in SYSTEMS.values() for k in s.supports} <= used


def test_fsm_variants_wired():
    assert SYSTEMS["G2Miner"].fsm_variant == "g2miner"
    assert SYSTEMS["Pangolin"].fsm_variant == "pangolin"
    assert SYSTEMS["Peregrine"].fsm_variant == "peregrine"
    assert SYSTEMS["DistGraph"].fsm_variant == "distgraph"
    assert SYSTEMS["GraphZero"].fsm_variant is None


def test_distgraph_engine_is_fsm_only():
    assert SYSTEMS["DistGraph"].make_engine is None
    assert SYSTEMS["DistGraph"].supports == {"fsm"}


@pytest.mark.parametrize("p", [clique(3), clique(4), diamond(), cycle(4)],
                         ids=lambda p: p.name)
def test_all_systems_agree_on_counts(spark, p):
    """The systems implement different execution strategies for the same
    semantics; with unconstrained memory they must return equal counts."""
    e, _ = generate_graph("tiny")
    g = build_csr(e)
    counts = {}
    for name in ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero"]:
        eng = SYSTEMS[name].make_engine()
        counts[name] = eng.count(spark, g, p, meter=memmod.MemoryMeter(1 << 40))
    assert len(set(counts.values())) == 1, counts


def test_g2miner_uses_gpu_budget():
    assert SYSTEMS["G2Miner"].make_engine().budget == GPU
    assert SYSTEMS["Peregrine"].make_engine().budget == CPU


# -- each system is one engine setting; the rest follows from it ---------

def test_settable_values():
    assert [f.name for f in dataclasses.fields(DFSConfig)] == ["setops"]
    assert list(inspect.signature(BFSEngine).parameters) == ["adj_partitions"]
    assert len(dataclasses.fields(System)) == 4


@pytest.mark.parametrize("name,budget", [
    ("G2Miner", GPU), ("GraphZero", CPU), ("Peregrine", CPU),
    ("Pangolin", GPU), ("PBE", GPU),
])
def test_default_budget(name, budget):
    assert SYSTEMS[name].make_engine().budget == budget


@pytest.mark.parametrize("name,permutes", [
    ("G2Miner", True), ("GraphZero", False), ("Peregrine", False),
])
def test_chunked_schedule_is_g2miners(name, permutes):
    tasks = np.arange(1000)
    out = SYSTEMS[name].make_engine()._schedule(tasks)
    assert sorted(out.tolist()) == tasks.tolist()
    assert (not np.array_equal(out, tasks)) == permutes


@pytest.mark.parametrize("name,orients", [
    ("G2Miner", True), ("GraphZero", False), ("Peregrine", False),
    ("Pangolin", True), ("PBE", False),
])
def test_clique_orientation(spark, monkeypatch, name, orients):
    calls = []
    real = CSRGraph.orient
    monkeypatch.setattr(CSRGraph, "orient", lambda g: calls.append(g) or real(g))
    g = build_csr(generate_graph("tiny")[0])
    SYSTEMS[name].make_engine().count(spark, g, clique(3), meter=memmod.MemoryMeter(1 << 40))
    assert bool(calls) == orients
