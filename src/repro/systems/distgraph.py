"""DistGraph baseline (DMKD'16): hand-written distributed CPU FSM solver.

Appears only in Table 8. Realised as the driver-side Python FSM variant:
all embeddings held in RAM with per-object overhead, charged against the
CPU budget (OoM on the largest labeled graph, matching the paper), and
interpreter-bound enumeration (slow on Mico, like the paper's 56-61 s
against Peregrine's 4.4 s).
"""
from repro.systems.base import System, register


def make_engine():
    raise NotImplementedError("DistGraph is FSM-only; use fsm_variant")


SYSTEM = register(
    System(
        name="DistGraph",
        make_engine=make_engine,
        supports=frozenset({"fsm"}),
        fsm_variant="distgraph",
    )
)
