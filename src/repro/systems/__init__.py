"""System facades: one module per evaluated system (paper Table 1).

Each module picks one setting of a shared engine; that system's documented
behaviour (search order, awareness, parallelism, set-op backend, schedule,
memory budget) follows from it. ``SYSTEMS`` is the registry the harness
and benchmarks iterate.
"""
from repro.systems.base import System, SYSTEMS  # noqa: F401
from repro.systems import (  # noqa: F401
    distgraph,
    g2miner,
    graphzero,
    pangolin,
    pbe,
    peregrine,
)
