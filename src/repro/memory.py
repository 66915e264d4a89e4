"""Scaled device-memory model (paper SS7.2; OoM cells of Tables 4-8).

The paper's V100 has 32 GB; its CPU host has 190 GB. Graphs here are
~1/2000 of the paper's edge counts, so budgets scale by the same factor
and are expressed in bytes of actually-materialised numpy/DataFrame state.
Every engine *accounts* its resident structures (CSR, task edgelist,
subgraph lists, FSM embedding lists) against its budget via ``MemoryMeter``
and raises ``OutOfMemoryError`` the moment the ledger exceeds it — so the
OoM pattern in the tables is produced by real intermediate sizes, not by a
lookup table. An engine run charges inside one ``charged`` scope, which
releases everything the run charged when it ends, by return or by OoM.

Budget calibration (documented in DESIGN.md SS2): GPU_MEM_BYTES is set so
that for triangle counting the *oriented* structures of our Fr fit while
Tw4/Uk do not (Pangolin's Table 4 frontier), and the CPU budget is larger
by the paper's 190/32 ratio.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: V100's 32 GB, scaled to the synthetic graph sizes. Calibrated (see the
#: calibration constraints in DESIGN.md SS2) so the paper's capacity
#: frontier reproduces from real structure sizes: oriented Fr fits for
#: Pangolin-TC while Tw4/Uk do not; Lj/Or triangle lists fit for
#: Pangolin-4CL while Tw2+ do not; Lj's 4-clique list does not fit for
#: 5-CL; symmetric Tw2 fits for 3-MC while Tw4/Fr do not.
GPU_MEM_BYTES = int(8.45 * 1024 * 1024)
#: The CPU host's 190 GB, scaled by the paper's own 190/32 ratio.
CPU_MEM_BYTES = int(GPU_MEM_BYTES * 190 / 32)


class OutOfMemoryError(RuntimeError):
    """Raised when an engine's materialised state exceeds its budget."""

    def __init__(self, meter: "MemoryMeter", what: str):
        self.meter = meter
        self.what = what
        super().__init__(
            f"OoM allocating {what}: resident {meter.resident} B "
            f"> budget {meter.budget} B (peak {meter.peak} B)"
        )


class MemoryMeter:
    """Byte ledger for one engine run."""

    def __init__(self, budget: int):
        self.budget = budget
        self.resident = 0
        self.peak = 0
        self.ledger: dict[str, int] = {}

    def alloc(self, what: str, nbytes: int) -> None:
        self.resident += int(nbytes)
        self.ledger[what] = self.ledger.get(what, 0) + int(nbytes)
        self.peak = max(self.peak, self.resident)
        if self.resident > self.budget:
            raise OutOfMemoryError(self, what)


@contextmanager
def charged(meter: MemoryMeter | None, budget: int) -> Iterator[MemoryMeter]:
    """Scope of one engine run's charges: yields ``meter``, or a fresh
    ``MemoryMeter(budget)`` when none is given. On exit, by return or by
    exception, ``resident`` and ``ledger`` are restored to their values on
    entry, so the run's charges are released whichever allocation failed;
    ``peak`` keeps the run's high-water mark."""
    meter = meter if meter is not None else MemoryMeter(budget)
    resident, ledger = meter.resident, dict(meter.ledger)
    try:
        yield meter
    finally:
        meter.resident, meter.ledger = resident, ledger
