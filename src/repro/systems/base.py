"""Common system-facade machinery.

A ``System`` bundles an engine factory with the capability flags the paper
reports in Table 1 (which workloads each system supports) plus its FSM
variant. The engine's configuration carries everything else: parallelism,
orientation, schedule, set-op backend (also used by the counting-only
sweeps) and memory budget. Registration happens at import of each
``repro.systems.<name>`` module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class System:
    """One evaluated system (a row of the paper's Table 1)."""

    name: str
    make_engine: Callable  # () -> DFSEngine | BFSEngine
    supports: frozenset[str]  # of {'tc','kcl','sl','mc','fsm','counting'}
    fsm_variant: str | None = None


SYSTEMS: dict[str, System] = {}


def register(system: System) -> System:
    SYSTEMS[system.name] = system
    return system
