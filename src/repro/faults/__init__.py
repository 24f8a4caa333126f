"""Deterministic fault injection and recovery support (``repro.faults``).

Split into the declarative side — :class:`FaultPlan` /
:class:`FaultEvent`, a validated schedule of fault events over simulated
time — and the operational side, :class:`FaultInjector`, which owns the
seeded RNG stream and compiles the plan into the window segments that
the hook sites in the link, the router, the coherence fabric and the
NIC queue engines read. See ``docs/FAULTS.md`` for the plan schema and
recovery semantics.
"""

from repro.faults.injector import (
    FaultInjector,
    LinkFault,
    NicFault,
    SnoopFault,
)
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "LinkFault",
    "NicFault",
    "SnoopFault",
]
