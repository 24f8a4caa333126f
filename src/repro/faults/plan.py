"""Declarative fault plans: *what* goes wrong, *when*, *how badly*.

A :class:`FaultPlan` is an immutable schedule of :class:`FaultEvent`\\ s
over simulated time. Plans are data, not code: they load from JSON or
TOML files (see :func:`FaultPlan.load`), round-trip through
:meth:`FaultPlan.to_dict`, and are validated eagerly so a bad plan fails
at load time, not mid-run.

Eight fault classes exist, in three families:

**Link faults** (per-message, ``target`` optionally names one link):

* ``link_drop`` — a flit is lost and link-layer retransmitted: the
  message is delayed by ``extra_ns`` plus a second serialization, and
  the wasted copy still consumed bandwidth (how UPI/CXL CRC retry
  manifests — coherent links never surface loss to the protocol).
* ``link_duplicate`` — a spurious extra copy consumes bandwidth.
* ``link_delay`` — the message takes ``extra_ns`` longer (protocol-
  stack hiccup, retimer, throttling burst).
* ``link_degrade`` — a bandwidth-degradation *window*: while active,
  serialization time is scaled by ``1 / factor`` (e.g. ``factor=0.5``
  halves usable bandwidth — lane drop, thermal throttle).

**Coherence faults** (per-snoop):

* ``snoop_delay`` — a snoop response arrives ``extra_ns`` late.
* ``snoop_nack`` — a snoop is NACKed; the requester re-issues it after
  ``extra_ns`` and the retry message crosses the link again.

**NIC faults** (one-shot, fire once at ``start_ns``; ``queue``
optionally restricts to one queue pair):

* ``nic_stall`` — the NIC-side engine freezes for ``duration_ns``
  (firmware pause, PCIe credit stall) and then resumes intact.
* ``nic_reset`` — the NIC loses its on-chip state: packets on the wire
  are dropped and the engine is *wedged* (stops serving its rings)
  until the host driver's watchdog reinitializes the queue; the reset
  itself takes ``duration_ns``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FaultError

#: All recognised fault-event kinds.
FAULT_KINDS = (
    "link_drop",
    "link_duplicate",
    "link_delay",
    "link_degrade",
    "snoop_delay",
    "snoop_nack",
    "nic_stall",
    "nic_reset",
)

#: Kinds decided per message on a link (probability applies).
LINK_MESSAGE_KINDS = ("link_drop", "link_duplicate", "link_delay")

#: Kinds decided per snoop in the coherence fabric.
SNOOP_KINDS = ("snoop_delay", "snoop_nack")

#: One-shot kinds fired by the NIC-side engine loop.
NIC_KINDS = ("nic_stall", "nic_reset")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (validated on construction).

    Args:
        kind: One of :data:`FAULT_KINDS`.
        start_ns: Window start (or firing time, for one-shot NIC kinds).
        end_ns: Window end; ignored by one-shot kinds.
        probability: Per-message / per-snoop injection probability.
        extra_ns: Added delay (drop retry, delay, snoop classes).
        factor: Bandwidth factor for ``link_degrade`` (0 < factor < 1).
        duration_ns: Stall / reset length for the NIC kinds.
        target: Restrict link kinds to one link name (``"upi"``, ...).
        queue: Restrict NIC kinds to one queue-pair index.
    """

    kind: str
    start_ns: float = 0.0
    end_ns: float = math.inf
    probability: float = 1.0
    extra_ns: float = 0.0
    factor: float = 1.0
    duration_ns: float = 0.0
    target: Optional[str] = None
    queue: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r} (use one of: {', '.join(FAULT_KINDS)})"
            )
        if self.start_ns < 0:
            raise FaultError(f"{self.kind}: start_ns must be >= 0, got {self.start_ns}")
        if self.end_ns < self.start_ns:
            raise FaultError(
                f"{self.kind}: end_ns {self.end_ns} precedes start_ns {self.start_ns}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise FaultError(
                f"{self.kind}: probability must be in (0, 1], got {self.probability}"
            )
        if self.extra_ns < 0:
            raise FaultError(f"{self.kind}: extra_ns must be >= 0, got {self.extra_ns}")
        if self.kind == "link_degrade" and not 0.0 < self.factor < 1.0:
            raise FaultError(
                f"link_degrade: factor must be in (0, 1), got {self.factor}"
            )
        if self.kind in NIC_KINDS and self.duration_ns <= 0:
            raise FaultError(f"{self.kind}: duration_ns must be positive")
        if self.queue is not None and self.queue < 0:
            raise FaultError(f"{self.kind}: queue must be >= 0, got {self.queue}")

    # ------------------------------------------------------------------
    def active(self, now: float) -> bool:
        """True when ``now`` falls inside this event's window."""
        return self.start_ns <= now < self.end_ns

    def matches_link(self, link_name: str) -> bool:
        """True when this event applies to ``link_name``."""
        return self.target is None or self.target == link_name

    def matches_queue(self, queue_index: int) -> bool:
        """True when this event applies to queue pair ``queue_index``."""
        return self.queue is None or self.queue == queue_index

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (omits defaulted fields; ``inf`` end omitted)."""
        out: Dict[str, Any] = {"kind": self.kind}
        if self.start_ns:
            out["start_ns"] = self.start_ns
        if math.isfinite(self.end_ns):
            out["end_ns"] = self.end_ns
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.extra_ns:
            out["extra_ns"] = self.extra_ns
        if self.factor != 1.0:
            out["factor"] = self.factor
        if self.duration_ns:
            out["duration_ns"] = self.duration_ns
        if self.target is not None:
            out["target"] = self.target
        if self.queue is not None:
            out["queue"] = self.queue
        return out


_EVENT_FIELDS = frozenset(
    (
        "kind",
        "start_ns",
        "end_ns",
        "probability",
        "extra_ns",
        "factor",
        "duration_ns",
        "target",
        "queue",
    )
)


def _event_from_dict(raw: Dict[str, Any]) -> FaultEvent:
    if not isinstance(raw, dict):
        raise FaultError(f"fault event must be a table/object, got {type(raw).__name__}")
    unknown = set(raw) - _EVENT_FIELDS
    if unknown:
        raise FaultError(f"fault event has unknown fields: {sorted(unknown)}")
    if "kind" not in raw:
        raise FaultError("fault event is missing its 'kind'")
    return FaultEvent(**raw)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    name: str = "plan"
    _by_kind: Dict[str, Tuple[FaultEvent, ...]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        by_kind: Dict[str, List[FaultEvent]] = {}
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise FaultError(f"plan events must be FaultEvent, got {type(ev).__name__}")
            by_kind.setdefault(ev.kind, []).append(ev)
        object.__setattr__(
            self, "_by_kind", {k: tuple(v) for k, v in by_kind.items()}
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def events_of(self, *kinds: str) -> Tuple[FaultEvent, ...]:
        """All events of the given kinds, in plan order."""
        if len(kinds) == 1:
            return self._by_kind.get(kinds[0], ())
        wanted = set(kinds)
        return tuple(ev for ev in self.events if ev.kind in wanted)

    def kinds(self) -> Tuple[str, ...]:
        """Distinct fault kinds present, in :data:`FAULT_KINDS` order."""
        return tuple(k for k in FAULT_KINDS if k in self._by_kind)

    def restricted(self, kinds) -> "FaultPlan":
        """A sub-plan keeping only events of the given kinds."""
        wanted = set(kinds)
        unknown = wanted - set(FAULT_KINDS)
        if unknown:
            raise FaultError(f"unknown fault kinds: {sorted(unknown)}")
        return FaultPlan(
            events=tuple(ev for ev in self.events if ev.kind in wanted),
            name=self.name,
        )

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from ``{"name": ..., "events": [...]}``."""
        if not isinstance(raw, dict):
            raise FaultError(f"fault plan must be a mapping, got {type(raw).__name__}")
        unknown = set(raw) - {"name", "events"}
        if unknown:
            raise FaultError(f"fault plan has unknown fields: {sorted(unknown)}")
        events = raw.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise FaultError("fault plan 'events' must be a list")
        return cls(
            events=tuple(_event_from_dict(ev) for ev in events),
            name=str(raw.get("name", "plan")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_toml(cls, text: str) -> "FaultPlan":
        """Parse a plan from TOML text (``[[events]]`` tables).

        Requires ``tomllib`` (Python 3.11+); raises :class:`FaultError`
        on older interpreters so callers can fall back to JSON.
        """
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - version-dependent
            raise FaultError(
                "TOML fault plans need Python 3.11+ (tomllib); use JSON instead"
            ) from exc
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise FaultError(f"fault plan is not valid TOML: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """The plan a CLI flag or scenario spec names.

        ``"canned"`` is the built-in :meth:`canned` plan; anything else
        is a plan file, parsed as TOML when it ends in ``.toml`` and as
        JSON otherwise.
        """
        if path == "canned":
            return cls.canned()
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise FaultError(f"cannot read fault plan {path!r}: {exc}") from exc
        if path.endswith(".toml"):
            return cls.from_toml(text)
        return cls.from_json(text)

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable plain-dict form."""
        return {"name": self.name, "events": [ev.to_dict() for ev in self.events]}

    # ------------------------------------------------------------------
    @classmethod
    def canned(cls) -> "FaultPlan":
        """The built-in smoke plan: every fault class inside ~400 us.

        Windows are staggered so each class is identifiable in the
        counters, and the NIC one-shots land early enough that a few
        thousand loopback packets exercise the full recovery path.
        """
        return cls.from_dict(
            {
                "name": "canned",
                "events": [
                    {"kind": "link_delay", "start_ns": 10_000, "end_ns": 160_000,
                     "probability": 0.05, "extra_ns": 150.0},
                    {"kind": "link_drop", "start_ns": 40_000, "end_ns": 190_000,
                     "probability": 0.02, "extra_ns": 400.0},
                    {"kind": "link_duplicate", "start_ns": 70_000, "end_ns": 220_000,
                     "probability": 0.05},
                    {"kind": "link_degrade", "start_ns": 100_000, "end_ns": 250_000,
                     "factor": 0.5},
                    {"kind": "snoop_delay", "start_ns": 130_000, "end_ns": 280_000,
                     "probability": 0.05, "extra_ns": 120.0},
                    {"kind": "snoop_nack", "start_ns": 160_000, "end_ns": 310_000,
                     "probability": 0.02, "extra_ns": 90.0},
                    {"kind": "nic_stall", "start_ns": 300_000, "duration_ns": 25_000},
                    {"kind": "nic_reset", "start_ns": 380_000, "duration_ns": 15_000},
                ],
            }
        )
