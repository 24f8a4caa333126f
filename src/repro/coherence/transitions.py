"""The MESIF transition table: the one statement of the protocol.

Every line access that is not a plain hit falls into one *situation*:
a store upgrade of a shared line, or a fill from DRAM, a same-socket
cache or a remote cache. :data:`TRANSITIONS` holds one
:class:`TransitionRule` per situation. The coherence fabric compiles
each miss and upgrade plan from the rule its situation names, so
editing a rule changes what the fabric does; the model checker
(:mod:`repro.check.model`) holds every observed transition to the same
rules with its own classifier, post-state and stale-read oracle. The
prefetcher's fills stay outside the table: no model-checked agent
prefetches, so no coverage could reach such rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.interconnect.messages import MessageClass

_SNOOP = MessageClass.SNOOP
_READ = MessageClass.READ
_RFO = MessageClass.RFO


@dataclass(frozen=True)
class TransitionRule:
    """One allowed protocol transition in the declarative spec.

    Attributes:
        key: Situation key: ``("hit", op, state)``, ``("upgrade",
            remote)``, ``("dram", op, home_local)``, ``("local", op,
            dirty)`` or ``("remote", op, dirty, home_local)``, where
            ``op`` is ``"r"`` or ``"w"``.
        write: Whether the op is a store.
        description: Human-readable transition description.
        cost_case: :class:`~repro.coherence.costs.CostModel` field charged.
        pipelined: Whether the charge is divided by ``write_pipeline``.
        counters: Per-socket counter suffixes bumped on the requester's
            socket (the offcore-response model).
        observable: Flight-recorder label (``"r:kind"``/``"w:kind"``)
            this transition produces, tying the spec to scenario runs.
        installs: Line state installed at the requester afterwards
            (``None`` keeps the pre-state — read hits).
        others: Effect on the other holders: ``keep``, ``drop`` (all
            other copies invalidated), ``drop_dirty`` (only the dirty
            source invalidated — HITM migration), or ``downgrade``
            (E/F owners fall to S).
        messages: Link messages, empty for a transition that stays on
            one socket: the request class, sent on the requester's link
            direction, then the response class, sent on the other.
    """

    key: tuple
    write: bool
    description: str
    cost_case: str
    pipelined: bool = False
    counters: Tuple[str, ...] = ()
    observable: str = ""
    installs: Optional[str] = None
    others: str = "keep"
    messages: Tuple[MessageClass, ...] = ()


def _rules() -> Dict[str, TransitionRule]:
    r = {}

    def add(tid: str, **kw) -> None:
        r[tid] = TransitionRule(**kw)

    for state in ("M", "E", "S"):
        add(
            f"read_hit_{state}",
            key=("hit", "r", state),
            write=False,
            description=f"load hit on a {state} line: no transition, L2 charge",
            cost_case="l2_hit",
            observable="r:hit",
        )
    for state in ("M", "E"):
        add(
            f"write_hit_{state}",
            key=("hit", "w", state),
            write=True,
            description=f"store hit on a writable {state} line: retire to store buffer, line goes M",
            cost_case="store_buffer",
            pipelined=True,
            observable="w:hit",
            installs="M",
        )
    add(
        "write_upgrade_local",
        key=("upgrade", False),
        write=True,
        description="store hit on a shared line, all other copies local: cheap invalidate, line goes M",
        cost_case="local_invalidate",
        pipelined=True,
        observable="w:upgrade_local",
        installs="M",
        others="drop",
    )
    add(
        "write_upgrade_remote",
        key=("upgrade", True),
        write=True,
        description="store hit on a shared line with a remote copy: cross-link invalidate (RFO), line goes M",
        cost_case="remote_invalidate",
        pipelined=True,
        counters=("rfo",),
        observable="w:upgrade_remote",
        installs="M",
        others="drop",
        messages=(_SNOOP, MessageClass.ACK),
    )
    for write, op in ((False, "r"), (True, "w")):
        fill = (_SNOOP, _RFO if write else _READ)
        for home_local in (True, False):
            where = "local" if home_local else "remote"
            add(
                f"{'write' if write else 'read'}_miss_dram_{where}",
                key=("dram", op, home_local),
                write=write,
                description=f"{'store' if write else 'load'} miss, no cached copy, {where}-homed DRAM fill",
                cost_case=f"{where}_dram",
                pipelined=write,
                counters=() if home_local else (("rfo",) if write else ("read",)),
                observable=f"{op}:dram_{where}",
                installs="M" if write else "E",
                messages=() if home_local else fill,
            )
        for dirty in (False, True):
            kind = "dirty" if dirty else "clean"
            add(
                f"{'write' if write else 'read'}_miss_local_{kind}",
                key=("local", op, dirty),
                write=write,
                description=(
                    f"{'store' if write else 'load'} miss served by a same-socket "
                    f"{kind} cache" + ("" if write else
                                      (": HITM, ownership migrates" if dirty
                                       else ": shared fill, owners downgrade"))
                ),
                cost_case="local_cache",
                pipelined=write,
                observable=f"{op}:cache_local",
                installs="M" if (write or dirty) else "S",
                others="drop" if write else ("drop_dirty" if dirty else "downgrade"),
            )
            for home_local in (True, False):
                homed = "reader_homed" if home_local else "writer_homed"
                spec = ("spec_mem_read",) if home_local else ()
                add(
                    f"{'write' if write else 'read'}_miss_remote_{kind}_{homed}",
                    key=("remote", op, dirty, home_local),
                    write=write,
                    description=(
                        f"{'store' if write else 'load'} miss served by a remote "
                        f"{kind} cache, {homed.replace('_', '-')}"
                        + (" (HITM transfer)" if dirty else "")
                    ),
                    cost_case=f"remote_cache_{homed}",
                    pipelined=write,
                    counters=(("rfo",) if write else ("read",)) + spec,
                    observable=(
                        f"{op}:cache_remote"
                        + ("_spec" if home_local else "")
                        + ("_hitm" if dirty else "")
                    ),
                    installs="M" if (write or dirty) else "S",
                    others="drop" if write else ("drop_dirty" if dirty else "downgrade"),
                    messages=fill,
                )
    return r


#: The declarative MESIF/HITM transition relation: transition id ->
#: :class:`TransitionRule`. 23 rules cover every transition the fabric
#: can take within a write-back, capacity-unbounded scope (FORWARD is
#: never installed by the fabric, so no rule starts from it).
TRANSITIONS: Dict[str, TransitionRule] = _rules()
