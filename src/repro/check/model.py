"""Small-scope protocol model checker for the coherence fabric.

The fabric's MESIF transition behaviour (HITM dirty-ownership transfer,
homing-dependent charging, speculative reads, store pipelining) is what
CC-NIC's results rest on. The protocol is stated once, as the rules of
:data:`~repro.coherence.transitions.TRANSITIONS`, and the fabric
compiles its miss and upgrade plans from them. This module holds the
fabric to that table: it *exhaustively enumerates* every reachable
small-scope configuration (2–3 agents × 1–2 cache lines × all op
sequences) through the real :class:`~repro.coherence.fabric.CoherenceFabric`,
checking per step:

* **single-writer-multiple-reader** — via the fabric's own
  :meth:`~repro.coherence.fabric.CoherenceFabric.check_invariants`;
* **transition legality** — every observed transition is in the spec,
  with the specified post-state, latency charge, counter deltas and
  link messages;
* **no stale reads** — a shadow data-version oracle asserts every read
  observes the globally newest version after any remote modify;
* **coverage** — every spec transition is reached (the coverage table).

Sharing the table does not make the check circular: the checker keeps
its own half — the situation classifier (:func:`_situation`), the
expected post-state (:func:`_expected_post`), the stale-read oracle,
SWMR, and costs bound to the platform preset rather than to the live
fabric. On failure the checker emits a *shrunk*, replayable
counterexample op sequence (see :func:`replay_counterexample`). Named
mutations (:data:`MUTATIONS`) let CI prove the checker catches protocol
bugs: each (e.g. skipping the HITM forward, an edit of one fabric's copy
of the table) must produce a counterexample.

Scope bounds are deliberately tiny — the point is exhaustiveness within
a scope small enough that the reachable abstract-state graph closes in
hundreds of probes, per the small-scope hypothesis.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.coherence.fabric import CoherenceFabric
from repro.coherence.transitions import TRANSITIONS, TransitionRule
from repro.errors import CoherenceError, ConfigError, ModelCheckError
from repro.interconnect.link import Link
from repro.interconnect.messages import MessageClass
from repro.mem.space import AddressSpace
from repro.obs.export import MODEL_SCHEMA
from repro.platform import PLATFORMS
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng

#: Absolute tolerance (ns) for latency-charge checks against the spec.
#: Residual M/D/1 queueing after a settle gap is ~1e-7 ns; real cost
#: regressions are whole calibrated constants (tens of ns).
COST_TOL_NS = 1e-3

#: Settle gap between ops: long enough that the link's rate windows
#: decay to negligible queueing, so spec latencies are zero-load.
SETTLE_NS = 100_000.0

#: Safety valve on BFS probes; the default scope closes in well under
#: a tenth of this.
MAX_PROBES = 50_000


@dataclass(frozen=True)
class ModelScope:
    """Bounds of one small-scope enumeration.

    Attributes:
        agents: ``(name, socket)`` per caching agent.
        line_homes: Home socket per modelled cache line.
        platform: Platform preset key (of ``repro.platform.PLATFORMS``) for costs.
        settle_ns: Virtual-time gap inserted between ops.
    """

    agents: Tuple[Tuple[str, int], ...] = (("h0", 0), ("h1", 0), ("n0", 1))
    line_homes: Tuple[int, ...] = (0, 1)
    platform: str = "icx"
    settle_ns: float = SETTLE_NS

    def __post_init__(self) -> None:
        if not self.agents:
            raise ConfigError("model scope needs at least one agent")
        if not self.line_homes:
            raise ConfigError("model scope needs at least one line")
        if self.platform not in PLATFORMS:
            raise ConfigError(
                f"unknown platform {self.platform!r}; pick from {sorted(PLATFORMS)}"
            )
        sockets = {socket for _, socket in self.agents}
        if not sockets <= {0, 1}:
            raise ConfigError(f"agent sockets must be 0 or 1, got {sorted(sockets)}")
        if not set(self.line_homes) <= {0, 1}:
            raise ConfigError("line homes must be socket 0 or 1")

    def to_doc(self) -> Dict[str, Any]:
        return {
            "agents": [list(pair) for pair in self.agents],
            "line_homes": list(self.line_homes),
            "platform": self.platform,
            "settle_ns": self.settle_ns,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ModelScope":
        return cls(
            agents=tuple((name, socket) for name, socket in doc["agents"]),
            line_homes=tuple(doc["line_homes"]),
            platform=doc["platform"],
            settle_ns=doc["settle_ns"],
        )


_BY_KEY: Dict[tuple, str] = {rule.key: tid for tid, rule in TRANSITIONS.items()}


class _World:
    """One concrete fabric instance over the scope's agents and lines."""

    def __init__(self, scope: ModelScope) -> None:
        self.scope = scope
        self.sim = Simulator()
        self.space = AddressSpace()
        plat = PLATFORMS[scope.platform]()
        self.link = Link(
            self.sim,
            "upi",
            latency_ns=plat.upi_latency_ns,
            bandwidth_bytes_per_ns=plat.upi_wire_bytes_per_ns,
            header_overhead=plat.upi_header_overhead,
        )
        self.fabric = CoherenceFabric(
            self.sim,
            self.space,
            plat.cost,
            self.link,
            mlp=plat.mlp,
            write_pipeline=plat.write_pipeline,
        )
        self.agents = [
            self.fabric.new_agent(name, socket) for name, socket in scope.agents
        ]
        self.regions = [
            self.space.allocate(f"L{i}", 64, home=home)
            for i, home in enumerate(scope.line_homes)
        ]

    def apply(self, op: Tuple[int, bool, int]) -> float:
        agent_index, write, line_index = op
        return self.fabric.access(
            self.agents[agent_index], self.regions[line_index].base, 8, write
        )

    def settle(self) -> None:
        self.sim.call_at(self.sim.now + self.scope.settle_ns, _noop)
        self.sim.run()

    def abstract(self) -> tuple:
        """Per-line tuple of per-agent state chars (None = Invalid)."""
        out = []
        for region in self.regions:
            line = region.base // 64
            states = tuple(
                None if (s := agent.peek(line)) is None else s.value
                for agent in self.agents
            )
            out.append(states)
        return tuple(out)

    def counters(self) -> Dict[str, float]:
        return dict(self.fabric.counters.snapshot())

    def messages(self) -> List[Dict[str, int]]:
        """Per-direction link message counts by class."""
        return [stats.by_class for stats in self.link.stats]


def _noop() -> None:
    return None


def _situation(scope: ModelScope, pre: tuple, op: Tuple[int, bool, int]) -> Optional[tuple]:
    """Map ``(pre-state, op)`` to a spec situation key (None = unknown)."""
    agent_index, write, line_index = op
    states = pre[line_index]
    mine = states[agent_index]
    socket = scope.agents[agent_index][1]
    home_local = scope.line_homes[line_index] == socket
    opc = "w" if write else "r"
    if mine is not None:
        if not write or mine in ("M", "E"):
            return ("hit", opc, mine)
        if mine == "S":
            remote = any(
                s is not None and scope.agents[i][1] != socket
                for i, s in enumerate(states)
                if i != agent_index
            )
            return ("upgrade", remote)
        return None  # F at the requester: outside the installable space
    holders = [i for i, s in enumerate(states) if s is not None]
    if not holders:
        return ("dram", opc, home_local)
    dirty = [i for i in holders if states[i] == "M"]
    if dirty:
        source = dirty[0]
    else:
        local = [i for i in holders if scope.agents[i][1] == socket]
        source = local[-1] if local else holders[-1]
    if scope.agents[source][1] != socket:
        return ("remote", opc, bool(dirty), home_local)
    return ("local", opc, bool(dirty))


def _expected_post(
    scope: ModelScope, pre: tuple, op: Tuple[int, bool, int], rule: TransitionRule
) -> tuple:
    """Post-state the spec requires after ``rule`` fires on ``pre``."""
    agent_index, _write, line_index = op
    states = list(pre[line_index])
    if rule.installs is None:
        pass  # read hit: nothing moves
    elif rule.others == "drop" or rule.write:
        states = [None] * len(states)
        states[agent_index] = "M"
    elif rule.others == "drop_dirty":
        states = [None if s == "M" else s for s in states]
        states[agent_index] = rule.installs
    elif rule.others == "downgrade":
        states = ["S" if s in ("E", "F") else s for s in states]
        states[agent_index] = rule.installs
    else:
        states[agent_index] = rule.installs
    post = list(pre)
    post[line_index] = tuple(states)
    return tuple(post)


def op_to_doc(op: Tuple[int, bool, int], scope: ModelScope) -> List[Any]:
    """JSON-safe ``[agent_name, "r"/"w", line_index]`` form of an op."""
    agent_index, write, line_index = op
    return [scope.agents[agent_index][0], "w" if write else "r", line_index]


def op_from_doc(doc: List[Any], scope: ModelScope) -> Tuple[int, bool, int]:
    """Inverse of :func:`op_to_doc`."""
    names = [name for name, _ in scope.agents]
    return (names.index(doc[0]), doc[1] == "w", int(doc[2]))


class _Outcome:
    __slots__ = ("post", "transitions", "violation")

    def __init__(self, post, transitions, violation) -> None:
        self.post = post
        self.transitions = transitions
        self.violation = violation


def _violation(invariant: str, message: str, step: int, scope: ModelScope,
               seq, detail: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "invariant": invariant,
        "message": message,
        "step": step,
        "op": op_to_doc(seq[step], scope),
        "detail": detail,
    }


def _run_sequence(scope: ModelScope, seq, mutation=None) -> _Outcome:
    """Replay ``seq`` through a fresh fabric.

    Returns the final abstract state, the transition id taken at each
    step, and the first invariant violation (None when clean). Checks
    run in severity order so a single broken step reports its most
    fundamental cause.
    """
    world = _World(scope)
    if mutation is not None:
        MUTATIONS[mutation](world.fabric)
    # Spec charges bind to the platform preset, not the live fabric:
    # a mutated (or miscalibrated) fabric cost model must *diverge*
    # from the spec, not silently redefine it.
    plat = PLATFORMS[scope.platform]()
    cost = plat.cost
    pipeline = plat.write_pipeline
    # Shadow data-version oracle: versions[l] is the newest write's
    # version; copies[l][agent] is the version each cached copy carries.
    versions = [0] * len(scope.line_homes)
    copies: List[Dict[int, int]] = [{} for _ in scope.line_homes]
    transitions: List[Optional[str]] = []
    for step, op in enumerate(seq):
        agent_index, write, line_index = op
        pre = world.abstract()
        key = _situation(scope, pre, op)
        tid = _BY_KEY.get(key) if key is not None else None
        before = world.counters()
        sent_before = world.messages()
        lat = world.apply(op)
        delta = _delta(before, world.counters())
        sent = [
            _delta(b, a) for b, a in zip(sent_before, world.messages())
        ]
        post = world.abstract()
        try:
            world.fabric.check_invariants()
        except CoherenceError as exc:
            return _Outcome(post, transitions, _violation(
                "swmr", f"fabric invariant violated: {exc}",
                step, scope, seq, {"state": _state_doc(post)},
            ))
        if tid is None:
            return _Outcome(post, transitions, _violation(
                "transition-unknown",
                f"no spec transition matches situation {key!r}",
                step, scope, seq,
                {"situation": list(key) if key else None,
                 "pre": _state_doc(pre)},
            ))
        rule = TRANSITIONS[tid]
        expected = _expected_post(scope, pre, op, rule)
        if post != expected:
            return _Outcome(post, transitions, _violation(
                "transition-mismatch",
                f"transition {tid} produced a post-state outside the spec",
                step, scope, seq,
                {"transition": tid, "expected": _state_doc(expected),
                 "observed": _state_doc(post)},
            ))
        want_lat = cost.resolve(rule.cost_case)
        if rule.pipelined:
            want_lat /= pipeline
        if abs(lat - want_lat) > COST_TOL_NS:
            return _Outcome(post, transitions, _violation(
                "cost-mismatch",
                f"transition {tid} charged {lat:.3f} ns, spec says "
                f"{rule.cost_case}{'/wp' if rule.pipelined else ''} = {want_lat:.3f} ns",
                step, scope, seq,
                {"transition": tid, "expected_ns": want_lat, "observed_ns": lat},
            ))
        socket = scope.agents[agent_index][1]
        want_counters = {f"s{socket}.{c}": 1.0 for c in rule.counters}
        if delta != want_counters:
            return _Outcome(post, transitions, _violation(
                "counter-mismatch",
                f"transition {tid} bumped {delta}, spec says {want_counters}",
                step, scope, seq,
                {"transition": tid, "expected": want_counters, "observed": delta},
            ))
        # Exact in scope: unbounded capacity, no prefetcher, no faults.
        want_sent: List[Dict[str, int]] = [{}, {}]
        if rule.messages:
            request, response = rule.messages
            want_sent[socket][request.value] = 1
            want_sent[1 - socket][response.value] = 1
        if sent != want_sent:
            return _Outcome(post, transitions, _violation(
                "message-mismatch",
                f"transition {tid} sent {sent} (per link direction), "
                f"spec says {want_sent}",
                step, scope, seq,
                {"transition": tid, "expected": want_sent, "observed": sent},
            ))
        # Stale-read oracle (order matters: sourcing before the write bump).
        stale = None
        if write:
            versions[line_index] += 1
            copies[line_index] = {agent_index: versions[line_index]}
        else:
            if pre[line_index][agent_index] is not None:
                got = copies[line_index].get(agent_index, 0)
            elif key[0] == "dram":
                got = versions[line_index]  # memory is never stale in-scope
            else:
                holders = [i for i, s in enumerate(pre[line_index]) if s is not None]
                dirty = [i for i in holders if pre[line_index][i] == "M"]
                source = dirty[0] if dirty else holders[0]
                got = copies[line_index].get(source, 0)
            if got != versions[line_index]:
                stale = got
            copies[line_index][agent_index] = got
        # Prune shadow copies the protocol just invalidated.
        copies[line_index] = {
            i: v for i, v in copies[line_index].items()
            if post[line_index][i] is not None
        }
        if stale is not None:
            return _Outcome(post, transitions, _violation(
                "stale-read",
                f"{scope.agents[agent_index][0]} read version {stale} of line "
                f"{line_index} after it reached version {versions[line_index]}",
                step, scope, seq,
                {"read_version": stale, "newest_version": versions[line_index]},
            ))
        transitions.append(tid)
        world.settle()
    return _Outcome(world.abstract(), transitions, None)


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        k: after[k] - before.get(k, 0)
        for k in after
        if after[k] != before.get(k, 0)
    }


def _state_doc(state: tuple) -> List[List[Optional[str]]]:
    return [list(line) for line in state]


def _shrink(scope: ModelScope, seq: tuple, invariant: str, mutation) -> tuple:
    """Greedy one-op removal keeping the same invariant violation."""
    current = tuple(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if not candidate:
                continue
            out = _run_sequence(scope, candidate, mutation)
            if out.violation is not None and out.violation["invariant"] == invariant:
                current = candidate
                changed = True
                break
    return current


def _all_ops(scope: ModelScope) -> List[Tuple[int, bool, int]]:
    return [
        (agent_index, write, line_index)
        for agent_index in range(len(scope.agents))
        for write in (False, True)
        for line_index in range(len(scope.line_homes))
    ]


def check_model(
    scope: Optional[ModelScope] = None,
    mutation: Optional[str] = None,
    seed: int = 0,
    walks: int = 32,
    walk_depth: int = 12,
    max_counterexamples: int = 3,
) -> Dict[str, Any]:
    """Exhaustively enumerate the scope; returns a ``model-v1`` report.

    BFS over abstract line-state configurations: from every reachable
    state (reached via its shortest witness sequence), every op in the
    scope is probed through a fresh fabric. Seeded
    random walks (``sim/rng``-derived) then re-cover the relation with
    longer mixed sequences. ``mutation`` names a deliberate fabric bug
    from :data:`MUTATIONS` to prove the checker catches it.
    """
    scope = scope or ModelScope()
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(
            f"unknown mutation {mutation!r}; pick from {sorted(MUTATIONS)}"
        )
    ops = _all_ops(scope)
    coverage: Dict[str, int] = {tid: 0 for tid in TRANSITIONS}
    counterexamples: List[Dict[str, Any]] = []
    initial = tuple(
        tuple(None for _ in scope.agents) for _ in scope.line_homes
    )
    witnesses: Dict[tuple, tuple] = {initial: ()}
    frontier = deque([initial])
    probes = 0
    truncated = False
    max_depth = 0

    def record_violation(out: _Outcome, seq: tuple) -> None:
        violation = out.violation
        if len(counterexamples) >= max_counterexamples:
            return
        shrunk = _shrink(scope, seq, violation["invariant"], mutation)
        final = _run_sequence(scope, shrunk, mutation).violation or violation
        counterexamples.append({
            "invariant": final["invariant"],
            "message": final["message"],
            "sequence": [op_to_doc(op, scope) for op in shrunk],
            "step": final["step"],
            "detail": final["detail"],
            "shrunk_from": len(seq),
        })

    while frontier and probes < MAX_PROBES:
        state = frontier.popleft()
        witness = witnesses[state]
        for op in ops:
            if probes >= MAX_PROBES:
                truncated = True
                break
            probes += 1
            seq = witness + (op,)
            out = _run_sequence(scope, seq, mutation)
            if out.violation is not None:
                record_violation(out, seq)
                continue
            coverage[out.transitions[-1]] += 1
            max_depth = max(max_depth, len(seq))
            if out.post not in witnesses:
                witnesses[out.post] = seq
                frontier.append(out.post)
    if frontier:
        truncated = True

    rng = make_rng(seed, "model-walk")
    for _ in range(walks):
        seq = tuple(ops[rng.randrange(len(ops))] for _ in range(walk_depth))
        probes += 1
        out = _run_sequence(scope, seq, mutation)
        if out.violation is not None:
            record_violation(out, seq)
            continue
        for tid in out.transitions:
            coverage[tid] += 1

    missing = sorted(tid for tid, count in coverage.items() if count == 0)
    report = {
        "schema": MODEL_SCHEMA,
        "kind": "model",
        "scope": scope.to_doc(),
        "seed": seed,
        "walks": walks,
        "walk_depth": walk_depth,
        "mutation": mutation,
        "states": len(witnesses),
        "probes": probes,
        "ops": len(ops),
        "max_witness_depth": max_depth,
        "truncated": truncated,
        "transitions": {
            tid: {
                "count": coverage[tid],
                "description": rule.description,
                "observable": rule.observable,
            }
            for tid, rule in sorted(TRANSITIONS.items())
        },
        "coverage": {
            "total": len(TRANSITIONS),
            "reached": len(TRANSITIONS) - len(missing),
            "missing": missing,
        },
        "counterexamples": counterexamples,
    }
    report["ok"] = not counterexamples and not missing and not truncated
    return report


def replay_counterexample(report: Dict[str, Any], index: int = 0) -> Dict[str, Any]:
    """Re-run a report's counterexample; returns the reproduced violation.

    Raises :class:`ModelCheckError` if the sequence no longer violates
    anything (the report is stale against the current fabric).
    """
    entries = report.get("counterexamples", ())
    if not 0 <= index < len(entries):
        raise ConfigError(
            f"report has {len(entries)} counterexample(s); index {index} invalid"
        )
    entry = entries[index]
    scope = ModelScope.from_doc(report["scope"])
    seq = tuple(op_from_doc(doc, scope) for doc in entry["sequence"])
    out = _run_sequence(scope, seq, report.get("mutation"))
    if out.violation is None:
        raise ModelCheckError(
            f"counterexample {index} no longer reproduces "
            f"({entry['invariant']}); the fabric has changed since the report",
            invariant=entry["invariant"],
            sequence=entry["sequence"],
        )
    return out.violation


def raise_on_failure(report: Dict[str, Any]) -> None:
    """Raise :class:`ModelCheckError` when a report is not ok."""
    if report["ok"]:
        return
    if report["counterexamples"]:
        first = report["counterexamples"][0]
        raise ModelCheckError(
            f"model check failed: {first['message']}",
            invariant=first["invariant"],
            sequence=first["sequence"],
            step=first["step"],
            detail=first["detail"],
        )
    missing = report["coverage"]["missing"]
    raise ModelCheckError(
        f"model check incomplete: {len(missing)} spec transition(s) unreached",
        invariant="coverage",
        detail={"missing": missing, "truncated": report["truncated"]},
    )


# ----------------------------------------------------------------------
# Seeded fabric mutations (deliberate bugs the checker must catch)
# ----------------------------------------------------------------------
def _edit_rules(fabric: CoherenceFabric, tids, **changes) -> None:
    """Hand ``fabric`` a copy of the table with ``changes`` made to
    ``tids``; the checker keeps reading the unedited table."""
    rules = dict(TRANSITIONS)
    for tid in tids:
        rules[tid] = dataclasses.replace(rules[tid], **changes)
    fabric.rules = rules
    fabric.invalidate_plans()


def _mutate_skip_hitm_forward(fabric: CoherenceFabric) -> None:
    """The dirty holder keeps its M copy after a HITM read transfer."""
    _edit_rules(
        fabric,
        [tid for tid in TRANSITIONS
         if tid.startswith("read_miss_") and "_dirty" in tid],
        others="keep",
    )


def _mutate_skip_remote_invalidate(fabric: CoherenceFabric) -> None:
    """Store upgrades leave remote copies in place (no invalidation)."""
    _edit_rules(fabric, ["write_upgrade_remote"], others="keep")


def _mutate_read_as_rfo(fabric: CoherenceFabric) -> None:
    """Remote read fills answer with an RFO while counting a READ."""
    _edit_rules(
        fabric,
        [tid for tid, rule in TRANSITIONS.items()
         if not rule.write and rule.messages],
        messages=(MessageClass.SNOOP, MessageClass.RFO),
    )


def _mutate_undercharge_remote_cache(fabric: CoherenceFabric) -> None:
    """Remote-cache fills charged at the local-cache constant."""
    cost = fabric.cost
    fabric.cost = dataclasses.replace(
        cost,
        remote_cache_writer_homed=cost.local_cache,
        remote_cache_reader_homed=cost.local_cache,
    )


#: Named deliberate fabric bugs for ``check --model --mutate``. Each
#: must yield a replayable counterexample; a mutation the checker
#: misses is a hole in the invariant set.
MUTATIONS = {
    "read-as-rfo": _mutate_read_as_rfo,
    "skip-hitm-forward": _mutate_skip_hitm_forward,
    "skip-remote-invalidate": _mutate_skip_remote_invalidate,
    "undercharge-remote-cache": _mutate_undercharge_remote_cache,
}


def format_model_summary(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a model-check report."""
    from repro.analysis.tables import format_table

    cov = report["coverage"]
    lines = [
        f"model check: {report['states']} states, {report['probes']} probes, "
        f"coverage {cov['reached']}/{cov['total']}"
        + (f", mutation={report['mutation']}" if report["mutation"] else ""),
    ]
    rows = [
        [tid, str(info["count"]), info["observable"]]
        for tid, info in sorted(report["transitions"].items())
    ]
    lines.append(format_table(["transition", "count", "observable"], rows))
    if cov["missing"]:
        lines.append("UNREACHED: " + ", ".join(cov["missing"]))
    for i, ce in enumerate(report["counterexamples"]):
        steps = " ; ".join(
            f"{name} {op} L{line}" for name, op, line in ce["sequence"]
        )
        lines.append(
            f"counterexample[{i}] {ce['invariant']} at step {ce['step']}: "
            f"{ce['message']}\n  replay: {steps}"
        )
    lines.append("RESULT: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines)
