"""Cohort-schedule explorer: permute same-timestamp dispatch order.

Cohort batching made intra-cohort dispatch order a real degree of
freedom: every set of timestamp-tied event records is drained in seq
(insertion) order, and nothing in the dynamic checks ever exercises a
different order. This module drives the engine's
:attr:`~repro.sim.engine.Simulator.chooser` hook to *systematically*
permute that order on small registered scenarios, asserting after every
explored schedule that

* the merged result fingerprint equals the canonical schedule's (tie
  order is incidental, so any divergence is latent nondeterminism that
  a fixed-order run cannot see), and
* the runtime sanitizer stays clean (a reordering that surfaces a
  happens-before race is a protocol bug, not a tolerable quirk).

Exploration is a deviation-bounded DFS: the canonical run (every choice
index 0) discovers the choice points; each explored schedule deviates
from canonical at up to ``max_deviations`` points, extending only at
ordinals past its last deviation so no plan is visited twice. A partial
order reduction prunes deviations whose event footprints
(:class:`~repro.sim.engine.Process` ``footprint``) are pairwise
disjoint from every record they would overtake — such swaps commute by
construction. Records without footprints are never pruned.

One cohort is special-cased: the *bootstrap* cohort at ``t == 0``
holds the first steps of the spawned processes, whose order is the
scenario's program-defined initialization order (a poller's first poll
racing the producer's first post is resolved by spawn order, exactly
like thread-creation order in a real driver). Deviating there changes
when the first work is noticed, so bootstrap deviations are still
explored — the sanitizer must stay clean under *any* initialization
order — but their fingerprint divergence is reported informationally
(``bootstrap_divergent``) rather than as a failure. Fingerprint
equality is enforced on every cohort that *emerges* at ``t > 0`` from
timing collisions; those are the orderings nothing defines.

Reports share the ``repro.check/model-v1`` stamp with the protocol
model checker (``kind`` distinguishes them); failures carry the
replayable deviation plan (see :func:`replay_schedule`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.check.sanitizer import Sanitizer
from repro.errors import ConfigError, ModelCheckError
from repro.obs.export import MODEL_SCHEMA
from repro.obs.instrument import Observability
from repro.shard.merge import fingerprint, merge_results
from repro.shard.runner import execute_spec, lookahead_ns
from repro.shard.spec import ScenarioSpec, scenario
from repro.sim.engine import Simulator

#: Scenarios explored by default: the two cheap, fault-free built-ins.
DEFAULT_SCENARIOS = ("loopback_64b", "kv_zipf")

#: Default op/packet count per explored schedule (kept tiny: every
#: schedule is a full scenario run).
DEFAULT_OPS = 48

#: Default bound on simultaneous deviations from the canonical order.
DEFAULT_DEVIATIONS = 1

#: Default bound on choice-point ordinals eligible for deviation.
DEFAULT_POINTS = 40

#: Default cap on explored schedules per scenario (canonical included).
DEFAULT_SCHEDULES = 64


class _PlanChooser:
    """A :attr:`Simulator.chooser` that replays a deviation plan.

    ``plan`` maps choice-point ordinal -> cohort index; unlisted
    ordinals take index 0 (canonical). Every invocation also records
    the cohort's shape (timestamp, size, per-record footprints) so the
    explorer can grow new deviations from what this schedule saw.
    """

    def __init__(self, plan: Dict[int, int]) -> None:
        self.plan = dict(plan)
        self.points: List[Dict[str, Any]] = []

    def __call__(self, when: float, records: List[list]) -> int:
        ordinal = len(self.points)
        self.points.append({
            "when": when,
            "size": len(records),
            "bootstrap": when == 0.0,
            "footprints": [getattr(rec[3], "footprint", None) for rec in records],
        })
        index = self.plan.get(ordinal, 0)
        if index >= len(records):
            # A deviation planned from an earlier schedule's larger
            # cohort: this schedule diverged before reaching it, so the
            # plan entry no longer applies. Fall back to canonical.
            return 0
        return index


def _commutes(point: Dict[str, Any], index: int) -> bool:
    """True when dispatching record ``index`` first provably commutes.

    Requires every overtaken record (0..index-1) *and* the candidate to
    carry a footprint, all pairwise disjoint with the candidate's; any
    ``None`` footprint blocks pruning (unknown state may conflict).
    """
    footprints = point["footprints"]
    mine = footprints[index]
    if mine is None:
        return False
    for other in footprints[:index]:
        if other is None or not mine.isdisjoint(other):
            return False
    return True


def _deviations(plan: Dict[int, int]) -> int:
    return sum(1 for index in plan.values() if index != 0)


def explore_plans(
    run_schedule,
    max_deviations: int = DEFAULT_DEVIATIONS,
    max_points: int = DEFAULT_POINTS,
    max_schedules: int = DEFAULT_SCHEDULES,
) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Deviation-bounded DFS over cohort-dispatch plans.

    ``run_schedule(plan)`` executes one schedule and returns
    ``(outcome, points)`` where ``outcome`` is any caller-defined
    per-schedule record and ``points`` the observed choice points.
    Returns ``(schedules, pruned, truncated)``: one
    ``{"plan", "outcome", "bootstrap"}`` entry per executed schedule
    (canonical first; ``bootstrap`` marks plans that deviate inside the
    ``t == 0`` initialization cohort), the count of deviations pruned
    by the partial-order reduction, and whether ``max_schedules`` cut
    exploration short.
    """
    outcome, points = run_schedule({})
    schedules = [{"plan": {}, "outcome": outcome, "bootstrap": False}]
    pruned = 0
    truncated = False
    stack: List[Tuple[Dict[int, int], bool, List[Dict[str, Any]]]] = [
        ({}, False, points)
    ]
    while stack:
        plan, bootstrap, points = stack.pop()
        if _deviations(plan) >= max_deviations:
            continue
        base = max(plan, default=-1)
        for ordinal in range(base + 1, min(len(points), max_points)):
            for index in range(1, points[ordinal]["size"]):
                if _commutes(points[ordinal], index):
                    pruned += 1
                    continue
                if len(schedules) >= max_schedules:
                    truncated = True
                    return schedules, pruned, truncated
                candidate = dict(plan)
                candidate[ordinal] = index
                touched_bootstrap = bootstrap or points[ordinal]["bootstrap"]
                outcome, seen = run_schedule(candidate)
                schedules.append({
                    "plan": candidate,
                    "outcome": outcome,
                    "bootstrap": touched_bootstrap,
                })
                stack.append((candidate, touched_bootstrap, seen))
    return schedules, pruned, truncated


def _scoped_spec(spec: ScenarioSpec, ops: int) -> ScenarioSpec:
    """Single-shard, count-bounded variant of a registered spec."""
    changes: Dict[str, Any] = {"shards": 1}
    if spec.workload == "kv":
        changes["n_ops"] = ops
        changes["n_ops_quick"] = ops
    else:
        changes["n_packets"] = ops
        changes["n_packets_quick"] = ops
    return spec.replace(**changes)


def _run_scenario_schedule(
    spec: ScenarioSpec, plan: Dict[int, int], sanitize: bool
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Execute one scenario schedule; returns (outcome, choice points)."""
    chooser = _PlanChooser(plan)
    sanitizer = Sanitizer() if sanitize else None

    def attach(setup) -> None:
        setup.instrument(Observability(sanitizer=sanitizer))

    previous = Simulator.chooser
    Simulator.chooser = chooser
    try:
        result = execute_spec(
            spec, attach=attach if sanitize else None
        )
    finally:
        Simulator.chooser = previous
    merged = merge_results(
        [dict(result, index=0)], spec.name, lookahead_ns(spec)
    )
    outcome = {
        "fingerprint": fingerprint(merged),
        "events": int(result["events"]),
        "choice_points": len(chooser.points),
        "sanitizer_total": sanitizer.total if sanitizer is not None else None,
        "sanitizer_counts": dict(sanitizer.counts) if sanitizer is not None else None,
    }
    return outcome, chooser.points


def check_explore(
    scenarios: Tuple[str, ...] = DEFAULT_SCENARIOS,
    ops: int = DEFAULT_OPS,
    max_deviations: int = DEFAULT_DEVIATIONS,
    max_points: int = DEFAULT_POINTS,
    max_schedules: int = DEFAULT_SCHEDULES,
    sanitize: bool = True,
) -> Dict[str, Any]:
    """Explore cohort schedules for each scenario; ``model-v1`` report.

    Every explored schedule must keep the sanitizer clean, and every
    schedule whose deviations all lie in emergent (``t > 0``) cohorts
    must fingerprint-match the canonical schedule of the same scoped
    spec. Schedules that permute the ``t == 0`` bootstrap cohort are
    sanitizer-checked but fingerprint-informational (see the module
    docstring). ``ops`` bounds the per-schedule packet/op count; the
    deviation, choice-point and schedule caps bound the DFS (these
    four numbers are the documented scope bound).
    """
    if ops < 1:
        raise ConfigError(f"ops must be >= 1, got {ops}")
    per_scenario: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    for name in scenarios:
        spec = _scoped_spec(scenario(name), ops)

        def run_schedule(plan, spec=spec):
            return _run_scenario_schedule(spec, plan, sanitize)

        schedules, pruned, truncated = explore_plans(
            run_schedule, max_deviations, max_points, max_schedules
        )
        canonical = schedules[0]["outcome"]
        enforced = [e for e in schedules if not e["bootstrap"]]
        fingerprints = {e["outcome"]["fingerprint"] for e in enforced}
        bootstrap_divergent = sum(
            1 for e in schedules
            if e["bootstrap"]
            and e["outcome"]["fingerprint"] != canonical["fingerprint"]
        )
        for entry in schedules:
            outcome = entry["outcome"]
            plan_doc = {str(k): v for k, v in sorted(entry["plan"].items())}
            if (
                not entry["bootstrap"]
                and outcome["fingerprint"] != canonical["fingerprint"]
            ):
                failures.append({
                    "invariant": "fingerprint-diverged",
                    "scenario": name,
                    "message": (
                        f"{name}: schedule {plan_doc} fingerprints "
                        f"{outcome['fingerprint']}, canonical is "
                        f"{canonical['fingerprint']}"
                    ),
                    "plan": plan_doc,
                    "detail": {
                        "fingerprint": outcome["fingerprint"],
                        "canonical": canonical["fingerprint"],
                        "events": outcome["events"],
                        "canonical_events": canonical["events"],
                    },
                })
            if sanitize and outcome["sanitizer_total"]:
                failures.append({
                    "invariant": "sanitizer-violation",
                    "scenario": name,
                    "message": (
                        f"{name}: schedule {plan_doc} raised "
                        f"{outcome['sanitizer_total']} sanitizer finding(s)"
                    ),
                    "plan": plan_doc,
                    "detail": {"counts": outcome["sanitizer_counts"]},
                })
        per_scenario.append({
            "scenario": name,
            "spec": spec.to_doc(),
            "schedules": len(schedules),
            "enforced_schedules": len(enforced),
            "bootstrap_schedules": len(schedules) - len(enforced),
            "bootstrap_divergent": bootstrap_divergent,
            "choice_points": canonical["choice_points"],
            "pruned": pruned,
            "truncated": truncated,
            "fingerprints": sorted(fingerprints),
            "canonical_fingerprint": canonical["fingerprint"],
            "events": canonical["events"],
        })
    report = {
        "schema": MODEL_SCHEMA,
        "kind": "explore",
        "scenarios": per_scenario,
        "scope": {
            "ops": ops,
            "max_deviations": max_deviations,
            "max_points": max_points,
            "max_schedules": max_schedules,
            "sanitize": sanitize,
        },
        "schedules": sum(s["schedules"] for s in per_scenario),
        "counterexamples": failures,
        "ok": not failures,
    }
    return report


def replay_schedule(report: Dict[str, Any], index: int = 0) -> Dict[str, Any]:
    """Re-run a failed schedule from an explore report.

    Returns the re-run's outcome dict; raises :class:`ModelCheckError`
    if the failure no longer reproduces.
    """
    entries = report.get("counterexamples", ())
    if not 0 <= index < len(entries):
        raise ConfigError(
            f"report has {len(entries)} counterexample(s); index {index} invalid"
        )
    entry = entries[index]
    scope = report["scope"]
    spec = _scoped_spec(scenario(entry["scenario"]), scope["ops"])
    plan = {int(k): v for k, v in entry["plan"].items()}
    sanitize = scope["sanitize"]
    outcome, _points = _run_scenario_schedule(spec, plan, sanitize)
    canonical, _points = _run_scenario_schedule(spec, {}, sanitize)
    diverged = outcome["fingerprint"] != canonical["fingerprint"]
    dirty = bool(sanitize and outcome["sanitizer_total"])
    if not diverged and not dirty:
        raise ModelCheckError(
            f"schedule counterexample {index} no longer reproduces "
            f"({entry['invariant']}); the engine or scenario has changed",
            invariant=entry["invariant"],
            sequence=sorted(entry["plan"].items()),
        )
    return outcome


def format_explore_summary(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of an explore report."""
    from repro.analysis.tables import format_table

    scope = report["scope"]
    lines = [
        f"schedule exploration: {report['schedules']} schedule(s), "
        f"ops={scope['ops']}, deviations<={scope['max_deviations']}, "
        f"points<={scope['max_points']}, sanitize={scope['sanitize']}",
    ]
    rows = [
        [
            entry["scenario"],
            str(entry["schedules"]),
            str(entry["bootstrap_schedules"]),
            str(entry["choice_points"]),
            str(entry["pruned"]),
            str(len(entry["fingerprints"])),
            str(entry["bootstrap_divergent"]),
            "yes" if entry["truncated"] else "no",
        ]
        for entry in report["scenarios"]
    ]
    lines.append(format_table(
        ["scenario", "schedules", "bootstrap", "choice points", "pruned",
         "fingerprints", "boot divergent", "truncated"],
        rows,
    ))
    for i, failure in enumerate(report["counterexamples"]):
        lines.append(f"counterexample[{i}] {failure['invariant']}: {failure['message']}")
    lines.append("RESULT: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines)
