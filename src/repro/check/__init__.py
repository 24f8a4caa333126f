"""Protocol sanitizer, determinism lint, and model-checking suite
(``repro.check``).

Four heads, one contract — catch protocol and reproducibility bugs that
timing-level tests can miss:

* :class:`Sanitizer` — a runtime happens-before checker over the
  simulated coherence domain. It attaches like the flight recorder,
  in the :class:`~repro.obs.Observability` bundle passed as ``obs=``
  (one ``None`` test per hook site detached; attached it watches the
  fabric's plan path, so sanitized runs stay fingerprint-identical) and
  reports descriptor
  races, torn grouped reads, double reaps, blank-skip violations,
  buffer use-after-free / double-free across the host<->NIC pool
  handoff, and writer-homing violations.
* :func:`run_lint` — a visitor-based static linter over the source
  tree enforcing the determinism contracts the simulator rests on: no
  wall-clock or unseeded randomness, zero-cost-detached hook guards, no
  ``id()``-keyed iteration, the ``repro.errors`` exception taxonomy, no additive
  time/size unit mixing, and no stale waivers. Inline
  ``# repro: allow(<rule>)`` waivers are counted, never silent.
* :func:`check_model` — a small-scope exhaustive model checker that
  drives the real coherence fabric through every short op sequence over
  a few agents and lines, checking each observed transition, cost,
  counter delta and link message against ``TRANSITIONS``, the MESIF
  table in :mod:`repro.coherence.transitions` that the fabric compiles
  its plans from (plus SWMR and stale-read invariants), with shrunk
  replayable counterexamples and a transition-coverage table.
  ``MUTATIONS`` holds seeded protocol bugs for checking the checker.
* :func:`check_explore` — a bounded DFS over intra-cohort dispatch
  orders (via the engine's ``chooser`` hook) on small registered
  scenarios, with partial-order pruning on disjoint footprints,
  asserting merged-fingerprint stability and sanitizer cleanliness
  across every explored schedule.

Surface through the CLI: ``python -m repro check`` (lint),
``check --model`` / ``--mutate`` / ``--explore``, and ``--sanitize`` /
``--sanitize=strict`` on loopback/kv/rpc runs.
"""

from repro.check.explore import (
    check_explore,
    explore_plans,
    format_explore_summary,
    replay_schedule,
)
from repro.check.hb import HBTracker, VectorClock
from repro.check.lint import (
    LintFinding,
    LintReport,
    format_lint_findings,
    format_lint_summary,
    lint_source,
    run_lint,
)
from repro.check.model import (
    MUTATIONS,
    ModelScope,
    check_model,
    format_model_summary,
    raise_on_failure,
    replay_counterexample,
)
from repro.check.rules import LintRule, default_rules
from repro.check.sanitizer import METADATA_CLASSES, Sanitizer, Violation
from repro.coherence.transitions import TRANSITIONS
from repro.obs.export import LINT_SCHEMA, MODEL_SCHEMA, SANITIZE_SCHEMA

__all__ = [
    "HBTracker",
    "LINT_SCHEMA",
    "LintFinding",
    "LintReport",
    "LintRule",
    "METADATA_CLASSES",
    "MODEL_SCHEMA",
    "MUTATIONS",
    "ModelScope",
    "SANITIZE_SCHEMA",
    "Sanitizer",
    "TRANSITIONS",
    "VectorClock",
    "Violation",
    "check_explore",
    "check_model",
    "default_rules",
    "explore_plans",
    "format_explore_summary",
    "format_lint_findings",
    "format_lint_summary",
    "format_model_summary",
    "lint_source",
    "raise_on_failure",
    "replay_counterexample",
    "replay_schedule",
    "run_lint",
]
