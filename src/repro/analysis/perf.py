"""Self-benchmarking harness: simulation speed as a first-class metric.

Every figure reproduction funnels through the same hot paths — the
event loop in :mod:`repro.sim.engine`, protocol cost resolution in
:mod:`repro.coherence.fabric`, and link/telemetry accounting — so the
repo benchmarks *itself*: ``python -m repro perf`` runs the registered
scenarios, reports wall-clock seconds, **events per second** and peak
RSS, and writes the trajectory document ``BENCH_sim_perf.json`` at the
repo root.

Scenarios are no longer hardcoded here: they are
:class:`~repro.shard.ScenarioSpec` entries in the
:mod:`repro.shard.spec` registry, so ``--scenario`` accepts anything
registered — including user scenarios pulled in with ``--register``.
Each scenario is a fixed partition of per-queue-pair shards;
``run_scenario(..., workers=n)`` executes that partition across ``n``
processes. The merged metric *fingerprint* — a hash over every shard's
end-to-end metrics plus the merged reduction — is invariant under the
worker count, and the harness proves it on every ``--shards`` run by
re-running the partition single-process and comparing. ``repeat`` runs
must reproduce the same merged document too.

The committed floor in ``benchmarks/perf/baseline.json`` is what CI's
perf-smoke job regresses against (see :func:`check_regression`).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.shard import run_sharded, scenario, scenario_names
from repro.shard.merge import fingerprint as _merged_fingerprint

#: Schema version of the BENCH document.
BENCH_SCHEMA = 2
#: Default output path, relative to the invoking directory (repo root).
DEFAULT_BENCH_PATH = "BENCH_sim_perf.json"
#: Committed events/sec floor used by the CI perf-smoke job.
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "perf", "baseline.json")


def _fingerprint(snapshot: Dict) -> str:
    """Stable short hash of a run's end-to-end metric snapshot."""
    return _merged_fingerprint(snapshot)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class PerfMeasurement:
    """One timed scenario run (single-process or parallel)."""

    scenario: str
    wall_s: float
    events: int
    events_per_sec: float
    sim_ns: float
    peak_rss_kb: int
    fingerprint: str
    extra: Dict[str, float]
    n_shards: int = 1
    workers: int = 1
    #: Merged per-edge fabric counters (``edge:dir:field`` -> value) when
    #: the scenario runs on a :mod:`repro.topology` graph; None otherwise.
    topology: Optional[Dict[str, float]] = None

    def to_doc(self) -> Dict:
        doc = {
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_ns": self.sim_ns,
            "peak_rss_kb": self.peak_rss_kb,
            "fingerprint": self.fingerprint,
            "n_shards": self.n_shards,
            "workers": self.workers,
            "extra": self.extra,
        }
        if self.topology is not None:
            doc["topology"] = self.topology
        return doc


def _peak_rss_kb() -> int:
    """Peak RSS over this process and any reaped shard workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, children))


def run_scenario(
    name: str,
    quick: bool = False,
    repeat: int = 1,
    workers: int = 1,
) -> PerfMeasurement:
    """Time one scenario.

    The scenario's fixed shard partition executes on ``workers``
    processes (1 = sequential in this process — the baseline every
    parallel run must reproduce bit-identically). ``repeat`` reruns the
    scenario and keeps the *minimum* wall time (the standard way to
    strip scheduler noise from a wall-clock benchmark). Every repeat
    must reproduce the same merged document — a divergence means the
    simulation itself is nondeterministic, which no amount of timing
    tolerance should paper over.
    """
    spec = scenario(name)
    wall = None
    run = None
    for _ in range(max(1, repeat)):
        this = run_sharded(spec, workers=workers, quick=quick)
        if run is not None and this.doc != run.doc:
            raise SimulationError(
                f"scenario {name!r} is nondeterministic across repeats"
            )
        run = this
        wall = this.wall_s if wall is None else min(wall, this.wall_s)
    return PerfMeasurement(
        scenario=name,
        wall_s=wall,
        events=run.events,
        events_per_sec=run.events / wall if wall > 0 else 0.0,
        sim_ns=run.sim_ns,
        peak_rss_kb=_peak_rss_kb(),
        fingerprint=run.fingerprint,
        extra=run.extra,
        n_shards=run.n_shards,
        workers=run.workers,
        topology=run.doc["merged"].get("topology"),
    )


def run_suite(
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    compare: Sequence[str] = ("loopback_64b",),
    repeat: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    shards: Optional[int] = None,
) -> Dict:
    """Run the suite; returns the ``BENCH_sim_perf.json`` document.

    With ``shards`` set (> 1 worker processes), scenarios named in
    ``compare`` re-run the same partition single-process and the gate
    checks *parallel vs sequential*: same merged fingerprint
    (``deterministic``), with ``speedup`` = parallel events/sec over
    sequential. Single-process runs have nothing to compare against;
    ``repeat`` > 1 still checks determinism across the repeats.
    """
    names = list(scenarios) if scenarios else scenario_names()
    workers = 1 if shards is None else max(1, shards)
    doc: Dict = {
        "bench": "sim_perf",
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "repeat": repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_unix": int(time.time()),  # repro: allow(wall-clock) report timestamp
        "scenarios": {},
    }
    if shards is not None:
        doc["shards"] = workers
    for name in names:
        if progress is not None:
            progress(f"running {name}{' (quick)' if quick else ''} ...")
        run = run_scenario(name, quick=quick, repeat=repeat, workers=workers)
        entry = run.to_doc()
        if name in compare and workers > 1:
            if progress is not None:
                progress(f"running {name} single-process for comparison ...")
            single = run_scenario(name, quick=quick, repeat=repeat, workers=1)
            entry["single_process"] = single.to_doc()
            entry["speedup"] = (
                round(run.events_per_sec / single.events_per_sec, 2)
                if single.events_per_sec > 0
                else None
            )
            entry["deterministic"] = run.fingerprint == single.fingerprint
        doc["scenarios"][name] = entry
    return doc


def write_bench(doc: Dict, path: str = DEFAULT_BENCH_PATH) -> str:
    """Write the BENCH document; returns the path written."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_bench(path: str = DEFAULT_BENCH_PATH) -> Optional[Dict]:
    """A previously written BENCH document, or None when absent/foreign.

    Used by ``perf --compare`` to diff a fresh suite against the
    *committed* trajectory document before overwriting it; anything
    unreadable or from another schema version silently disables the
    diff rather than failing the benchmark.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if doc.get("schema") != BENCH_SCHEMA or "scenarios" not in doc:
        return None
    return doc


def bench_delta_rows(doc: Dict, committed: Dict) -> List[tuple]:
    """Signed per-scenario events/sec deltas vs a committed BENCH doc.

    Rows are ``(scenario, committed ev/s, this run, delta)``; scenarios
    absent from the committed document show as ``new``.
    """
    rows = []
    committed_scenarios = committed.get("scenarios", {})
    for name, entry in doc["scenarios"].items():
        current = entry.get("events_per_sec", 0.0)
        old = committed_scenarios.get(name, {}).get("events_per_sec", 0.0)
        if old <= 0:
            rows.append((name, "-", f"{current:.0f}", "new"))
            continue
        delta = (current - old) / old * 100.0
        rows.append((name, f"{old:.0f}", f"{current:.0f}", f"{delta:+.1f}%"))
    return rows


# ----------------------------------------------------------------------
# cProfile artifact (``python -m repro perf --profile``)
# ----------------------------------------------------------------------
#: Schema version of the profile artifact.
PROFILE_SCHEMA = 1
#: Rows kept in the committed artifact.
PROFILE_TOP = 25


def _short_func(path: str, line: int, name: str) -> str:
    """``src/<pkg-relative>:line(name)`` — stable across checkouts."""
    marker = os.sep + "src" + os.sep
    at = path.rfind(marker)
    if at >= 0:
        path = path[at + len(marker):]
    return f"{path}:{line}({name})"


def profile_scenario(
    name: str, quick: bool = False, top: int = PROFILE_TOP
) -> Dict:
    """cProfile one sequential scenario run; returns the artifact doc.

    The run is forced to one worker: cProfile only sees this process,
    so a pool run would profile dispatch overhead instead of the
    simulation. The document carries the ``top`` functions by
    *cumulative* time (the ISSUE's contract: future perf PRs start
    from data, and cumulative ordering surfaces the layer boundaries
    the flat ``tottime`` view hides).
    """
    import cProfile
    import pstats

    spec = scenario(name)
    profiler = cProfile.Profile()
    profiler.enable()
    run = run_sharded(spec, workers=1, quick=quick)
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = [
        {
            "function": _short_func(*func),
            "ncalls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        }
        for func, (cc, nc, tt, ct, callers) in stats.stats.items()
    ]
    rows.sort(key=lambda r: r["cumtime"], reverse=True)
    total_tt = sum(r["tottime"] for r in rows)
    return {
        "bench": "sim_perf_profile",
        "schema": PROFILE_SCHEMA,
        "scenario": name,
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_unix": int(time.time()),  # repro: allow(wall-clock) report timestamp
        "wall_s": round(run.wall_s, 4),
        "events": run.events,
        "events_per_sec": round(run.events / run.wall_s, 1) if run.wall_s > 0 else 0.0,
        "fingerprint": run.fingerprint,
        "profiled_s": round(total_tt, 4),
        "top": rows[: max(1, top)],
    }


def format_profile(doc: Dict) -> str:
    """Text rendering of a profile artifact (committed alongside it)."""
    lines = [
        f"cProfile: scenario {doc['scenario']}"
        f"{' (quick)' if doc['quick'] else ''} — "
        f"{doc['events']} events, {doc['wall_s']:.3f}s wall "
        f"({doc['events_per_sec']:.0f} events/sec), "
        f"fingerprint {doc['fingerprint']}",
        f"{'cumtime':>10} {'tottime':>10} {'ncalls':>10}  function",
    ]
    for row in doc["top"]:
        lines.append(
            f"{row['cumtime']:>10.4f} {row['tottime']:>10.4f} "
            f"{row['ncalls']:>10}  {row['function']}"
        )
    return "\n".join(lines)


def write_profile(doc: Dict, bench_path: str = DEFAULT_BENCH_PATH) -> List[str]:
    """Write the JSON + text artifacts next to the BENCH document.

    ``<bench stem>_profile.json`` / ``.txt`` — returned in that order.
    """
    stem, _ext = os.path.splitext(bench_path)
    json_path = stem + "_profile.json"
    txt_path = stem + "_profile.txt"
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    with open(txt_path, "w") as fh:
        fh.write(format_profile(doc))
        fh.write("\n")
    return [json_path, txt_path]


# ----------------------------------------------------------------------
# Regression checking (CI perf-smoke gate)
# ----------------------------------------------------------------------
def load_baseline(path: str = DEFAULT_BASELINE_PATH) -> Optional[Dict]:
    """The committed baseline, or None when the file is absent."""
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def check_regression(
    doc: Dict, baseline: Dict, tolerance: float = 0.30
) -> List[str]:
    """Compare a BENCH document against the committed baseline.

    Returns one message per failure: an events/sec figure more than
    ``tolerance`` below the baseline floor, or a parallel run whose
    fingerprint diverged from its single-process rerun. An empty list
    means the gate passes. Scenarios present in only one document are
    skipped (the baseline carries deliberately conservative floors,
    valid for both ``--quick`` and full runs across machine classes). A multi-worker document (``doc["shards"] > 1``)
    is gated against the baseline's nested ``"sharded"`` floor when one
    is committed, since worker dispatch overhead shifts the achievable
    rate on small machines.
    """
    sharded_doc = doc.get("shards", 1) > 1
    failures: List[str] = []
    for name, base in baseline.get("scenarios", {}).items():
        entry = doc["scenarios"].get(name)
        if entry is None:
            continue
        base_rate = base.get("events_per_sec", 0.0)
        if sharded_doc and "sharded" in base:
            base_rate = base["sharded"].get("events_per_sec", base_rate)
        floor = base_rate * (1.0 - tolerance)
        got = entry.get("events_per_sec", 0.0)
        if got < floor:
            failures.append(
                f"{name}: {got:.0f} events/sec is below the regression floor "
                f"{floor:.0f} (baseline {base_rate:.0f} - {tolerance:.0%})"
            )
    for name, entry in doc["scenarios"].items():
        if entry.get("deterministic") is False:
            other = entry.get("single_process", {})
            failures.append(
                f"{name}: parallel and single-process runs produced different "
                f"metric fingerprints ({entry['fingerprint']} vs "
                f"{other.get('fingerprint', '?')})"
            )
    return failures
