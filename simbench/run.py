"""Benchmark of the CC-NIC simulator: host time and modeled NIC results.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload loopback_64b --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``simbench/README.md``). The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 when every output check passed, 1 when one failed and 2
when the simulator's sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_mops": "Mop/sim_s",
    "model_p50_ns": "sim_ns",
    "model_p99_ns": "sim_ns",
    "completed_frac": "fraction",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ns"):
        return "sim_ns"
    if name.endswith("wire_bytes_per_op"):
        return "B/op"
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith("events_per_sec"):
        return "1/s"
    if name.endswith("rx_poll_yield"):
        return "pkt/call"
    if name.endswith(("share", "_frac", "_frac_max", "_ratio")):
        return "fraction"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(BENCH_DIR)]
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"unknown workload {args.workload!r} (choose from {', '.join(harness.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2

    spec = harness.workload_spec(args.workload, args.seed)
    reference = harness.reference_fingerprint(spec)
    m = harness.measure(spec, args.seconds, trace=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, all outside the timed windows.
    committed = None
    if args.seed == harness.COMMITTED_SEED:
        committed = harness.committed_fingerprint(ROOT, args.workload)
    failures = harness.check_outputs(m, reference, committed)
    anchors, drift = harness.calibration()
    failures += drift
    stages, stage_samples, stage_failures = harness.waterfall()
    failures += stage_failures

    merged = m.doc["merged"]
    print(f"workload {args.workload}  seed {args.seed}  fingerprint {reference}"
          + (f"  committed {committed}" if committed else ""))
    print(f"repetitions: {len(m.reps)} untraced, {len(m.traced)} traced")
    print("calibration anchors (paper, measured, relative error, tolerance):")
    for name, paper, measured, error, tolerance in anchors:
        print(f"  {name:28s} {paper:10.4g} {measured:10.4g} {error:+8.2%}  ±{tolerance:.0%}")

    if args.trace:
        metrics = harness.per_layer(m)
        metrics.update(stages)
        units = {name: per_layer_unit(name) for name in metrics}
        notes = {name: f"(waterfall, {stage_samples} packets)" for name in stages}
    else:
        print(
            "host time as measured: median wall %.4f s, set-up %.4f s; probe %.5f s "
            "(reference %.5f s)" % (
                median(r.wall_s for r in m.reps),
                median(r.setup_s for r in m.reps),
                median(r.probe_s for r in m.reps),
                harness.REFERENCE_S,
            )
        )
        metrics = harness.end_to_end(m, peak_rss_mb)
        units = END_TO_END_UNITS
        notes = {
            "model_p50_ns": f"(n={merged['latency_count']})",
            "model_p99_ns": f"(n={merged['latency_count']})",
        }
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]:10s} {notes.get(name, '')}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    reps = len(m.reps) + len(m.traced)
    per_rep_failed = harness.offered(spec) - harness.completed(merged)
    result = {
        "correct": not failures,
        "attempted": harness.offered(spec) * reps,
        "failed": per_rep_failed * reps,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
