"""Deterministic, order-independent merge of per-shard results.

Shard workers return plain-dict results (see
:func:`repro.shard.runner.run_shard`); this module folds them into one
*merged document* whose fingerprint is a pure function of the scenario
partition — independent of worker count, completion order, or which
process ran which shard.

Two properties make that hold:

* **Canonical reduction order.** Results are sorted by shard index
  before any arithmetic, every dict is reduced over sorted keys, and
  latency quantiles are recomputed exactly from the concatenation of
  the shards' raw samples. Float summation order is therefore fixed,
  so the merge is bit-stable, not merely value-stable.
* **No host state.** Wall-clock times, worker counts and RSS never
  enter the merged document; only simulation-determined values do.

The merged snapshot uses the same reduction semantics the hardware
would: counters and link byte/message tallies are sums over queue
pairs, throughput (``mpps``/``mops``) is the aggregate of concurrent
per-QP rates, simulated time is the maximum over shards (the shards run
concurrently in virtual time), and latency percentiles come from the
pooled sample population.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.sim.stats import Histogram, ordered_sum

#: Schema tag of the merged document.
MERGED_SCHEMA = "repro.shard/merged-v1"

#: Snapshot keys that merge as a max over shards (concurrent virtual time).
_MAX_KEYS = ("now", "sim_ns")
#: Snapshot keys recomputed exactly from pooled raw samples.
_QUANTILE_KEYS = ("median_ns", "p99_ns")


def fingerprint(doc: Dict) -> str:
    """Stable short hash of a merged document (or any JSON-safe dict)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _merge_scalar_maps(maps: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of flat ``{name: number}`` dicts, sorted key order."""
    names = sorted({name for m in maps for name in m})
    return {name: ordered_sum(m[name] for m in maps if name in m) for name in names}


def _merge_link(stats: Sequence[List[Dict]]) -> List[Dict]:
    """Element-wise sum of per-direction link stat rows."""
    directions = max((len(rows) for rows in stats), default=0)
    merged: List[Dict] = []
    for direction in range(directions):
        rows = [r[direction] for r in stats if direction < len(r)]
        entry: Dict = {}
        for key in ("messages", "payload", "wire", "busy"):
            entry[key] = ordered_sum(row.get(key, 0) for row in rows)
        for key in ("by_class", "wire_by_class"):
            entry[key] = _merge_scalar_maps([row.get(key, {}) for row in rows])
        merged.append(entry)
    return merged


def _merge_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Fold per-shard scenario snapshots into one, per-key semantics."""
    keys = sorted({key for snap in snapshots for key in snap})
    merged: Dict = {}
    for key in keys:
        values = [snap[key] for snap in snapshots if key in snap]
        if key in _QUANTILE_KEYS:
            continue  # recomputed from pooled samples by merge_results
        if key in _MAX_KEYS:
            merged[key] = max(values)
        elif key == "link":
            merged[key] = _merge_link(values)
        elif values and isinstance(values[0], dict):
            merged[key] = _merge_scalar_maps(values)
        else:
            merged[key] = ordered_sum(values)
    return merged


def merge_results(results: Sequence[Dict], scenario: str, lookahead_ns: float) -> Dict:
    """Fold shard result dicts into the canonical merged document.

    ``results`` may arrive in any order; they are validated to form a
    complete partition (indices ``0..n-1``, no duplicates) and sorted by
    shard index before reduction. Raises :class:`ConfigError` on a
    damaged partition — a missing shard must never silently shrink the
    merged metrics.
    """
    if not results:
        raise ConfigError(f"scenario {scenario!r}: no shard results to merge")
    by_index: Dict[int, Dict] = {}
    for result in results:
        index = result.get("index")
        if not isinstance(index, int):
            raise ConfigError(f"scenario {scenario!r}: shard result without an index")
        if index in by_index:
            raise ConfigError(f"scenario {scenario!r}: duplicate shard index {index}")
        by_index[index] = result
    n = len(by_index)
    missing = sorted(set(range(n)) - set(by_index))
    if missing:
        raise ConfigError(
            f"scenario {scenario!r}: incomplete partition, missing shard "
            f"index(es) {missing} of {n}"
        )
    ordered = [by_index[index] for index in range(n)]

    snapshots = [result["snapshot"] for result in ordered]
    merged = _merge_snapshots(snapshots)

    # Each shard's samples arrive as an array('d'); extend appends them
    # as raw doubles, in shard-index order.
    latency = Histogram("merged_latency")
    for result in ordered:
        latency.extend(result.get("latency_ns", ()))
    if latency.count:
        merged["median_ns"] = latency.percentile(50)
        merged["p99_ns"] = latency.percentile(99)
        merged["latency_count"] = latency.count

    return {
        "schema": MERGED_SCHEMA,
        "scenario": scenario,
        "n_shards": n,
        "lookahead_ns": lookahead_ns,
        "shards": {f"{index:03d}": snapshots[index] for index in range(n)},
        "merged": merged,
    }


def merge_timelines(results: Sequence[Dict]) -> Dict:
    """Deterministic window-aligned merge of per-shard timeline docs.

    Shards run concurrently in virtual time and share one window grid
    (``interval_ns`` is part of the run configuration and window 0
    starts at t=0), so merging is a per-window reduction in shard-index
    order: counter and gauge series sum (a shard that ended before a
    window contributes 0), histogram windows pool their raw samples and
    recompute p50/p99 exactly — order statistics are a function of the
    sample multiset, so the merged document is bit-identical for any
    worker count. Watchdog findings are evaluated on the merged series.

    Returns ``None`` when no shard carried a timeline. Raises
    :class:`ConfigError` on misaligned grids (differing intervals, or a
    ring that already evicted windows — merge needs the full run).
    """
    ordered = sorted(
        (r for r in results if r.get("timeline")),
        key=lambda r: r["index"],
    )
    if not ordered:
        return None
    docs = [r["timeline"] for r in ordered]
    interval = docs[0]["interval_ns"]
    for doc in docs:
        if doc["interval_ns"] != interval:
            raise ConfigError(
                f"timeline merge: interval mismatch "
                f"({doc['interval_ns']} != {interval})"
            )
        if doc.get("start", 0) != 0:
            raise ConfigError(
                "timeline merge: shard evicted early windows "
                f"(start={doc['start']}); raise the sampler capacity"
            )
    windows = max(doc["windows"] for doc in docs)

    def merged_series(kind: str) -> Dict[str, List[float]]:
        names = sorted({name for doc in docs for name in doc.get(kind, {})})
        out: Dict[str, List[float]] = {}
        for name in names:
            rows = [doc.get(kind, {}).get(name, []) for doc in docs]
            out[name] = [
                ordered_sum(row[w] for row in rows if w < len(row))
                for w in range(windows)
            ]
        return out

    histograms: Dict[str, List] = {}
    hist_names = sorted({name for doc in docs for name in doc.get("histograms", {})})
    for name in hist_names:
        points: List = []
        for w in range(windows):
            pooled = Histogram(name)
            for doc in docs:
                samples = doc.get("samples", {}).get(name, [])
                if w < len(samples):
                    pooled.extend(samples[w])
            if pooled.count:
                points.append(
                    {
                        "count": pooled.count,
                        "p50": pooled.percentile(50),
                        "p99": pooled.percentile(99),
                    }
                )
            else:
                points.append(None)
        histograms[name] = points

    merged = {
        "schema": docs[0]["schema"],
        "interval_ns": interval,
        "start": 0,
        "windows": windows,
        "n_shards": len(ordered),
        "counters": merged_series("counters"),
        "gauges": merged_series("gauges"),
        "histograms": histograms,
    }
    from repro.obs.timeline import run_watchdogs

    merged["findings"] = run_watchdogs(merged)
    return merged


def merge_metrics(results: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Merged :class:`~repro.obs.MetricRegistry` snapshot over shards.

    Sorted by shard index first so the weighted-mean reductions in
    :func:`repro.obs.merge_snapshots` see a canonical input order.
    Shards that ran without metrics contribute nothing.
    """
    from repro.obs import merge_snapshots

    ordered = sorted(
        (r for r in results if r.get("metrics")),
        key=lambda r: r["index"],
    )
    return merge_snapshots([r["metrics"] for r in ordered])
