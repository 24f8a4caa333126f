"""Serialize a run's reports to stamped JSON, CSV and Chrome trace format.

Every JSON report carries a ``schema`` stamp, and one pair of functions
writes and reads all of them: :func:`export_doc` refuses a document
whose stamp it does not know, and :func:`load_doc` refuses a file that
is not JSON or carries another stamp. Metric snapshots are stamped by
:func:`metrics_doc`, which preserves the nested
``{component: {metric: value}}`` shape of
:meth:`~repro.obs.registry.MetricRegistry.snapshot`; the CSV form is one
flat ``component,metric,value`` row per metric, so snapshots diff
cleanly and load into pandas/spreadsheets.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigError

METRICS_SCHEMA = "repro.obs/metrics-v1"

FLIGHT_SCHEMA = "repro.obs/flight-v1"

SANITIZE_SCHEMA = "repro.check/sanitize-v1"

LINT_SCHEMA = "repro.check/lint-v1"

TIMELINE_SCHEMA = "repro.obs/timeline-v1"

MODEL_SCHEMA = "repro.check/model-v1"

#: Every stamp :func:`export_doc` writes.
SCHEMAS = (
    METRICS_SCHEMA, FLIGHT_SCHEMA, SANITIZE_SCHEMA, LINT_SCHEMA,
    TIMELINE_SCHEMA, MODEL_SCHEMA,
)

Snapshot = Dict[str, Dict[str, float]]


def metrics_doc(snapshot: Snapshot) -> Dict[str, Any]:
    """Stamp a live registry's or a merged run's metric snapshot."""
    return {"schema": METRICS_SCHEMA, "metrics": snapshot}


def export_doc(doc: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Write a stamped report as JSON; returns the doc.

    Reports come stamped from their producers (``FlightRecorder.report``,
    ``Sanitizer.report``, ``TimelineSampler.to_doc``, ``check_model``,
    ``LintReport.as_report``, :func:`metrics_doc`); the stamp is enforced
    here so hand-built dicts cannot silently produce unloadable files.
    """
    if doc.get("schema") not in SCHEMAS:
        raise ConfigError(f"report has no known schema stamp (got {doc.get('schema')!r})")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_doc(path: str, schema: str) -> Dict[str, Any]:
    """Read a report back; rejects non-JSON files and foreign stamps."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"not a JSON report: {path} ({exc})") from exc
    stamp = doc.get("schema") if isinstance(doc, dict) else None
    if stamp != schema:
        raise ConfigError(f"not a {schema} report: {path} (schema={stamp!r})")
    return doc


def metrics_rows(snapshot: Snapshot) -> List[Tuple[str, str, float]]:
    """Flatten a metric snapshot into sorted (component, metric, value) rows."""
    rows: List[Tuple[str, str, float]] = []
    for component, section in snapshot.items():
        for name, value in section.items():
            rows.append((component, name, value))
    rows.sort()
    return rows


def export_metrics_csv(snapshot: Snapshot, path: str) -> int:
    """Write one flat ``component,metric,value`` row per metric; returns row count."""
    rows = metrics_rows(snapshot)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "metric", "value"])
        writer.writerows(rows)
    return len(rows)


def load_metrics_csv(path: str) -> Snapshot:
    """Read a metrics CSV back into ``{component: {metric: value}}``."""
    out: Snapshot = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["component", "metric", "value"]:
            raise ConfigError(f"not a metrics CSV: {path} (header={reader.fieldnames})")
        for row in reader:
            out.setdefault(row["component"], {})[row["metric"]] = float(row["value"])
    return out


def export_chrome_trace(tracer, path: str, flight=None, timeline=None) -> int:
    """Write the tracer's span timeline as a Chrome trace JSON file.

    Load in ``chrome://tracing`` or https://ui.perfetto.dev. When a
    :class:`~repro.obs.flight.FlightRecorder` is given, its per-class
    cross-socket-transfer counter tracks are merged into the same
    timeline as Perfetto counter (``"C"``) events; a
    :class:`~repro.obs.timeline.TimelineSampler` (or an already-built
    timeline document) contributes one counter track per windowed
    series. Returns the number of trace events written (including
    metadata rows).
    """
    doc = tracer.to_chrome()
    if flight is not None:
        doc["traceEvents"].extend(flight.counter_tracks())
    if timeline is not None:
        if hasattr(timeline, "counter_tracks"):
            doc["traceEvents"].extend(timeline.counter_tracks())
        else:
            from repro.obs.timeline import timeline_counter_tracks

            doc["traceEvents"].extend(timeline_counter_tracks(timeline))
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return len(doc["traceEvents"])
