"""Report rendering for sanitized runs.

A :class:`~repro.check.sanitizer.Sanitizer` attaches like every other
observer, in the :class:`~repro.obs.Observability` bundle a run is
built with (``Observability(sanitizer=...)``): the instrument cascade
spreads it across every layer that carries protocol events (coherence
fabric, descriptor rings, buffer pool, host driver, NIC queue agents).
It watches the fabric's plan path, so a sanitized run is bit-identical
in simulated metrics to an unsanitized one.

The ``format_*`` helpers render a sanitizer report as the text tables
behind ``--sanitize`` on the loopback/kv/rpc CLI commands.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import format_table


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def format_rule_summary(report: Dict) -> str:
    """Per-rule finding counts (all observed rules, worst first)."""
    counts = report["counts"]
    rows = [
        (rule, count)
        for rule, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    if not rows:
        rows = [("(no violations)", 0)]
    title = (
        f"Sanitizer summary: {report['total']} finding(s) over "
        f"{report['events']} protocol events"
    )
    return format_table(["rule", "findings"], rows, title=title)


def format_violation_table(report: Dict, limit: int = 20) -> str:
    """The first ``limit`` retained findings, in detection order."""
    rows = [
        (
            v["rule"],
            f"{v['addr']:#x}" if v["addr"] is not None else "-",
            ",".join(v["agents"]),
            f"{v['sim_time']:.1f}",
            v["location"],
            v["message"][:60],
        )
        for v in report["findings"][:limit]
    ]
    if not rows:
        return "No sanitizer findings."
    shown = len(rows)
    suffix = "" if shown == report["total"] else f" (showing {shown} of {report['total']})"
    return format_table(
        ["rule", "addr", "agents", "t ns", "where", "message"],
        rows,
        title=f"Sanitizer findings{suffix}",
    )
