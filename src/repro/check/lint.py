"""Static determinism/protocol-hygiene linter over the ``repro`` tree.

``run_lint`` parses every module under a package root with :mod:`ast`,
runs the :mod:`repro.check.rules` visitors, applies inline waivers, and
returns a :class:`LintReport` whose ``as_report`` dict carries the
``repro.check/lint-v1`` schema for JSON export. This is the engine
behind ``python -m repro check``.

Waivers are inline comments of the form::

    x = something()  # repro: allow(wall-clock) measuring host time

placed on the finding's line or the line directly above it. Waived
findings stay in the report (counted separately) so suppressions are
auditable, not silent.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.check.rules import (
    WAIVER_RE,
    LintRule,
    StaleWaiverRule,
    default_rules,
)
from repro.errors import LintError
from repro.obs.export import LINT_SCHEMA


@dataclass
class LintFinding:
    """One lint diagnostic, waived or active."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False

    def as_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
        }


@dataclass
class LintReport:
    """All findings over one lint run."""

    findings: List[LintFinding] = field(default_factory=list)
    files: int = 0

    @property
    def active(self) -> List[LintFinding]:
        return [f for f in self.findings if not f.waived]

    @property
    def waived(self) -> List[LintFinding]:
        return [f for f in self.findings if f.waived]

    @property
    def ok(self) -> bool:
        return not self.active

    def as_report(self, config: Optional[Dict] = None) -> Dict:
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "schema": LINT_SCHEMA,
            "files": self.files,
            "total": len(self.findings),
            "active": len(self.active),
            "waived": len(self.waived),
            "counts": dict(sorted(counts.items())),
            "findings": [f.as_dict() for f in self.findings],
            "config": dict(config or {}),
        }


def _waived_rules(source: str) -> Dict[int, set]:
    """Map line number -> rule names waived *for* that line.

    A waiver comment covers its own line and the line below it, so both
    end-of-line and stand-alone comment placements work.
    """
    waivers: Dict[int, set] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = WAIVER_RE.search(text)
        if match is None:
            continue
        rules = {token.strip() for token in match.group(1).split(",") if token.strip()}
        waivers.setdefault(number, set()).update(rules)
        waivers.setdefault(number + 1, set()).update(rules)
    return waivers


def lint_source(
    source: str, path: str, rules: Iterable[LintRule]
) -> List[LintFinding]:
    """Lint one module's source text; returns waiver-annotated findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    waivers = _waived_rules(source)
    rules = list(rules)
    findings: List[LintFinding] = []
    for rule in rules:
        for line, col, message in rule.check(tree, path, source):
            waived = rule.name in waivers.get(line, ())
            findings.append(
                LintFinding(rule.name, path, line, col, message, waived=waived)
            )
    # Stale-waiver analysis runs last: it audits the waiver comments
    # against the findings every other rule just produced.
    known_rules = frozenset(rule.name for rule in rules)
    for rule in rules:
        if not isinstance(rule, StaleWaiverRule):
            continue
        for line, col, message in rule.check_waivers(
            path, source, findings, known_rules
        ):
            waived = rule.name in waivers.get(line, ())
            findings.append(
                LintFinding(rule.name, path, line, col, message, waived=waived)
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _taxonomy_names(root: str) -> frozenset:
    """Exception names defined by ``errors.py`` at or above ``root``.

    Walking up lets a subsystem-scoped lint (``--root
    src/repro/topology``) share the package-level taxonomy.
    """
    probe = os.path.abspath(root)
    errors_path = os.path.join(probe, "errors.py")
    while not os.path.isfile(errors_path):
        parent = os.path.dirname(probe)
        if parent == probe:
            raise LintError(
                f"no errors.py at or above {root!r}; cannot build taxonomy"
            )
        probe = parent
        errors_path = os.path.join(probe, "errors.py")
    with open(errors_path) as fh:
        tree = ast.parse(fh.read(), filename=errors_path)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            # Module-level aliases (``Name = SomeError``).
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def _iter_sources(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def run_lint(
    root: Optional[str] = None,
    rules: Optional[List[LintRule]] = None,
) -> LintReport:
    """Lint every module under ``root`` (default: the installed package)."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    if not os.path.isdir(root):
        raise LintError(f"lint root {root!r} is not a directory")
    if rules is None:
        rules = default_rules(taxonomy=_taxonomy_names(root))
    report = LintReport()
    prefix = os.path.dirname(root)
    for path in _iter_sources(root):
        with open(path) as fh:
            source = fh.read()
        rel = os.path.relpath(path, prefix)
        report.findings.extend(lint_source(source, rel, rules))
        report.files += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


# ----------------------------------------------------------------------
# Text rendering (used by ``python -m repro check``)
# ----------------------------------------------------------------------
def format_lint_summary(report: LintReport) -> str:
    from repro.analysis.tables import format_table

    counts: Dict[str, int] = {}
    waived: Dict[str, int] = {}
    for finding in report.findings:
        bucket = waived if finding.waived else counts
        bucket[finding.rule] = bucket.get(finding.rule, 0) + 1
    rules = sorted(set(counts) | set(waived))
    rows = [(rule, counts.get(rule, 0), waived.get(rule, 0)) for rule in rules]
    if not rows:
        rows = [("(clean)", 0, 0)]
    title = (
        f"Lint summary: {len(report.active)} active, "
        f"{len(report.waived)} waived over {report.files} files"
    )
    return format_table(["rule", "active", "waived"], rows, title=title)


def format_lint_findings(report: LintReport, limit: int = 50) -> str:
    from repro.analysis.tables import format_table

    ordered = report.active + report.waived
    rows = [
        (
            f.rule,
            f"{f.path}:{f.line}",
            "waived" if f.waived else "ACTIVE",
            f.message[:70],
        )
        for f in ordered[:limit]
    ]
    if not rows:
        return "Lint clean: no findings."
    shown = len(rows)
    total = len(ordered)
    suffix = "" if shown == total else f" (showing {shown} of {total})"
    return format_table(
        ["rule", "where", "state", "message"],
        rows,
        title=f"Lint findings{suffix}",
    )
