"""Visitor-based lint rules for the CC-NIC reproduction's determinism
and protocol-hygiene contracts.

Each rule is a :class:`LintRule` with a stable ``name`` (used in
``# repro: allow(<name>)`` waivers) and a ``check`` method that yields
``(line, col, message)`` tuples for one parsed module. Rules are pure
AST analyses — nothing is imported or executed — so the linter runs on
any tree the :mod:`ast` module can parse.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Iterator, Set, Tuple

Finding = Tuple[int, int, str]

#: Zero-cost-detached hook attributes (class-level ``None`` idiom).
HOOK_ATTRS = frozenset({"flight", "faults", "sanitizer", "timeline", "chooser"})

#: Builtin exceptions allowed alongside the repro taxonomy: control-flow
#: and protocol exceptions that are not error reports.
ALLOWED_BUILTIN_RAISES = frozenset(
    {"NotImplementedError", "StopIteration", "SystemExit", "KeyboardInterrupt"}
)

_BANNED_TIME_FNS = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }
)

_BANNED_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: Waiver comment grammar (a ``repro: allow(...)`` clause after a hash).
#: Shared with the linter driver so the grammar has one definition.
WAIVER_RE = re.compile(r"#\s*repro:\s*allow\(([a-z0-9_\-, ]+)\)")


class LintRule:
    """One named static check over a parsed module."""

    name = ""
    description = ""

    def check(self, tree: ast.Module, path: str, source: str) -> Iterator[Finding]:
        raise NotImplementedError


def _is_rng_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.endswith("sim/rng.py")


class WallClockRule(LintRule):
    """No wall-clock reads or unseeded randomness in simulator code.

    Simulated time comes from the discrete-event engine and randomness
    from :func:`repro.sim.rng.make_rng`; anything else makes runs
    non-reproducible. ``random.Random(seed)`` with an explicit seed is
    allowed (that is how ``sim/rng.py`` builds streams); ``sim/rng.py``
    itself is exempt as the one sanctioned randomness source.
    """

    name = "wall-clock"
    description = "wall-clock time or unseeded randomness outside sim/rng.py"

    def check(self, tree, path, source):
        if _is_rng_module(path):
            return
        modules = {}   # local name -> module it refers to
        from_bans = {} # local name -> (module, original function name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("time", "random", "datetime"):
                        modules[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _BANNED_TIME_FNS:
                            from_bans[alias.asname or alias.name] = ("time", alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name != "Random":
                            from_bans[alias.asname or alias.name] = ("random", alias.name)
                        else:
                            modules[alias.asname or alias.name] = "random.Random"
                elif node.module == "datetime":
                    for alias in node.names:
                        modules[alias.asname or alias.name] = "datetime.datetime"
        if not modules and not from_bans:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                bound = from_bans.get(func.id)
                if bound is not None:
                    yield (node.lineno, node.col_offset,
                           f"call to {bound[0]}.{bound[1]} (wall-clock or "
                           "unseeded randomness) in simulator code")
                elif modules.get(func.id) == "random.Random" and not (
                    node.args or node.keywords
                ):
                    yield (node.lineno, node.col_offset,
                           "unseeded random.Random() in simulator code")
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                mod = modules.get(func.value.id)
                if mod == "time" and func.attr in _BANNED_TIME_FNS:
                    yield (node.lineno, node.col_offset,
                           f"call to time.{func.attr} (wall-clock) in simulator code")
                elif mod == "random":
                    if func.attr == "Random" and (node.args or node.keywords):
                        continue
                    if func.attr == "Random":
                        yield (node.lineno, node.col_offset,
                               "unseeded random.Random() in simulator code")
                    else:
                        yield (node.lineno, node.col_offset,
                               f"call to random.{func.attr} (module-global RNG) "
                               "in simulator code")
                elif mod in ("datetime", "datetime.datetime") and (
                    func.attr in _BANNED_DATETIME_FNS
                ):
                    yield (node.lineno, node.col_offset,
                           f"call to datetime {func.attr}() (wall-clock) "
                           "in simulator code")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _BANNED_DATETIME_FNS
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and modules.get(func.value.value.id) == "datetime"
            ):
                yield (node.lineno, node.col_offset,
                       f"call to datetime.datetime.{func.attr}() (wall-clock) "
                       "in simulator code")


class HookGuardRule(LintRule):
    """Observability/fault/sanitizer hooks follow the zero-cost idiom.

    Two contracts: a class whose methods read ``self.<hook>`` must
    define the hook as a class-level attribute (so the hook is
    documented where the class is and no instance can raise
    AttributeError; instances also carry their own ``None``, see
    :class:`repro.obs.instrument.Instrumented`);
    and any *call* through a hook value must sit under an
    ``is not None`` (or truthiness) guard, so detached runs never
    allocate or dispatch on the hook path.
    """

    name = "zero-cost-hooks"
    description = "hook attribute without class default or unguarded hook call"

    def check(self, tree, path, source):
        classes = {
            node.name: node for node in tree.body if isinstance(node, ast.ClassDef)
        }
        for node in classes.values():
            yield from self._check_class_attrs(node, classes)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node)

    # -- class-attribute presence ------------------------------------
    def _class_defines(self, cls, hook, classes, seen) -> bool:
        if cls.name in seen:
            return False
        seen.add(cls.name)
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == hook:
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == hook:
                    return True
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                if self._class_defines(classes[base.id], hook, classes, seen):
                    return True
        return False

    def _check_class_attrs(self, cls, classes):
        needed = {}
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in HOOK_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)
            ):
                needed.setdefault(node.attr, node)
        for hook, node in sorted(needed.items()):
            if not self._class_defines(cls, hook, classes, set()):
                yield (
                    node.lineno, node.col_offset,
                    f"class {cls.name!r} reads self.{hook} but defines no "
                    f"class-level '{hook} = None' default",
                )

    # -- guarded-call analysis ----------------------------------------
    @staticmethod
    def _hook_token(expr):
        """Token for a hook-valued expression, or None.

        ``self.<hook>`` -> ('self', hook); a plain name bound from a
        hook attribute is tracked by the caller as a string token.
        """
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr in HOOK_ATTRS
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return ("self", expr.attr)
        return None

    @classmethod
    def _guard_tokens(cls, test, aliases) -> Tuple[Set, Set]:
        """(tokens proven non-None if true, tokens proven None if true)."""
        pos: Set = set()
        neg: Set = set()
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                sub_pos, _ = cls._guard_tokens(value, aliases)
                pos |= sub_pos
        elif isinstance(test, ast.Compare) and len(test.ops) == 1:
            token = cls._token_of(test.left, aliases)
            if token is not None and isinstance(
                test.comparators[0], ast.Constant
            ) and test.comparators[0].value is None:
                if isinstance(test.ops[0], ast.IsNot):
                    pos.add(token)
                elif isinstance(test.ops[0], ast.Is):
                    neg.add(token)
        else:
            token = cls._token_of(test, aliases)
            if token is not None:
                pos.add(token)
        return pos, neg

    @classmethod
    def _token_of(cls, expr, aliases):
        token = cls._hook_token(expr)
        if token is not None:
            return token
        if isinstance(expr, ast.Name) and expr.id in aliases:
            return expr.id
        return None

    @staticmethod
    def _terminates(body) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    def _check_function(self, func):
        aliases: Set[str] = set()
        # Pre-pass: collect every name ever bound from a hook attribute
        # (assignment order does not matter for alias *identity*).
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                if node.value.attr in HOOK_ATTRS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            aliases.add(target.id)
        findings = []
        self._scan_body(func.body, frozenset(), aliases, findings)
        return iter(findings)

    def _scan_expr(self, expr, guarded, aliases, findings) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            token = self._token_of(callee.value, aliases)
            if token is not None and token not in guarded:
                name = token if isinstance(token, str) else f"self.{token[1]}"
                findings.append(
                    (node.lineno, node.col_offset,
                     f"call through hook {name!r} outside an "
                     "'is not None' guard")
                )

    def _scan_body(self, body, guarded, aliases, findings) -> Set:
        """Scan statements; returns the guard set live after the block."""
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, ast.If):
                pos, neg = self._guard_tokens(stmt.test, aliases)
                self._scan_expr(stmt.test, guarded, aliases, findings)
                self._scan_body(stmt.body, guarded | pos, aliases, findings)
                self._scan_body(stmt.orelse, guarded | neg, aliases, findings)
                if neg and self._terminates(stmt.body):
                    # Early-out guard: 'if hook is None: return'.
                    guarded |= neg
                if pos and self._terminates(stmt.orelse):
                    guarded |= pos
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, guarded, aliases, findings)
                self._scan_body(stmt.body, guarded, aliases, findings)
                self._scan_body(stmt.orelse, guarded, aliases, findings)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, guarded, aliases, findings)
                self._scan_body(stmt.body, guarded, aliases, findings)
                self._scan_body(stmt.orelse, guarded, aliases, findings)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, guarded, aliases, findings)
                self._scan_body(stmt.body, guarded, aliases, findings)
            elif isinstance(stmt, ast.Try):
                self._scan_body(stmt.body, guarded, aliases, findings)
                for handler in stmt.handlers:
                    self._scan_body(handler.body, guarded, aliases, findings)
                self._scan_body(stmt.orelse, guarded, aliases, findings)
                self._scan_body(stmt.finalbody, guarded, aliases, findings)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are scanned by the caller's walk
            elif isinstance(stmt, ast.Assign):
                # A re-read of the hook invalidates existing guards on
                # the target alias (the hook may have been detached).
                self._scan_expr(stmt.value, guarded, aliases, findings)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        guarded.discard(target.id)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._scan_expr(child, guarded, aliases, findings)
        return guarded


class IdKeyRule(LintRule):
    """No iteration over ``id()``-keyed mappings in simulator code.

    ``id()`` values depend on allocation addresses, so iterating such a
    mapping yields an interpreter-dependent order and breaks run
    fingerprints. Key stable identities instead (``buf_id``, names).
    """

    name = "id-keyed-iteration"
    description = "iteration over an id()-keyed mapping"

    @staticmethod
    def _container_token(expr):
        if isinstance(expr, ast.Name):
            return expr.id
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return ("self", expr.attr)
        return None

    def check(self, tree, path, source):
        id_keyed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                slice_expr = node.slice
                if (
                    isinstance(slice_expr, ast.Call)
                    and isinstance(slice_expr.func, ast.Name)
                    and slice_expr.func.id == "id"
                ):
                    token = self._container_token(node.value)
                    if token is not None:
                        id_keyed.add(token)
        if not id_keyed:
            return
        for node in ast.walk(tree):
            iter_expr = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            if iter_expr is None:
                continue
            target = iter_expr
            if (
                isinstance(target, ast.Call)
                and isinstance(target.func, ast.Attribute)
                and target.func.attr in ("items", "keys", "values")
            ):
                target = target.func.value
            token = self._container_token(target)
            if token in id_keyed:
                name = token if isinstance(token, str) else f"self.{token[1]}"
                yield (
                    iter_expr.lineno, iter_expr.col_offset,
                    f"iteration over id()-keyed mapping {name!r} "
                    "(allocation-order dependent)",
                )


class ErrorTaxonomyRule(LintRule):
    """Exceptions raised in ``repro`` come from the errors.py taxonomy.

    Raising stdlib exceptions directly (``ValueError``, ``RuntimeError``)
    breaks the catch-one-base contract of :class:`repro.errors.ReproError`.
    Control-flow builtins (``StopIteration``, ``SystemExit``, ...) and
    re-raises of caught exception variables are allowed.
    """

    name = "error-taxonomy"
    description = "raise of an exception outside the repro.errors taxonomy"

    def __init__(self, taxonomy=frozenset()) -> None:
        self.taxonomy = frozenset(taxonomy)

    def check(self, tree, path, source):
        allowed = set(self.taxonomy) | set(ALLOWED_BUILTIN_RAISES)
        # Module-local exception classes deriving from the taxonomy
        # (transitively) are allowed; iterate to a fixpoint.
        local = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        changed = True
        while changed:
            changed = False
            for cls in local:
                if cls.name in allowed:
                    continue
                for base in cls.bases:
                    base_name = (
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else None
                    )
                    if base_name in allowed:
                        allowed.add(cls.name)
                        changed = True
                        break
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            else:
                continue
            if not name[:1].isupper():
                continue  # re-raise of a caught exception variable
            if name not in allowed:
                yield (
                    node.lineno, node.col_offset,
                    f"raise of {name} outside the repro.errors taxonomy",
                )


class UnitsMixingRule(LintRule):
    """No additive arithmetic across time and size quantities.

    Adding or subtracting a ``*_ns`` value and a ``*_bytes`` / ``*_gbps``
    value is dimensionally meaningless — the classic latency-plus-length
    bug. Multiplication and division are how units legitimately convert
    (``bytes / bytes_per_ns``), so only ``+`` and ``-`` are checked; call
    results (e.g. a ``repro.units`` conversion helper) carry no suffix
    and therefore never trip the rule.
    """

    name = "units-mixing"
    description = "additive arithmetic mixing _ns with _bytes/_gbps values"

    _TIME_SUFFIXES = ("_ns",)
    _SIZE_SUFFIXES = ("_bytes", "_gbps")

    @classmethod
    def _operand(cls, expr):
        """(unit kind, identifier) for a suffixed operand, else None."""
        if isinstance(expr, ast.Name):
            ident = expr.id
        elif isinstance(expr, ast.Attribute):
            ident = expr.attr
        else:
            return None
        if ident.endswith(cls._TIME_SUFFIXES):
            return ("time", ident)
        if ident.endswith(cls._SIZE_SUFFIXES):
            return ("size", ident)
        return None

    def check(self, tree, path, source):
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = self._operand(node.left)
            right = self._operand(node.right)
            if left is None or right is None or left[0] == right[0]:
                continue
            op = "+" if isinstance(node.op, ast.Add) else "-"
            yield (
                node.lineno, node.col_offset,
                f"'{left[1]} {op} {right[1]}' mixes a time (_ns) with a "
                "size (_bytes/_gbps) quantity; convert explicitly first",
            )


class StaleWaiverRule(LintRule):
    """Every ``# repro: allow(rule)`` waiver must still earn its keep.

    A waiver whose line (or the line below, for waivers placed above the
    statement they excuse) produces no finding for the named rule is
    stale: the code was fixed or the rule evolved, and the comment now
    only hides future regressions. Unknown rule names are flagged too.
    Only real comment tokens are inspected, so waiver text quoted in
    docstrings or string literals never counts.
    """

    name = "stale-waiver"
    description = "waiver comment that no longer suppresses any finding"

    def check(self, tree, path, source):
        # The per-file analysis lives in check_waivers, which needs the
        # other rules' findings; the linter driver calls it after they
        # have all run over the file.
        return iter(())

    def check_waivers(self, path, source, findings, known_rules):
        rules_by_line = {}
        for finding in findings:
            rules_by_line.setdefault(finding.line, set()).add(finding.rule)
        try:
            comments = [
                tok
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return
        for tok in comments:
            match = WAIVER_RE.search(tok.string)
            if match is None:
                continue
            line, col = tok.start
            for rule in match.group(1).replace(",", " ").split():
                if rule == self.name:
                    continue
                if rule not in known_rules:
                    yield (line, col, f"waiver names unknown rule {rule!r}")
                    continue
                covered = rules_by_line.get(line, set()) | rules_by_line.get(
                    line + 1, set()
                )
                if rule not in covered:
                    yield (
                        line, col,
                        f"stale waiver: no {rule!r} finding on this line "
                        "or the next",
                    )


def default_rules(taxonomy=frozenset()):
    """The standard rule set, in report order."""
    return [
        WallClockRule(),
        HookGuardRule(),
        IdKeyRule(),
        ErrorTaxonomyRule(taxonomy=taxonomy),
        UnitsMixingRule(),
        StaleWaiverRule(),
    ]
