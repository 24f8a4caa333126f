"""Static determinism linter: per-rule sources, waivers, self-hosting."""

import os
import textwrap

import pytest

from repro.check import (
    LINT_SCHEMA,
    format_lint_findings,
    format_lint_summary,
    lint_source,
    run_lint,
)
from repro.check.rules import (
    ErrorTaxonomyRule,
    HookGuardRule,
    IdKeyRule,
    UnitsMixingRule,
    WallClockRule,
    default_rules,
)
from repro.errors import LintError
from repro.obs.export import export_doc, load_doc

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "repro")


def _lint(source, rules, path="mod.py"):
    return lint_source(textwrap.dedent(source), path, rules)


def _rules_of(findings):
    return [f.rule for f in findings]


class TestWallClockRule:
    def test_time_calls_flagged(self):
        findings = _lint(
            """
            import time

            def f():
                return time.perf_counter() + time.time()
            """,
            [WallClockRule()],
        )
        assert _rules_of(findings) == ["wall-clock", "wall-clock"]

    def test_aliased_import_flagged(self):
        findings = _lint(
            """
            import time as t

            def f():
                return t.monotonic()
            """,
            [WallClockRule()],
        )
        assert _rules_of(findings) == ["wall-clock"]

    def test_unseeded_randomness_flagged(self):
        findings = _lint(
            """
            import random
            from random import Random

            def f():
                a = random.random()
                b = Random()
                return a, b
            """,
            [WallClockRule()],
        )
        assert len(findings) == 2

    def test_seeded_random_allowed(self):
        findings = _lint(
            """
            import random

            def f(seed):
                return random.Random(seed)
            """,
            [WallClockRule()],
        )
        assert findings == []

    def test_datetime_now_flagged(self):
        findings = _lint(
            """
            import datetime

            def f():
                return datetime.datetime.now()
            """,
            [WallClockRule()],
        )
        assert _rules_of(findings) == ["wall-clock"]

    def test_rng_module_exempt(self):
        findings = _lint(
            """
            import random

            def f():
                return random.random()
            """,
            [WallClockRule()],
            path="repro/sim/rng.py",
        )
        assert findings == []


class TestHookGuardRule:
    def test_unguarded_hook_call_flagged(self):
        findings = _lint(
            """
            class Ring:
                flight = None

                def produce(self):
                    self.flight.line_event(1)
            """,
            [HookGuardRule()],
        )
        assert _rules_of(findings) == ["zero-cost-hooks"]

    def test_guarded_call_allowed(self):
        findings = _lint(
            """
            class Ring:
                flight = None

                def produce(self):
                    if self.flight is not None:
                        self.flight.line_event(1)
            """,
            [HookGuardRule()],
        )
        assert findings == []

    def test_hoisted_alias_guard_allowed(self):
        findings = _lint(
            """
            class Ring:
                sanitizer = None

                def produce(self):
                    san = self.sanitizer
                    if san is not None:
                        san.slot_publish(self)
            """,
            [HookGuardRule()],
        )
        assert findings == []

    def test_missing_class_default_flagged(self):
        findings = _lint(
            """
            class Ring:
                def produce(self):
                    if self.sanitizer is not None:
                        self.sanitizer.slot_publish(self)
            """,
            [HookGuardRule()],
        )
        assert "zero-cost-hooks" in _rules_of(findings)

    def test_early_return_guard_allowed(self):
        findings = _lint(
            """
            class Ring:
                faults = None

                def produce(self):
                    if self.faults is None:
                        return 0
                    return self.faults.decide()
            """,
            [HookGuardRule()],
        )
        assert findings == []


class TestIdKeyRule:
    def test_iteration_over_id_keyed_dict_flagged(self):
        findings = _lint(
            """
            def f(objs):
                table = {}
                for obj in objs:
                    table[id(obj)] = obj
                for key in table:
                    print(key)
            """,
            [IdKeyRule()],
        )
        assert _rules_of(findings) == ["id-keyed-iteration"]

    def test_items_iteration_flagged(self):
        findings = _lint(
            """
            class C:
                def f(self, obj):
                    self.seen[id(obj)] = obj
                    return [v for _, v in self.seen.items()]
            """,
            [IdKeyRule()],
        )
        assert _rules_of(findings) == ["id-keyed-iteration"]

    def test_lookup_only_allowed(self):
        findings = _lint(
            """
            def f(table, obj):
                table[id(obj)] = obj
                return table[id(obj)]
            """,
            [IdKeyRule()],
        )
        assert findings == []


class TestErrorTaxonomyRule:
    TAXONOMY = frozenset({"ReproError", "PoolError"})

    def test_stdlib_raise_flagged(self):
        findings = _lint(
            """
            def f():
                raise ValueError("nope")
            """,
            [ErrorTaxonomyRule(self.TAXONOMY)],
        )
        assert _rules_of(findings) == ["error-taxonomy"]

    def test_taxonomy_raise_allowed(self):
        findings = _lint(
            """
            from repro.errors import PoolError

            def f():
                raise PoolError("nope")
            """,
            [ErrorTaxonomyRule(self.TAXONOMY)],
        )
        assert findings == []

    def test_local_subclass_allowed(self):
        findings = _lint(
            """
            from repro.errors import ReproError

            class AppError(ReproError):
                pass

            def f():
                raise AppError("nope")
            """,
            [ErrorTaxonomyRule(self.TAXONOMY)],
        )
        assert findings == []

    def test_reraise_variable_allowed(self):
        findings = _lint(
            """
            def f(exc):
                raise exc
            """,
            [ErrorTaxonomyRule(self.TAXONOMY)],
        )
        assert findings == []


class TestUnitsMixingRule:
    def test_additive_time_size_mix_flagged(self):
        findings = _lint(
            """
            def f(latency_ns, size_bytes):
                return latency_ns + size_bytes
            """,
            [UnitsMixingRule()],
        )
        assert _rules_of(findings) == ["units-mixing"]
        assert "latency_ns + size_bytes" in findings[0].message

    def test_subtraction_and_attributes_flagged(self):
        findings = _lint(
            """
            def f(self):
                return self.window_bytes - self.deadline_ns
            """,
            [UnitsMixingRule()],
        )
        assert _rules_of(findings) == ["units-mixing"]

    def test_gbps_counts_as_size_kind(self):
        findings = _lint(
            """
            def f(rate_gbps, delay_ns):
                return rate_gbps + delay_ns
            """,
            [UnitsMixingRule()],
        )
        assert _rules_of(findings) == ["units-mixing"]

    def test_same_kind_addition_allowed(self):
        findings = _lint(
            """
            def f(a_ns, b_ns, x_bytes, y_bytes):
                return (a_ns + b_ns, x_bytes - y_bytes)
            """,
            [UnitsMixingRule()],
        )
        assert findings == []

    def test_multiplicative_conversion_allowed(self):
        # Multiplication/division is how units legitimately convert.
        findings = _lint(
            """
            def f(size_bytes, rate_bytes_per_ns, base_ns):
                return base_ns + size_bytes / rate_bytes_per_ns
            """,
            [UnitsMixingRule()],
        )
        assert findings == []

    def test_conversion_helper_call_allowed(self):
        # A call result carries no suffix, so converting through a
        # repro.units helper never trips the rule.
        findings = _lint(
            """
            from repro.units import gbps_to_bytes_per_ns

            def f(base_ns, rate_gbps):
                return base_ns + gbps_to_bytes_per_ns(rate_gbps)
            """,
            [UnitsMixingRule()],
        )
        assert findings == []


class TestStaleWaiverRule:
    def test_stale_waiver_flagged(self):
        findings = _lint(
            "x = 1  # repro: allow(wall-clock) nothing here\n",
            default_rules(),
        )
        assert _rules_of(findings) == ["stale-waiver"]
        assert "stale waiver" in findings[0].message

    def test_active_waiver_not_flagged(self):
        findings = _lint(
            """
            import time

            def f():
                return time.time()  # repro: allow(wall-clock) host time
            """,
            default_rules(),
        )
        assert _rules_of(findings) == ["wall-clock"]
        assert findings[0].waived

    def test_waiver_above_finding_line_counts_as_used(self):
        findings = _lint(
            """
            import time

            def f():
                # repro: allow(wall-clock) host time
                return time.time()
            """,
            default_rules(),
        )
        assert _rules_of(findings) == ["wall-clock"]

    def test_docstring_waiver_text_ignored(self):
        # Waiver syntax quoted in a docstring is not a comment token.
        findings = _lint(
            '''
            """Example: # repro: allow(wall-clock) in docs."""
            x = 1
            ''',
            default_rules(),
        )
        assert findings == []

    def test_unknown_rule_name_flagged(self):
        findings = _lint(
            "x = 1  # repro: allow(no-such-rule)\n",
            default_rules(),
        )
        assert _rules_of(findings) == ["stale-waiver"]
        assert "unknown rule" in findings[0].message

    def test_stale_waiver_finding_itself_waivable(self):
        findings = _lint(
            "x = 1  # repro: allow(wall-clock, stale-waiver) historic\n",
            default_rules(),
        )
        assert _rules_of(findings) == ["stale-waiver"]
        assert findings[0].waived


class TestWaivers:
    RULES_SRC = """
        import time

        def f():
            return time.time()  # repro: allow(wall-clock) host timestamp

        def g():
            # repro: allow(wall-clock) host timestamp
            return time.time()

        def h():
            return time.time()
        """

    def test_waivers_cover_same_and_next_line(self):
        findings = _lint(self.RULES_SRC, [WallClockRule()])
        assert [f.waived for f in findings] == [True, True, False]

    def test_waiver_for_other_rule_does_not_apply(self):
        findings = _lint(
            """
            import time

            def f():
                return time.time()  # repro: allow(error-taxonomy) wrong rule
            """,
            [WallClockRule()],
        )
        assert [f.waived for f in findings] == [False]

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def f(:\n", "bad.py", [WallClockRule()])


class TestSelfHost:
    """The shipping tree must lint clean modulo justified waivers."""

    def test_repro_tree_is_clean(self):
        report = run_lint(root=SRC)
        assert report.active == [], format_lint_findings(report)
        assert report.ok

    def test_waivers_are_counted_not_silent(self):
        report = run_lint(root=SRC)
        assert len(report.waived) > 0
        doc = report.as_report()
        assert doc["waived"] == len(report.waived)
        assert doc["active"] == 0

    def test_report_schema_and_roundtrip(self, tmp_path):
        report = run_lint(root=SRC)
        doc = report.as_report(config={"root": SRC})
        assert doc["schema"] == LINT_SCHEMA
        path = str(tmp_path / "lint.json")
        export_doc(doc, path)
        assert load_doc(path, LINT_SCHEMA) == doc

    def test_tables_render(self):
        report = run_lint(root=SRC)
        assert "Lint summary" in format_lint_summary(report)
        assert "waived" in format_lint_findings(report)

    def test_subsystem_root_inherits_taxonomy(self):
        # A subsystem-scoped run walks up to the package errors.py.
        report = run_lint(root=os.path.join(SRC, "topology"))
        assert report.active == [], format_lint_findings(report)


class TestDefaultRules:
    def test_all_rules_present(self):
        names = {rule.name for rule in default_rules(frozenset({"ReproError"}))}
        assert names == {
            "wall-clock",
            "zero-cost-hooks",
            "id-keyed-iteration",
            "error-taxonomy",
            "units-mixing",
            "stale-waiver",
        }
