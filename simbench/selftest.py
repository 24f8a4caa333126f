"""Self-tests of the benchmark's tracer and metric definitions.

Run from the root of a checkout::

    python3 simbench/selftest.py

The traced runs use reduced packet and request counts; the code paths
are the ones the benchmark times.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import run  # noqa: E402
from layers import ENTRY_CLASSES, ENTRY_FUNCTIONS, LAYERS, SETUP_CONSTRUCTORS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "loopback_64b": {"n_packets": 2000},
    "faults_canned": {"n_packets": 800},
    "kv_rack_zipf": {"n_ops": 480},
}


def small_spec(name: str):
    return harness.workload_spec(name, 7).replace(**SMALL[name])


def entry_points():
    """Every attribute the tracer patches, as (owner, name) -> value."""
    seen = {}
    for classes in ENTRY_CLASSES.values():
        for module, cls_name in classes:
            cls = getattr(importlib.import_module(module), cls_name)
            seen.update({(cls, name): value for name, value in vars(cls).items()})
    for module, cls_name in SETUP_CONSTRUCTORS:
        cls = getattr(importlib.import_module(module), cls_name)
        seen[(cls, "__init__")] = vars(cls)["__init__"]
    for functions in ENTRY_FUNCTIONS.values():
        for module, name in functions:
            original = getattr(importlib.import_module(module), name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and mod_name.startswith("repro"):
                    for attr, value in vars(mod).items():
                        if value is original:
                            seen[(mod, attr)] = value
    return seen


class TracedRunTests(unittest.TestCase):
    def test_calls_repeat_exactly_and_self_time_is_nonnegative(self):
        for name in SMALL:
            with self.subTest(workload=name):
                spec = small_spec(name)
                untraced = harness.run_rep(spec)
                first = harness.run_traced(spec)
                second = harness.run_traced(spec)
                self.assertEqual(first.tracer.calls, second.tracer.calls)
                self.assertEqual(first.tracer.counts, second.tracer.counts)
                self.assertEqual(first.fingerprint, untraced.fingerprint)
                self.assertEqual(second.fingerprint, untraced.fingerprint)
                for rep in (first, second):
                    for layer, self_s in rep.tracer.self_s.items():
                        self.assertGreaterEqual(self_s, 0.0, layer)

    def test_every_wrapper_is_removed_afterwards(self):
        before = entry_points()
        harness.run_traced(small_spec("kv_rack_zipf"))
        after = entry_points()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class MetricNameTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units_match_the_declaration(self):
        m = harness.measure(small_spec("kv_rack_zipf"), seconds=0.0, trace=False)
        metrics = harness.end_to_end(m, peak_rss_mb=1.0)
        declared = {e["name"]: e["unit"] for e in self.declared["end_to_end"]}
        self.assertEqual(list(metrics), list(declared))
        self.assertEqual(run.END_TO_END_UNITS, declared)

    def test_per_layer_names_and_units_match_the_declaration(self):
        m = harness.measure(small_spec("loopback_64b"), seconds=0.0, trace=True)
        names = list(harness.per_layer(m))
        names += [f"stage.{s}.{q}_ns" for s in harness.WATERFALL_STAGES for q in ("p50", "p99")]
        declared = {e["name"]: e["unit"] for e in self.declared["per_layer"]}
        self.assertEqual(names, list(declared))
        self.assertEqual({n: run.per_layer_unit(n) for n in names}, declared)
        for layer in LAYERS:
            self.assertIn(f"{layer}.self_s", declared)

    def test_every_name_is_well_formed(self):
        names = [w["name"] for w in self.declared["workloads"]]
        self.assertEqual(tuple(names), harness.WORKLOADS)
        for key in ("end_to_end", "per_layer"):
            names += [e["name"] for e in self.declared[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name) and len(name) <= 64, name)


if __name__ == "__main__":
    unittest.main()
