"""A finished shard leaves nothing behind, and no run path imports numpy.

A shard's object graph is acyclic once ``Simulator.close()`` has closed
its suspended processes, so reference counting frees the whole shard as
``execute_spec`` returns — with the cyclic GC paused, as ``execute_spec``
and ``run_sharded(workers=1)`` run it. A cycle anywhere in the graph
(a bound method stored on its own object, a child pointing back at its
owner, a sink closure left on the NIC) would keep every shard of a
sequential run alive until the next collection.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
import repro.topology  # noqa: F401  registers the topology scenarios
from repro.shard import execute_spec, scenario
from repro.shard.spec import scenario_names

KINDS = ("ccnic", "unopt", "e810", "cx6")


def _cases():
    for name in scenario_names():
        yield pytest.param(name, None, id=name)
    for name in ("loopback_64b", "faults_canned", "kv_zipf"):
        for kind in KINDS:
            yield pytest.param(name, kind, id=f"{name}-{kind}")


@pytest.fixture
def gc_paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name, kind", list(_cases()))
def test_shard_is_freed_when_execute_spec_returns(gc_paused, name, kind):
    spec = scenario(name).shard_specs()[0]
    if kind is not None:
        spec = spec.replace(interface=kind)
    # A first run does the lazy imports, whose own garbage is not the
    # shard's.
    execute_spec(spec, quick=True)
    gc.collect()
    systems = []
    doc = execute_spec(
        spec, quick=True, attach=lambda setup: systems.append(weakref.ref(setup.system))
    )
    assert doc["events"] > 0
    (system,) = systems
    assert system() is None
    assert gc.collect() == 0


def test_no_run_path_imports_numpy():
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import repro, repro.shard, repro.topology, repro.cli\n"
        "run = repro.shard.run_sharded('loopback_64b', quick=True, workers=1)\n"
        "assert run.events > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert out.stdout.strip() == "[]"
