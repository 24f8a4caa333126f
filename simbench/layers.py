"""Outside-in layer tracer for the simulator.

The tracer wraps each layer's public entry points from the outside: the
public methods of the layer's component classes, a few module-level
functions, and every process generator and callback handed to the event
engine. Nothing in ``src/repro`` is edited; the wrappers are installed on
the classes (and on module globals that imported a wrapped function by
name) for the duration of one run and then restored.

Each wrapped call that crosses a layer boundary opens a span. A layer's
*self time* is the span's host time minus the time its child spans cover,
so the self times of all layers (plus the time outside every span) add up
to the traced run's wall time. Calls within one layer open no span, and
the ``setup`` layer is opaque: everything a constructor does, including
calls into other layers, is set-up time.

Install before any set-up is built: the drivers and ``LoopbackApp.run``
hoist bound methods into locals, so objects built earlier would keep
calling the unwrapped methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer the tracer attributes time to, named by module. ``shard``
#: is the per-shard root span the benchmark opens around ``execute_spec``
#: and ``merge_results``.
LAYERS: Tuple[str, ...] = (
    "sim",
    "coherence",
    "interconnect",
    "topology",
    "core.driver",
    "core.ring",
    "core.pool",
    "core.agent",
    "faults",
    "workloads",
    "apps",
    "setup",
    "shard",
)

#: Component classes whose public methods are a layer's entry points.
ENTRY_CLASSES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim": (("repro.sim.engine", "Simulator"),),
    "coherence": (("repro.coherence.fabric", "CoherenceFabric"),),
    "interconnect": (("repro.interconnect.link", "Link"),),
    "topology": (("repro.topology.net", "TopologyNet"), ("repro.topology.net", "Router")),
    "core.driver": (
        ("repro.core.driver", "CcnicDriver"),
        ("repro.core.recovery", "RecoverableDriver"),
    ),
    "core.ring": (("repro.core.ring", "CoherentQueue"),),
    "core.pool": (("repro.core.pool", "BufferPool"),),
    "core.agent": (("repro.core.agent", "NicQueueAgent"),),
    "faults": (("repro.faults.injector", "FaultInjector"),),
    "workloads": (
        ("repro.workloads.trafficgen", "LoopbackApp"),
        ("repro.workloads.distributions", "ObjectSizeDistribution"),
        ("repro.workloads.distributions", "ZipfKeys"),
    ),
    "apps": (("repro.apps.kvstore", "KvServerApp"), ("repro.apps.rack", "RackKvApp")),
}

#: Module-level functions that are entry points, by layer.
ENTRY_FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads": (("repro.workloads.trafficgen", "run_loopback"),),
    "setup": (("repro.analysis.loopback", "build_interface"),),
}

#: Constructors charged to ``setup`` (with everything they call).
SETUP_CONSTRUCTORS: Tuple[Tuple[str, str], ...] = (
    ("repro.apps.kvstore", "KvServerApp"),
    ("repro.apps.rack", "RackKvApp"),
    ("repro.topology.net", "TopologyNet"),
)

#: Owning layer of the generators and callbacks a module hands the
#: engine, by module-name prefix (first match wins).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.coherence", "coherence"),
    ("repro.interconnect", "interconnect"),
    ("repro.topology", "topology"),
    ("repro.core.driver", "core.driver"),
    ("repro.core.recovery", "core.driver"),
    ("repro.core.ring", "core.ring"),
    ("repro.core.pool", "core.pool"),
    ("repro.core.agent", "core.agent"),
    ("repro.faults", "faults"),
    ("repro.workloads", "workloads"),
    ("repro.apps", "apps"),
)

#: Driver-boundary counters the tracer keeps besides spans.
COUNTS = ("tx_offered", "tx_accepted", "rx_polls", "rx_packets")

#: ``Simulator`` methods whose arguments carry code of other layers:
#: method -> (parameter name, positional index counting ``self``, kind).
_ENGINE_ARGS = {
    "spawn": ("body", 1, "process"),
    "call_at": ("fn", 2, "callback"),
    "call_after": ("fn", 2, "callback"),
    "run": ("stop_when", 3, "callback"),
}


def module_layer(module: Optional[str]) -> Optional[str]:
    """The layer owning code defined in ``module``, or None."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


class _TracedProcess:
    """Generator stand-in whose every resumption is one span."""

    __slots__ = ("_body", "_step")

    def __init__(self, body, step: Callable) -> None:
        self._body = body
        self._step = step

    def send(self, value):
        return self._step(value)

    def __next__(self):
        return self._step(None)

    def close(self) -> None:
        self._body.close()


class LayerTracer:
    """Per-layer self time, boundary-crossing calls and driver counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        # Open spans, innermost last: [layer, host time of child spans].
        self._stack: List[list] = []

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, adapt=None, observe=None) -> Callable:
        """``fn`` with a span for ``layer`` around each boundary-crossing call.

        ``adapt(args, kwargs)`` rewrites the arguments first (always, even
        when no span opens); ``observe(args, kwargs, result)`` sees every
        call that returns.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            top = stack[-1][0] if stack else None
            if top == layer or top == "setup":
                result = fn(*args, **kwargs)
            else:
                calls[layer] += 1
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span of ``layer`` (the benchmark's root spans)."""
        return self.wrap(fn, layer)(*args, **kwargs)

    # ------------------------------------------------------------------
    def _trace_process(self, body):
        frame = getattr(body, "gi_frame", None)
        layer = module_layer(frame.f_globals.get("__name__") if frame else None)
        if layer is None:
            return body
        return _TracedProcess(body, self.wrap(body.send, layer))

    def _trace_callback(self, fn):
        layer = module_layer(getattr(fn, "__module__", None))
        if fn is None or layer is None:
            return fn
        return self.wrap(fn, layer)

    def _engine_adapter(self, method: str):
        name, index, kind = _ENGINE_ARGS[method]
        trace = self._trace_process if kind == "process" else self._trace_callback

        def adapt(args, kwargs):
            if name in kwargs:
                kwargs[name] = trace(kwargs[name])
            elif len(args) > index:
                args = args[:index] + (trace(args[index]),) + args[index + 1:]
            return args, kwargs

        return adapt

    def _observer(self, cls_name: str, method: str):
        counts = self.counts
        if cls_name == "CcnicDriver" and method == "tx_burst":
            def observe(args, kwargs, result):
                entries = kwargs["entries"] if "entries" in kwargs else args[1]
                counts["tx_offered"] += len(entries)
                counts["tx_accepted"] += result.count
            return observe
        if cls_name == "CcnicDriver" and method == "rx_burst":
            def observe(args, kwargs, result):
                counts["rx_polls"] += 1
                counts["rx_packets"] += len(result.entries)
            return observe
        return None

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []

        def patch(owner, name: str, value) -> None:
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        try:
            for layer, classes in ENTRY_CLASSES.items():
                for module, cls_name in classes:
                    cls = getattr(importlib.import_module(module), cls_name)
                    for name, attr in list(vars(cls).items()):
                        if (
                            name.startswith("_")
                            or not inspect.isfunction(attr)
                            or inspect.isgeneratorfunction(attr)
                        ):
                            continue
                        adapt = self._engine_adapter(name) if (
                            cls_name == "Simulator" and name in _ENGINE_ARGS
                        ) else None
                        patch(cls, name, self.wrap(
                            attr, layer, adapt, self._observer(cls_name, name)
                        ))
            for module, cls_name in SETUP_CONSTRUCTORS:
                cls = getattr(importlib.import_module(module), cls_name)
                patch(cls, "__init__", self.wrap(vars(cls)["__init__"], "setup"))
            for layer, functions in ENTRY_FUNCTIONS.items():
                for module, name in functions:
                    original = getattr(importlib.import_module(module), name)
                    wrapped = self.wrap(original, layer)
                    # Rebind every global that imported the function by name.
                    for mod_name, mod in list(sys.modules.items()):
                        if mod is None or not mod_name.startswith("repro"):
                            continue
                        for attr_name, value in list(vars(mod).items()):
                            if value is original:
                                patch(mod, attr_name, wrapped)
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)
