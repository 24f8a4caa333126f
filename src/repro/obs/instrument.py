"""The ``Instrumented`` mixin and the disabled-mode null objects.

This module is deliberately dependency-free (it imports nothing from
``repro``): the DES engine itself subclasses :class:`Instrumented`, so
anything imported here sits below every other layer of the package.

Disabled mode is the default and must cost nothing on hot paths:
every component starts with the shared :data:`OBS_OFF` bundle, whose
registry hands out one shared :data:`NULL_METRIC` singleton (all
methods are no-ops) and whose tracer reports ``enabled = False`` so
callers skip span construction entirely.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class NullMetric:
    """Shared do-nothing stand-in for counters, gauges and histograms."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op counter increment."""

    def set(self, value: float) -> None:
        """No-op gauge update."""

    def record(self, value: float) -> None:
        """No-op histogram sample."""

    @property
    def value(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "<NullMetric>"


#: The one shared no-op metric: disabled components never allocate.
NULL_METRIC = NullMetric()


class NullRegistry:
    """Registry facade used when metrics are disabled."""

    enabled = False

    def unique_component(self, component: str) -> str:
        return component

    def counter(self, component: str, name: str) -> NullMetric:
        return NULL_METRIC

    def counter_cell(self, component: str, name: str) -> list:
        """Detached scratch cell; increments land nowhere observable."""
        return [0.0]

    def gauge(
        self, component: str, name: str, fn: Optional[Callable[[], float]] = None
    ) -> NullMetric:
        return NULL_METRIC

    def histogram(self, component: str, name: str) -> NullMetric:
        return NULL_METRIC

    def adopt_counters(self, component: str, counters: Any) -> None:
        """Ignore an offered :class:`~repro.sim.stats.Counter` bag."""

    def adopt_histogram(self, component: str, name: str, histogram: Any) -> None:
        """Ignore an offered :class:`~repro.sim.stats.Histogram`."""

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {}

    def reset(self) -> None:
        """Nothing to reset."""

    def components(self) -> List[str]:
        return []

    def __repr__(self) -> str:
        return "<NullRegistry>"


class NullTracer:
    """Tracer facade used when span tracing is disabled.

    ``enabled`` is False so hot paths skip span bookkeeping entirely;
    the methods still exist (and no-op) for callers that do not guard.
    """

    enabled = False

    def begin(
        self,
        name: str,
        actor: str = "",
        category: str = "",
        start_ns: float = 0.0,
        **args: Any,
    ) -> None:
        return None

    def end(self, span: Any, end_ns: float = 0.0) -> None:
        """No-op span close."""

    def instant(self, name: str, actor: str = "", ts: float = 0.0, **args: Any) -> None:
        """No-op point event."""

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        actor: str = "",
        category: str = "",
        start_ns: float = 0.0,
        end_ns: Optional[float] = None,
        **args: Any,
    ) -> Iterator[None]:
        yield None

    def spans(self) -> Tuple:
        return ()

    def __repr__(self) -> str:
        return "<NullTracer>"


class Observability:
    """Bundle of telemetry and observers: the single attach path.

    ``metrics`` (a registry) and ``tracer`` (a span tracer) feed the
    exporters; either may be omitted and the corresponding null facade
    is used, so components never need to check for ``None``.
    ``flight`` (a :class:`repro.obs.flight.FlightRecorder`),
    ``sanitizer`` (a :class:`repro.check.sanitizer.Sanitizer`) and
    ``timeline`` (a :class:`repro.obs.timeline.TimelineSampler`) are
    observers: :meth:`Instrumented.instrument` copies each one onto the
    class-level hook of every component that declares it in
    ``_obs_hooks``. Observers only watch — attaching one never changes
    which code path a component runs.
    """

    __slots__ = ("metrics", "tracer", "flight", "sanitizer", "timeline")

    def __init__(
        self,
        metrics: Any = None,
        tracer: Any = None,
        flight: Any = None,
        sanitizer: Any = None,
        timeline: Any = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NullRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.flight = flight
        self.sanitizer = sanitizer
        self.timeline = timeline

    @property
    def enabled(self) -> bool:
        """True when either metrics or tracing is live."""
        return bool(self.metrics.enabled or self.tracer.enabled)

    def replace(self, **changes: Any) -> "Observability":
        """A copy with the named members swapped (``None`` drops one)."""
        members = {name: getattr(self, name) for name in self.__slots__}
        members.update(changes)
        return Observability(**members)

    def __repr__(self) -> str:
        members = " ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"<Observability {members}>"


#: Shared disabled bundle: the default ``obs`` of every component.
OBS_OFF = Observability()


class Instrumented:
    """Mixin for components that can register telemetry.

    Components subclass this and override :meth:`_register_metrics`
    (and optionally :meth:`_instrument_children` for composites and
    :meth:`_obs_component` for a stable label). Until
    :meth:`instrument` is called, ``self.obs`` is the shared
    :data:`OBS_OFF` bundle — a class attribute, so uninstrumented
    instances carry zero extra per-instance state.
    """

    #: Active observability bundle (class-level default: disabled).
    obs: Observability = OBS_OFF
    #: Registry component label assigned at instrument time.
    obs_name: str = ""
    #: Single-load hot-path guard: False (class attribute) until a live
    #: bundle is attached, so uninstrumented instances pay one attribute
    #: read — no bundle/tracer dereference chain — to skip telemetry.
    obs_enabled: bool = False
    #: Observer hooks (``flight``/``sanitizer``/``timeline``) this class
    #: reads; :meth:`instrument` copies each from the bundle onto the
    #: instance, shadowing the class-level ``None`` default.
    _obs_hooks: Tuple[str, ...] = ()

    def _obs_component(self) -> str:
        """Default component label; override for stable short names."""
        return type(self).__name__.lower()

    def instrument(self, obs: Observability, name: Optional[str] = None) -> "Instrumented":
        """Attach an observability bundle and register metrics.

        The bundle replaces any earlier one: each hook in
        ``_obs_hooks`` takes the bundle's observer, or ``None``.
        """
        self.obs = obs
        self.obs_enabled = obs.enabled
        for hook in self._obs_hooks:
            setattr(self, hook, getattr(obs, hook))
        self.obs_name = obs.metrics.unique_component(name or self._obs_component())
        self._register_metrics(obs.metrics)
        self._instrument_children(obs)
        return self

    def _register_metrics(self, registry: Any) -> None:
        """Register this component's metrics; override in subclasses."""

    def _instrument_children(self, obs: Observability) -> None:
        """Cascade instrumentation to owned components; override."""
