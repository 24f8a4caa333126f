"""The ``Instrumented`` mixin and the disabled-mode metric registry.

This module is deliberately dependency-free (it imports nothing from
``repro``): the DES engine itself subclasses :class:`Instrumented`, so
anything imported here sits below every other layer of the package.

Disabled mode is the default and must cost nothing on hot paths:
every component starts with the shared :data:`OBS_OFF` bundle, whose
:class:`NullRegistry` ignores every gauge and adopted counter bag, and
whose observers are all ``None``, so the hook guards skip them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple


class NullRegistry:
    """Registry facade used when metrics are disabled."""

    enabled = False

    def unique_component(self, component: str) -> str:
        return component

    def gauge(self, component: str, name: str, fn: Callable[[], float]) -> None:
        """Ignore an offered collector gauge."""

    def adopt_counters(self, component: str, counters: Any) -> None:
        """Ignore an offered :class:`~repro.sim.stats.Counter` bag."""

    def adopt_histogram(self, component: str, name: str, histogram: Any) -> None:
        """Ignore an offered :class:`~repro.sim.stats.Histogram`."""

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {}

    def __repr__(self) -> str:
        return "<NullRegistry>"


class Observability:
    """Bundle of telemetry and observers: the single attach path.

    ``metrics`` (a registry) feeds the metric exporters; when omitted
    the :class:`NullRegistry` is used, so components never need to
    check for ``None``. ``flight`` (a
    :class:`repro.obs.flight.FlightRecorder`, whose rings also build
    the Chrome trace), ``sanitizer`` (a
    :class:`repro.check.sanitizer.Sanitizer`) and ``timeline`` (a
    :class:`repro.obs.timeline.TimelineSampler`) are observers:
    :meth:`Instrumented.instrument` copies each one onto the hook of
    every component that declares it in ``_obs_hooks``.
    Observers only watch — attaching one never changes which code path a
    component runs.
    """

    __slots__ = ("metrics", "flight", "sanitizer", "timeline")

    def __init__(
        self,
        metrics: Any = None,
        flight: Any = None,
        sanitizer: Any = None,
        timeline: Any = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else NullRegistry()
        self.flight = flight
        self.sanitizer = sanitizer
        self.timeline = timeline

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

    Observer hooks are the exception: each instance starts with its own
    ``None`` copy of every hook in ``_obs_hooks``. Python 3.11
    specializes an attribute load only when the attribute lives on the
    instance, so a hot path reading a hook through the class-level
    default pays a generic lookup on every call.
    """

    #: Active observability bundle (class-level default: disabled).
    obs: Observability = OBS_OFF
    #: Registry component label assigned at instrument time.
    obs_name: str = ""
    #: Observer hooks (``flight``/``sanitizer``/``timeline``) this class
    #: reads; each instance starts with them ``None`` and
    #: :meth:`instrument` copies each from the bundle onto the instance.
    #: The class-level ``None`` defaults document them.
    _obs_hooks: Tuple[str, ...] = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "Instrumented":
        self = super().__new__(cls)
        for hook in cls._obs_hooks:
            setattr(self, hook, None)
        return self

    def _obs_component(self) -> str:
        """Default component label; override for stable short names."""
        return type(self).__name__.lower()

    def instrument(self, obs: Observability, name: Optional[str] = None) -> "Instrumented":
        """Attach an observability bundle and register metrics.

        The bundle replaces any earlier one: each hook in
        ``_obs_hooks`` takes the bundle's observer, or ``None``.
        """
        self.obs = obs
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
