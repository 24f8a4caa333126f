"""The live :class:`MetricRegistry` and its metric types.

The registry is component-labeled: each instrumented object owns a
namespace (``fabric``, ``pool``, ``driver.q0``, ...) under which its
metrics live. Three kinds of metric exist:

* :class:`CounterMetric` — monotonically increasing.
* :class:`GaugeMetric` — last-set value, or a *collector* gauge backed
  by a zero-argument callable read lazily at snapshot time. Collector
  gauges are the preferred way to expose values a component already
  maintains as plain attributes (``driver.tx_packets``): the hot path
  stays a bare attribute increment.
* :class:`HistogramMetric` — wraps :class:`repro.sim.stats.Histogram`;
  snapshots flatten its summary into ``name.count``, ``name.mean``, ...

Existing :class:`repro.sim.stats.Counter` bags can also be *adopted*
(:meth:`MetricRegistry.adopt_counters`): the component keeps calling
``counter.add`` exactly as before and the registry copies the bag out
at snapshot time. This is how the coherence fabric's transaction
counters appear in telemetry without touching the fabric hot path —
the registry's ``fabric`` section is always value-equal to
``fabric.snapshot_counters()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.stats import Counter, Histogram, ordered_sum

#: Histogram-summary suffixes with non-additive merge semantics (see
#: :func:`merge_snapshots`).
_MIN_SUFFIX = ".min"
_MAX_SUFFIX = ".max"
_WEIGHTED_SUFFIXES = (".mean", ".median", ".p99")


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Mapping[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Merge per-shard registry snapshots into one, deterministically.

    The merge is **order-independent up to float associativity**: inputs
    are reduced in a canonical order (sorted component, sorted metric
    name, then input position), so the same multiset of snapshots always
    produces the bit-identical merged dict no matter which worker
    finished first. Shard runners that need strict order independence
    therefore sort their inputs by shard index before calling this.

    Per-key semantics, chosen by the flattened metric-name suffix:

    * ``*.min`` → minimum, ``*.max`` → maximum;
    * ``*.mean`` / ``*.median`` / ``*.p99`` → mean weighted by the
      sibling ``*.count`` key (exact for ``.mean``; a documented
      approximation for the quantile keys — callers needing exact merged
      quantiles must merge raw samples, as the shard layer does for
      latency histograms);
    * everything else (counters, gauges, ``*.count``) → sum.
    """
    ordered = list(snapshots)
    components: Dict[str, List[Mapping[str, float]]] = {}
    for snap in ordered:
        for component, section in snap.items():
            components.setdefault(component, []).append(section)
    out: Dict[str, Dict[str, float]] = {}
    for component in sorted(components):
        sections = components[component]
        names = sorted({name for section in sections for name in section})
        merged: Dict[str, float] = {}
        for name in names:
            values = [s[name] for s in sections if name in s]
            if name.endswith(_MIN_SUFFIX):
                merged[name] = min(values)
            elif name.endswith(_MAX_SUFFIX):
                merged[name] = max(values)
            elif name.endswith(_WEIGHTED_SUFFIXES):
                base = name.rsplit(".", 1)[0]
                weights = [s.get(base + ".count", 1.0) for s in sections if name in s]
                total = ordered_sum(weights)
                if total <= 0:
                    merged[name] = ordered_sum(values) / len(values)
                else:
                    merged[name] = (
                        ordered_sum(v * w for v, w in zip(values, weights)) / total
                    )
            else:
                merged[name] = ordered_sum(values)
        out[component] = merged
    return out


class CounterMetric:
    """A single monotonically increasing value.

    The value lives in a one-element list :attr:`cell` so hot paths can
    hoist the metric lookup and increment with ``cell[0] += x`` — one
    list indexing instead of a bound-method call per event. The cell
    object survives :meth:`reset` (it is zeroed in place), so cached
    references never go stale.
    """

    __slots__ = ("component", "name", "cell")

    def __init__(self, component: str, name: str) -> None:
        self.component = component
        self.name = name
        self.cell = [0.0]

    def inc(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ConfigError(f"counter increments must be >= 0, got {amount}")
        self.cell[0] += amount

    @property
    def value(self) -> float:
        return self.cell[0]

    def reset(self) -> None:
        self.cell[0] = 0.0

    def __repr__(self) -> str:
        return f"CounterMetric({self.component}.{self.name}={self.cell[0]:g})"


class GaugeMetric:
    """A last-set value, optionally backed by a collector callable."""

    __slots__ = ("component", "name", "fn", "_value")

    def __init__(
        self,
        component: str,
        name: str,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.component = component
        self.name = name
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current level (ignored by collector gauges)."""
        self._value = value

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:
        kind = "collector" if self.fn is not None else "set"
        return f"GaugeMetric({self.component}.{self.name}, {kind})"


class HistogramMetric:
    """Sample distribution; snapshots flatten the summary statistics."""

    __slots__ = ("component", "name", "hist")

    def __init__(
        self,
        component: str,
        name: str,
        hist: Optional[Histogram] = None,
    ) -> None:
        self.component = component
        self.name = name
        self.hist = hist if hist is not None else Histogram(name)

    def record(self, value: float) -> None:
        """Add one sample."""
        self.hist.record(value)

    @property
    def value(self) -> float:
        """Sample count (histograms have no single scalar value)."""
        return float(self.hist.count)

    def items(self) -> List[Tuple[str, float]]:
        """Flattened ``(suffix, value)`` summary rows; empty if no samples."""
        if not self.hist.count:
            return []
        return [(key, val) for key, val in self.hist.summary().items()]

    def reset(self) -> None:
        self.hist = Histogram(self.name)

    def __repr__(self) -> str:
        return f"HistogramMetric({self.component}.{self.name}, n={self.hist.count})"


class MetricRegistry:
    """Component-labeled registry of counters, gauges and histograms."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str], object] = {}
        self._adopted: List[Tuple[str, Counter]] = []
        self._component_counts: Dict[str, int] = {}

    # -- component namespace management --------------------------------

    def unique_component(self, component: str) -> str:
        """Reserve a component label, suffixing ``#2``, ``#3``... on reuse.

        Lets two systems (e.g. the kv study's host and device setups)
        share one registry without their metrics colliding.
        """
        n = self._component_counts.get(component, 0) + 1
        self._component_counts[component] = n
        if n == 1:
            return component
        return f"{component}#{n}"

    def components(self) -> List[str]:
        """Sorted component labels with at least one metric."""
        names = {component for component, _ in self._metrics}
        names.update(component for component, _ in self._adopted)
        return sorted(names)

    # -- metric factories -----------------------------------------------

    def counter(self, component: str, name: str) -> CounterMetric:
        """Get-or-create a counter under ``component``."""
        return self._get_or_create(component, name, CounterMetric)

    def counter_cell(self, component: str, name: str) -> list:
        """Mutable ``[value]`` cell of the counter, for hot-path use.

        The cell stays valid across :meth:`reset` — see
        :class:`CounterMetric`.
        """
        return self.counter(component, name).cell

    def gauge(
        self,
        component: str,
        name: str,
        fn: Optional[Callable[[], float]] = None,
    ) -> GaugeMetric:
        """Get-or-create a gauge; pass ``fn`` for a collector gauge."""
        key = (component, name)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, GaugeMetric):
                raise ConfigError(f"metric {component}.{name} is {type(existing).__name__}")
            if fn is not None:
                existing.fn = fn
            return existing
        metric = GaugeMetric(component, name, fn)
        self._metrics[key] = metric
        return metric

    def histogram(self, component: str, name: str) -> HistogramMetric:
        """Get-or-create a histogram under ``component``."""
        return self._get_or_create(component, name, HistogramMetric)

    def adopt_counters(self, component: str, counters: Counter) -> None:
        """Mirror an existing :class:`Counter` bag under ``component``.

        The owner keeps mutating the bag directly; the registry reads
        it lazily at :meth:`snapshot` time, so adoption adds zero cost
        to the owner's hot path.
        """
        for adopted_component, adopted in self._adopted:
            if adopted_component == component and adopted is counters:
                return
        self._adopted.append((component, counters))

    def adopt_histogram(
        self, component: str, name: str, histogram: Histogram
    ) -> HistogramMetric:
        """Wrap an externally owned :class:`Histogram` as a metric."""
        key = (component, name)
        existing = self._metrics.get(key)
        if isinstance(existing, HistogramMetric):
            existing.hist = histogram
            return existing
        metric = HistogramMetric(component, name, histogram)
        self._metrics[key] = metric
        return metric

    def _get_or_create(self, component: str, name: str, cls):
        key = (component, name)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(f"metric {component}.{name} is {type(existing).__name__}")
            return existing
        metric = cls(component, name)
        self._metrics[key] = metric
        return metric

    # -- output ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{component: {metric: value}}`` for everything registered.

        Histograms contribute flattened ``name.count``/``name.mean``/...
        rows; adopted counter bags are copied verbatim. A component with
        no values (only empty histograms or an untouched adopted bag)
        contributes no section at all — the flat CSV form cannot
        represent an empty section, so materializing one here would
        break the JSON/CSV round-trip equivalence the exporters promise.
        """
        out: Dict[str, Dict[str, float]] = {}
        for (component, name), metric in self._metrics.items():
            if isinstance(metric, HistogramMetric):
                rows = metric.items()
                if not rows:
                    continue
                section = out.setdefault(component, {})
                for suffix, value in rows:
                    section[f"{name}.{suffix}"] = value
            else:
                out.setdefault(component, {})[name] = metric.value
        for component, counters in self._adopted:
            bag = counters.snapshot()
            if bag:
                out.setdefault(component, {}).update(bag)
        return out

    @staticmethod
    def merge(
        snapshots: Iterable[Mapping[str, Mapping[str, float]]],
    ) -> Dict[str, Dict[str, float]]:
        """Merge :meth:`snapshot` dicts from several registries.

        See :func:`merge_snapshots` for the per-key reduction rules.
        This is how a partitioned run's per-shard registries combine
        into the one snapshot the exporters write.
        """
        return merge_snapshots(snapshots)

    def reset(self) -> None:
        """Zero owned metrics and adopted counter bags."""
        for metric in self._metrics.values():
            metric.reset()
        for _, counters in self._adopted:
            counters.reset()

    def __repr__(self) -> str:
        return (
            f"MetricRegistry({len(self._metrics)} metrics, "
            f"{len(self._adopted)} adopted bags)"
        )
