"""The live :class:`MetricRegistry` and its metric types.

The registry is component-labeled: each instrumented object owns a
namespace (``fabric``, ``pool``, ``driver.q0``, ...) under which its
metrics live. Components offer three kinds, all read lazily when a
snapshot is taken, so the hot paths keep their bare attribute and dict
increments:

* :class:`GaugeMetric` — a *collector* gauge backed by a zero-argument
  callable, for values a component already maintains as plain
  attributes (``driver.tx_packets``).
* :class:`HistogramMetric` — an adopted
  :class:`repro.sim.stats.Histogram`; snapshots flatten its summary
  into ``name.count``, ``name.mean``, ...
* Adopted :class:`repro.sim.stats.Counter` bags
  (:meth:`MetricRegistry.adopt_counters`): the component keeps calling
  ``counter.add`` exactly as before and the registry copies the bag out.
  This is how the coherence fabric's transaction counters appear in
  telemetry — the registry's ``fabric`` section is always value-equal
  to ``fabric.snapshot_counters()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Tuple

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


class GaugeMetric:
    """A collector gauge: a zero-argument callable read at snapshot time."""

    __slots__ = ("component", "name", "fn")

    def __init__(self, component: str, name: str, fn: Callable[[], float]) -> None:
        self.component = component
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn())

    def __repr__(self) -> str:
        return f"GaugeMetric({self.component}.{self.name})"


class HistogramMetric:
    """An adopted sample distribution; snapshots flatten its summary."""

    __slots__ = ("component", "name", "hist")

    def __init__(self, component: str, name: str, hist: Histogram) -> None:
        self.component = component
        self.name = name
        self.hist = hist

    def items(self) -> List[Tuple[str, float]]:
        """Flattened ``(suffix, value)`` summary rows; empty if no samples."""
        if not self.hist.count:
            return []
        return [(key, val) for key, val in self.hist.summary().items()]

    def __repr__(self) -> str:
        return f"HistogramMetric({self.component}.{self.name}, n={self.hist.count})"


class MetricRegistry:
    """Component-labeled registry of gauges, counter bags and histograms."""

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

    # -- registration ----------------------------------------------------

    def gauge(self, component: str, name: str, fn: Callable[[], float]) -> None:
        """Register a collector gauge; re-registering replaces its ``fn``."""
        key = (component, name)
        existing = self._metrics.get(key)
        if existing is None:
            self._metrics[key] = GaugeMetric(component, name, fn)
        elif isinstance(existing, GaugeMetric):
            existing.fn = fn
        else:
            raise ConfigError(f"metric {component}.{name} is {type(existing).__name__}")

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

    def adopt_histogram(self, component: str, name: str, histogram: Histogram) -> None:
        """Mirror an externally owned :class:`Histogram` under ``component``."""
        self._metrics[(component, name)] = HistogramMetric(component, name, histogram)

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

    def __repr__(self) -> str:
        return (
            f"MetricRegistry({len(self._metrics)} metrics, "
            f"{len(self._adopted)} adopted bags)"
        )
