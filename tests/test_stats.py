"""Counters, histograms and rate meters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Histogram, RateMeter
from repro.sim.stats import ordered_sum


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("reads")
        c.add("reads", 2)
        assert c.get("reads") == 3
        assert c.get("missing") == 0

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.add("x", -1)

    def test_snapshot_and_diff(self):
        c = Counter()
        c.add("a", 5)
        snap = c.snapshot()
        c.add("a", 3)
        c.add("b", 1)
        diff = c.diff(snap)
        assert diff["a"] == 3
        assert diff["b"] == 1

    def test_reset(self):
        c = Counter()
        c.add("a")
        c.reset()
        assert c.get("a") == 0
        assert c.names() == []

    def test_names_sorted(self):
        c = Counter()
        c.add("z")
        c.add("a")
        assert c.names() == ["a", "z"]


class TestHistogram:
    def test_empty_is_nan(self):
        h = Histogram()
        assert math.isnan(h.mean)
        assert math.isnan(h.median)
        assert math.isnan(h.minimum)

    def test_single_sample(self):
        h = Histogram()
        h.record(42.0)
        assert h.median == 42.0
        assert h.percentile(0) == 42.0
        assert h.percentile(100) == 42.0

    def test_median_interpolates(self):
        h = Histogram()
        h.extend([1.0, 2.0, 3.0, 4.0])
        assert h.median == pytest.approx(2.5)

    def test_percentiles_ordered(self):
        h = Histogram()
        h.extend(range(101))
        assert h.percentile(50) == pytest.approx(50.0)
        assert h.percentile(99) == pytest.approx(99.0)
        assert h.minimum == 0
        assert h.maximum == 100

    def test_out_of_range_percentile(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_records_after_sort_are_included(self):
        h = Histogram()
        h.extend([10.0, 20.0])
        assert h.median == 15.0
        h.record(30.0)
        assert h.median == 20.0

    def test_summary_keys(self):
        h = Histogram("lat")
        h.extend([1, 2, 3])
        summary = h.summary()
        assert set(summary) == {"count", "mean", "min", "median", "p99", "max"}
        assert summary["count"] == 3


def _sorted_percentile(data, pct):
    """Exact percentile of ``sorted()`` samples, nearest rank with
    linear interpolation: what :meth:`Histogram.percentile` promises."""
    if len(data) == 1:
        return data[0]
    rank = (pct / 100.0) * (len(data) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac


# A small pool forces duplicates; wide floats exercise the interpolation.
_SAMPLE = st.one_of(
    st.sampled_from([0.0, 1.5, 1.5, 64.0, 982.0]),
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.booleans(), st.lists(_SAMPLE, min_size=1, max_size=40)),
        min_size=1, max_size=8,
    ),
    pct=st.floats(0.0, 100.0),
)
def test_histogram_matches_sorted_reference(batches, pct):
    h = Histogram()
    recorded = []
    for use_extend, values in batches:
        if use_extend:
            h.extend(values)
        else:
            for value in values:
                h.record(value)
        recorded.extend(values)
        # Queried after every batch: the sorted copy behind the order
        # statistics must follow each record() and extend().
        data = sorted(recorded)
        assert (h.minimum, h.maximum) == (data[0], data[-1])
        assert h.percentile(pct) == _sorted_percentile(data, pct)
    # A left-to-right sum: newer Pythons compensate inside sum().
    total = 0.0
    for value in recorded:
        total += value
    assert h.samples() == recorded
    assert h.count == len(recorded)
    assert h.mean == total / len(recorded)
    assert (h.minimum, h.maximum) == (data[0], data[-1])
    for p in (pct, 0.0, 50.0, 99.0, 100.0):
        assert h.percentile(p) == _sorted_percentile(data, p)


def test_ordered_sum_adds_left_to_right():
    # A compensated sum, like the builtin sum() since Python 3.12, gives 1.0.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(iter([1, 2, 3])) == 6
    assert isinstance(ordered_sum([1, 2]), int)
    assert ordered_sum([]) == 0


class TestRateMeter:
    def test_rates(self):
        m = RateMeter()
        m.mark(0.0, byte_count=64)
        m.mark(100.0, byte_count=64)
        # 2 events, 128 bytes over 100ns.
        assert m.events_per_second() == pytest.approx(2 / 100e-9)
        assert m.gbps() == pytest.approx(128 * 8 / 100.0)

    def test_empty_meter(self):
        m = RateMeter()
        assert m.events_per_second() == 0.0
        assert m.gbps() == 0.0
