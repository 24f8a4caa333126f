"""Workload distributions: Ads/Geo object sizes and Zipf keys."""

import bisect
import builtins
import math

import pytest

from repro.errors import WorkloadError
from repro.sim.rng import make_rng
from repro.workloads import AdsObjectSizes, GeoObjectSizes, ObjectSizeDistribution, ZipfKeys
from tests.test_perf_determinism import _compensated_sum


class TestObjectSizes:
    def test_ads_small_object_fraction(self):
        """Paper: 61% of Ads objects are under 100B."""
        dist = AdsObjectSizes()
        frac = dist.fraction_below(100, make_rng(1, "ads"))
        assert 0.55 <= frac <= 0.67

    def test_geo_small_object_fraction(self):
        """Paper: 13% of Geo objects are under 100B."""
        dist = GeoObjectSizes()
        frac = dist.fraction_below(100, make_rng(1, "geo"))
        assert 0.09 <= frac <= 0.18

    def test_sizes_capped_at_mtu(self):
        rng = make_rng(2, "cap")
        for dist in (AdsObjectSizes(), GeoObjectSizes()):
            sizes = [dist.sample(rng) for _ in range(5000)]
            assert max(sizes) <= 9600
            assert min(sizes) >= 1

    def test_geo_skews_larger_than_ads(self):
        rng_a = make_rng(3, "a")
        rng_g = make_rng(3, "g")
        ads = sum(AdsObjectSizes().sample(rng_a) for _ in range(5000))
        geo = sum(GeoObjectSizes().sample(rng_g) for _ in range(5000))
        assert geo > ads

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", [], 9600)
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", [(0.5, 100)], 9600)  # cum != 1
        with pytest.raises(WorkloadError):
            ObjectSizeDistribution("bad", [(1.5, 100)], 9600)


def _reference_sample(dist, rng):
    """One size per call, both segment-bound logs taken per draw: the
    oracle for the compiled table behind :meth:`sample_many`."""
    u = rng.random()
    seg = bisect.bisect_left(dist._cums, u)
    if seg >= len(dist._sizes):
        seg = len(dist._sizes) - 1
    low = 16 if seg == 0 else dist._sizes[seg - 1]
    high = dist._sizes[seg]
    if high <= low:
        return min(high, dist.max_size)
    log_low, log_high = math.log(low), math.log(high)
    value = math.exp(log_low + (log_high - log_low) * rng.random())
    return max(1, min(int(value), dist.max_size))


def _tiny_sizes():
    """A first bound below the 16B floor and a repeated bound: segments 0
    and 2 are empty and draw no size inside them."""
    return ObjectSizeDistribution(
        "tiny", [(0.2, 8), (0.4, 16), (0.5, 16), (0.9, 64), (1.0, 100)], 9600
    )


class TestCompiledSizeTable:
    @pytest.mark.parametrize("factory", [AdsObjectSizes, GeoObjectSizes, _tiny_sizes])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_sample_many_matches_per_call_reference(self, factory, seed):
        dist = factory()
        for n in (0, 1, 2, 37, 5000):
            rng, oracle = make_rng(seed, f"sizes-{n}"), make_rng(seed, f"sizes-{n}")
            assert dist.sample_many(rng, n) == [
                _reference_sample(dist, oracle) for _ in range(n)
            ]
            assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("factory", [AdsObjectSizes, GeoObjectSizes, _tiny_sizes])
    def test_sample_and_fraction_below_match_reference(self, factory):
        dist = factory()
        rng, oracle = make_rng(5, "one"), make_rng(5, "one")
        assert [dist.sample(rng) for _ in range(500)] == [
            _reference_sample(dist, oracle) for _ in range(500)
        ]
        hits = sum(1 for _ in range(3000) if _reference_sample(dist, oracle) < 100)
        assert dist.fraction_below(100, rng, n=3000) == hits / 3000
        assert rng.getstate() == oracle.getstate()


class TestZipf:
    def test_table_does_not_depend_on_builtin_sum(self, monkeypatch):
        """The weights are totalled left to right, so the table has the
        same bits under Python 3.12's compensated ``sum()``."""
        table = ZipfKeys(4096, 0.75)._cumulative
        # 1 / the left-to-right total of the 4,096 weights (the
        # compensated total ends ...456, not ...506).
        assert table[0] == 1.0 / 28.559691145752506
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert ZipfKeys(4096, 0.75)._cumulative == table

    def test_skew(self):
        """With coefficient 0.75, the hottest keys dominate."""
        keys = ZipfKeys(1000, 0.75)
        assert keys.hottest_fraction(10) > 10 / 1000 * 3

    def test_samples_in_range(self):
        keys = ZipfKeys(100, 0.75)
        rng = make_rng(4, "zipf")
        samples = [keys.sample(rng) for _ in range(2000)]
        assert all(0 <= s < 100 for s in samples)

    def test_low_keys_more_popular(self):
        keys = ZipfKeys(100, 0.75)
        rng = make_rng(5, "zipf2")
        samples = [keys.sample(rng) for _ in range(20000)]
        first_decile = sum(1 for s in samples if s < 10)
        last_decile = sum(1 for s in samples if s >= 90)
        assert first_decile > 3 * last_decile

    def test_uniform_when_coefficient_zero(self):
        keys = ZipfKeys(10, 0.0)
        assert keys.hottest_fraction(1) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfKeys(0)
        with pytest.raises(WorkloadError):
            ZipfKeys(10, -1.0)

    def test_hottest_fraction_bounds(self):
        keys = ZipfKeys(10, 0.75)
        assert keys.hottest_fraction(0) == 0.0
        assert keys.hottest_fraction(10) == pytest.approx(1.0)
        assert keys.hottest_fraction(100) == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = [AdsObjectSizes().sample(make_rng(9, "x")) for _ in range(10)]
        b = [AdsObjectSizes().sample(make_rng(9, "x")) for _ in range(10)]
        assert a == b

    def test_labels_give_independent_streams(self):
        rng1 = make_rng(9, "one")
        rng2 = make_rng(9, "two")
        assert [rng1.random() for _ in range(5)] != [rng2.random() for _ in range(5)]
