"""Tests for the synthetic Chengdu-like demand generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.demand.generator import (
    WEEKEND_HOURLY_PROFILE,
    WORKDAY_HOURLY_PROFILE,
    ZONE_TYPES,
    ChengduLikeDemand,
    _flow_matrix,
    _origin_weights,
)
from tests.oracles import ReferenceDemand


@pytest.fixture(scope="module")
def demand(small_net):
    return ChengduLikeDemand(small_net, num_zones=8, vertices_per_zone=8,
                             hourly_requests=200, seed=1)


class TestProfiles:
    def test_profiles_have_24_hours(self):
        assert WORKDAY_HOURLY_PROFILE.shape == (24,)
        assert WEEKEND_HOURLY_PROFILE.shape == (24,)

    def test_workday_peaks_at_8(self):
        assert int(np.argmax(WORKDAY_HOURLY_PROFILE)) == 8

    def test_weekend_flatter_than_workday(self):
        assert WEEKEND_HOURLY_PROFILE.std() < WORKDAY_HOURLY_PROFILE.std()

    @pytest.mark.parametrize("hour", [3, 8, 12, 18, 22])
    @pytest.mark.parametrize("weekend", [False, True])
    def test_flow_matrix_stochastic(self, hour, weekend):
        m = _flow_matrix(hour, weekend, concentration=4.0)
        assert m.shape == (4, 4)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert (m >= 0).all()

    def test_morning_commute_targets_business(self):
        m = _flow_matrix(8, weekend=False)
        residential, business = 0, 1
        assert m[residential, business] == m[residential].max()

    def test_origin_weights_normalised(self):
        for hour in (4, 8, 17, 23):
            for weekend in (False, True):
                w = _origin_weights(hour, weekend)
                assert w.sum() == pytest.approx(1.0)


class TestZones:
    def test_zone_count_and_types(self, demand):
        zones = demand.zones
        assert len(zones) == 8
        assert {z.zone_type for z in zones} == set(ZONE_TYPES)

    def test_zone_members_are_vertices(self, demand, small_net):
        for z in demand.zones:
            assert all(0 <= v < small_net.num_vertices for v in z.member_vertices)

    def test_too_few_zones_rejected(self, small_net):
        with pytest.raises(ValueError):
            ChengduLikeDemand(small_net, num_zones=2)

    def test_zone_count_leaving_a_type_empty_rejected(self, small_net):
        """Four zones pass a ``< len(ZONE_TYPES)`` check, but the type
        cycle reaches ``transport`` only at the fifth; that used to
        surface as ``ValueError: high <= 0`` in the first generated hour."""
        with pytest.raises(ValueError, match="no transport zone"):
            ChengduLikeDemand(small_net, num_zones=4)
        assert {z.zone_type for z in ChengduLikeDemand(small_net, num_zones=5).zones} == set(
            ZONE_TYPES
        )

    def test_bad_rate_rejected(self, small_net):
        with pytest.raises(ValueError):
            ChengduLikeDemand(small_net, hourly_requests=0)

    def test_bad_concentration_rejected(self, small_net):
        with pytest.raises(ValueError):
            ChengduLikeDemand(small_net, concentration=0.0)


class TestGeneration:
    def test_hour_volume_tracks_profile(self, demand):
        peak = demand.generate_hour(0, 8, weekend=False)
        night = demand.generate_hour(0, 3, weekend=False)
        assert len(peak) > 3 * len(night)

    def test_trips_sorted_and_in_hour(self, demand):
        trips = demand.generate_hour(2, 10, weekend=False)
        times = [t for t, _o, _d in trips]
        assert times == sorted(times)
        start = (2 * 24 + 10) * 3600.0
        assert all(start <= t < start + 3600.0 for t in times)

    def test_no_self_trips(self, demand):
        trips = demand.generate_hour(0, 8)
        assert all(o != d for _t, o, d in trips)

    def test_deterministic_given_seed(self, small_net):
        a = ChengduLikeDemand(small_net, num_zones=6, hourly_requests=100, seed=9)
        b = ChengduLikeDemand(small_net, num_zones=6, hourly_requests=100, seed=9)
        assert a.generate_hour(0, 8) == b.generate_hour(0, 8)

    def test_rate_scale(self, demand):
        big = demand.generate_hour(0, 8, rate_scale=2.0)
        small = demand.generate_hour(0, 8, rate_scale=0.25)
        assert len(big) > len(small)

    def test_generate_window(self, demand):
        ds = demand.generate_window(1, 8, 2, weekend=False)
        assert len(ds) > 0
        hours = set((ds.release_times // 3600).astype(int).tolist())
        assert hours <= {1 * 24 + 8, 1 * 24 + 9}

    def test_generate_days(self, demand):
        ds = demand.generate_days(2)
        assert ds.release_times.max() < 2 * 86400.0
        # Both days contribute trips.
        assert len(ds.window(0.0, 86400.0)) > 0
        assert len(ds.window(86400.0, 2 * 86400.0)) > 0

    def test_corridor_structure_learnable(self, demand):
        """Trips from one zone should concentrate on few partner zones."""
        trips = demand.generate_window(0, 7, 3, weekend=False)
        # entropy check: the destination distribution per origin vertex
        # group should be far from uniform.
        origins = trips.origins
        dests = trips.destinations
        top_origin = np.bincount(origins).argmax()
        mask = origins == top_origin
        if mask.sum() >= 10:
            dest_counts = np.bincount(dests[mask])
            top_share = dest_counts.max() / mask.sum()
            assert top_share > 0.15


# ----------------------------------------------------------------------
# table-driven sampling == the scalar rng.choice loop it replaced
# ----------------------------------------------------------------------
DATASET_FIELDS = ("release_times", "origins", "destinations", "taxi_ids")


def _pair(net, **kwargs):
    return ChengduLikeDemand(net, **kwargs), ReferenceDemand(net, **kwargs)


def _assert_same_dataset(new, ref):
    for name in DATASET_FIELDS:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_same_rng_state(new, ref):
    assert new._rng.bit_generator.state == ref._rng.bit_generator.state


class TestReferenceEquivalence:
    """Same trips from the same stream: element for element, and the
    generator's RNG left in the same state, so whatever is sampled next
    is the same too.  Zone counts 5, 7 and 9 leave some types a single
    zone, whose pick draws nothing from the stream."""

    @pytest.mark.parametrize("concentration", [4.0, 1.0])
    @pytest.mark.parametrize("num_zones", [5, 7, 9, 12])
    def test_generate_hour(self, small_net, num_zones, concentration):
        new, ref = _pair(small_net, num_zones=num_zones, vertices_per_zone=8,
                         hourly_requests=150, concentration=concentration, seed=4)
        for day, hour, weekend, rate_scale in (
            (0, 8, False, 1.0), (0, 17, False, 0.5), (5, 10, True, 1.0),
            (6, 23, True, 2.0), (1, 3, False, 1.0),
        ):
            got = new.generate_hour(day, hour, weekend=weekend, rate_scale=rate_scale)
            want = ref.generate_hour(day, hour, weekend=weekend, rate_scale=rate_scale)
            assert got == want
            assert all(
                type(t) is float and type(o) is int and type(d) is int for t, o, d in got
            )
            _assert_same_rng_state(new, ref)

    @pytest.mark.parametrize("num_zones", [5, 7, 9, 12])
    def test_generate_days_and_window(self, small_net, num_zones):
        new, ref = _pair(small_net, num_zones=num_zones, hourly_requests=60, seed=2)
        _assert_same_dataset(
            new.generate_days(3, weekend_days={1}, rate_scale=0.5),
            ref.generate_days(3, weekend_days={1}, rate_scale=0.5),
        )
        _assert_same_rng_state(new, ref)
        _assert_same_dataset(new.generate_days(7), ref.generate_days(7))
        _assert_same_dataset(
            new.generate_window(5, 9, 3, weekend=True, rate_scale=1.5),
            ref.generate_window(5, 9, 3, weekend=True, rate_scale=1.5),
        )
        _assert_same_rng_state(new, ref)

    def test_reference_shares_no_table(self, small_net):
        ref = ReferenceDemand(small_net)
        for name in ("_vertex_cdf", "_zone_members", "_type_zone_ids", "_affinity_cdf"):
            assert not hasattr(ref, name)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_zones=st.integers(5, 20),
        hourly_requests=st.integers(1, 80),
        day=st.integers(0, 13),
        hour=st.integers(0, 23),
        weekend=st.booleans(),
    )
    def test_any_hour_of_any_generator(
        self, small_net, seed, num_zones, hourly_requests, day, hour, weekend
    ):
        new, ref = _pair(small_net, num_zones=num_zones, vertices_per_zone=6,
                         hourly_requests=hourly_requests, seed=seed)
        assert new.generate_hour(day, hour, weekend=weekend) == ref.generate_hour(
            day, hour, weekend=weekend
        )
        _assert_same_rng_state(new, ref)


def test_stream_is_the_one_stored_traces_were_drawn_from(small_net):
    """The trace of one small fixed spec, pinned by hash.

    numpy promises no ``Generator`` stream across versions, and the
    artifact store keys a trace by its *spec*: if an upgrade (or an
    edit here) moved the stream, a cold store would hold a different
    trace from a warm one under the same key, silently.  A failure here
    means exactly that; bump ``repro.artifacts.SCHEMA_VERSION`` in the
    change that accepts the new hash.
    """
    demand = ChengduLikeDemand(small_net, num_zones=7, vertices_per_zone=8,
                               hourly_requests=40, seed=11)
    trace = demand.generate_days(2, weekend_days={1})
    digest = hashlib.sha256()
    for name in DATASET_FIELDS:
        digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    assert len(trace) == 868
    assert digest.hexdigest() == (
        "9b8bf875e6ddee99a21fa3ca4bfa6d2c485a6345e6fe6d231c507ed19f2b18ef"
    )
