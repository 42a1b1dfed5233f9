"""Tests for the dispatch schemes: mT-Share and the three baselines."""

import pytest

from repro.core.mtshare import MTShare
from repro.fleet.taxi import Taxi
from repro.obs import Instrumentation
from repro.partitioning.bipartite import geo_partition


@pytest.fixture()
def scenario(test_scenario):
    return test_scenario


def small_fleet(scenario, n=12, seed=0):
    return {t.taxi_id: t for t in scenario.make_fleet(n, seed=seed)}


def first_request(scenario):
    return scenario.requests()[0]


class TestSchemeFactory:
    @pytest.mark.parametrize(
        "name, cls_name",
        [
            ("no-sharing", "NoSharing"),
            ("t-share", "TShare"),
            ("pgreedydp", "PGreedyDP"),
            ("mt-share", "MTShare"),
            ("mt-share-pro", "MTShare"),
        ],
    )
    def test_factory(self, scenario, name, cls_name):
        scheme = scenario.make_scheme(name)
        assert type(scheme).__name__ == cls_name

    def test_unknown_rejected(self, scenario):
        with pytest.raises(ValueError):
            scenario.make_scheme("uber")

    def test_pro_variant_flag(self, scenario):
        assert scenario.make_scheme("mt-share-pro").probabilistic
        assert not scenario.make_scheme("mt-share").probabilistic

    def test_probabilistic_attachment_for_baseline(self, scenario):
        scheme = scenario.make_scheme("t-share", probabilistic=True)
        assert scheme.name == "T-Share+prob"
        assert scheme._prob_router is not None


class TestDispatchBasics:
    @pytest.mark.parametrize("name", ["no-sharing", "t-share", "pgreedydp", "mt-share"])
    def test_dispatch_and_install(self, scenario, name):
        scheme = scenario.make_scheme(name)
        fleet = small_fleet(scenario, 20)
        scheme.register_fleet(fleet, now=0.0)
        served = 0
        for request in scenario.requests()[:20]:
            result = scheme.dispatch(request, request.release_time)
            if result is None:
                continue
            served += 1
            taxi = scheme.install(result, request, request.release_time)
            assert request.request_id in taxi.assigned
            assert not taxi.route.empty
        assert served > 0

    @pytest.mark.parametrize("name", ["no-sharing", "t-share", "pgreedydp", "mt-share"])
    def test_dispatch_respects_capacity(self, scenario, name):
        scheme = scenario.make_scheme(name)
        fleet = {0: Taxi(taxi_id=0, capacity=1, loc=0)}
        scheme.register_fleet(fleet, now=0.0)
        assigned = 0
        for request in scenario.requests()[:30]:
            result = scheme.dispatch(request, request.release_time)
            if result is not None:
                scheme.install(result, request, request.release_time)
                assigned += 1
        assert fleet[0].committed <= 1
        assert assigned <= 1 or fleet[0].committed <= 1


class TestNoSharing:
    def test_only_idle_taxis_used(self, scenario):
        scheme = scenario.make_scheme("no-sharing")
        fleet = small_fleet(scenario, 6)
        scheme.register_fleet(fleet, now=0.0)
        requests = scenario.requests()
        matched = []
        for request in requests[:12]:
            result = scheme.dispatch(request, request.release_time)
            if result is not None:
                scheme.install(result, request, request.release_time)
                matched.append(result.taxi_id)
        # a taxi is never matched twice while busy (it never went idle
        # because we never advanced time)
        assert len(matched) == len(set(matched))

    def test_offline_only_for_vacant(self, scenario, request_factory):
        scheme = scenario.make_scheme("no-sharing")
        fleet = small_fleet(scenario, 2)
        scheme.register_fleet(fleet, now=0.0)
        taxi = next(iter(fleet.values()))
        r = scenario.requests()[0]
        assert scheme.try_offline(taxi, r, 0.0) is not None or True
        # make taxi busy: then refuse
        result = scheme.dispatch(r, r.release_time)
        if result is not None:
            busy = scheme.install(result, r, r.release_time)
            other = scenario.requests()[1]
            assert scheme.try_offline(busy, other, r.release_time) is None


class TestTShare:
    def test_returns_first_valid_not_best(self, scenario):
        scheme = scenario.make_scheme("t-share")
        fleet = small_fleet(scenario, 30)
        scheme.register_fleet(fleet, now=0.0)
        request = first_request(scenario)
        result = scheme.dispatch(request, request.release_time)
        if result is not None:
            assert result.num_candidates >= 1

    def test_candidate_count_tracked(self, scenario):
        scheme = scenario.make_scheme("t-share")
        obs = Instrumentation()
        scheme.instrument(obs)
        fleet = small_fleet(scenario, 30)
        scheme.register_fleet(fleet, now=0.0)
        request = first_request(scenario)
        scheme.dispatch(request, request.release_time)
        assert obs.counters["match.candidates_found"] >= 0


class TestPGreedyDP:
    def test_min_detour_across_candidates(self, scenario):
        scheme = scenario.make_scheme("pgreedydp")
        fleet = small_fleet(scenario, 30)
        scheme.register_fleet(fleet, now=0.0)
        request = first_request(scenario)
        result = scheme.dispatch(request, request.release_time)
        if result is None:
            pytest.skip("no feasible taxi in this draw")
        # No other candidate offers a strictly better insertion.
        best = result.detour_cost
        for taxi in fleet.values():
            found = scheme._min_detour_insertion(taxi, request, request.release_time)
            if found is not None:
                assert found[0] >= best - 1e-6


class TestMTShare:
    def test_memory_accounting(self, scenario):
        scheme = scenario.make_scheme("mt-share")
        fleet = small_fleet(scenario, 10)
        scheme.register_fleet(fleet, now=0.0)
        assert scheme.index_memory_bytes() > 0

    def test_request_clustered_on_install(self, scenario):
        scheme = scenario.make_scheme("mt-share")
        fleet = small_fleet(scenario, 20)
        scheme.register_fleet(fleet, now=0.0)
        for request in scenario.requests()[:10]:
            result = scheme.dispatch(request, request.release_time)
            if result is None:
                continue
            scheme.install(result, request, request.release_time)
            assert scheme.cluster_index.cluster_of_request(request.request_id) is not None
            scheme.on_request_finished(request)
            assert scheme.cluster_index.cluster_of_request(request.request_id) is None
            break
        else:
            pytest.skip("nothing matched")

    def test_probabilistic_needs_model(self, scenario):
        part = geo_partition(scenario.network, 8)  # no transition model
        with pytest.raises(ValueError):
            MTShare(scenario.network, scenario.engine, scenario.default_config(),
                    part, probabilistic=True)

    def test_grid_partitioned_variant_works(self, scenario):
        scheme = scenario.make_scheme("mt-share", partition_method="grid")
        fleet = small_fleet(scenario, 15)
        scheme.register_fleet(fleet, now=0.0)
        request = first_request(scenario)
        scheme.dispatch(request, request.release_time)  # should not raise

    def test_try_offline_examines_single_taxi(self, scenario):
        scheme = scenario.make_scheme("mt-share")
        fleet = small_fleet(scenario, 5)
        scheme.register_fleet(fleet, now=0.0)
        request = first_request(scenario)
        taxi = next(iter(fleet.values()))
        result = scheme.try_offline(taxi, request, request.release_time)
        if result is not None:
            assert result.taxi_id == taxi.taxi_id


class TestCruising:
    def test_no_cruise_without_prob_router(self, scenario):
        scheme = scenario.make_scheme("mt-share")
        fleet = small_fleet(scenario, 3)
        scheme.register_fleet(fleet, now=0.0)
        taxi = next(iter(fleet.values()))
        assert scheme.maybe_cruise(taxi, 0.0) is False

    def test_pro_cruises_idle_taxi(self, scenario):
        scheme = scenario.make_scheme("mt-share-pro")
        fleet = small_fleet(scenario, 3)
        scheme.register_fleet(fleet, now=0.0)
        taxi = next(iter(fleet.values()))
        cruised = scheme.maybe_cruise(taxi, 0.0)
        if cruised:
            assert taxi.idle  # still no passengers
            assert not taxi.route.empty
            assert taxi.remaining_route_cost(0.0) == 0.0

    def test_cruise_rate_limited(self, scenario):
        scheme = scenario.make_scheme("mt-share-pro")
        fleet = small_fleet(scenario, 3)
        scheme.register_fleet(fleet, now=0.0)
        taxi = next(iter(fleet.values()))
        if scheme.maybe_cruise(taxi, 0.0):
            # While the cruise is under way, no replanning happens.
            assert scheme.maybe_cruise(taxi, 1.0) is False
