"""Streaming dispatch service tests: equivalence, admission, transport.

The load-bearing guarantee is *equivalence*: a workload replayed
through the service façade — any submission order, any pumping cadence
— must produce decisions bit-identical to batch ``Simulator.run()``
over the same workload, because both reduce to the same heap-ordered
event sequence.  On top of that, admission control (duplicate, late,
backpressure) must keep the request-accounting identity closed.
"""

import dataclasses
import http.client
import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.payment import PaymentModel
from repro.demand.request import RideRequest
from repro.sim.engine import COMPACT_SAMPLE_CAP, Simulator
from repro.sim.scenario import ScenarioSpec, get_scenario
from repro.service import (
    REJECT_BACKPRESSURE,
    REJECT_DUPLICATE,
    REJECT_LATE,
    AdmissionPolicy,
    DispatchService,
    ServiceConfig,
    jsonl_requests,
    request_from_dict,
    request_to_dict,
    synthetic_requests,
)
from repro.service.http import MAX_BODY_BYTES, make_server
from tests.conftest import make_request
from tests.test_runner_parallel import decision_fingerprint

SERVICE_SPEC = ScenarioSpec(
    kind="peak",
    grid_rows=8,
    grid_cols=8,
    spacing_m=180.0,
    hourly_requests=120,
    history_days=2,
    num_partitions=9,
    offline_count=10,
    seed=3,
)

NONPEAK_SERVICE_SPEC = dataclasses.replace(SERVICE_SPEC, kind="nonpeak", offline_count=30)

#: Hostile wire values per cell: a field and what it is set to (``None``
#: means ``V``, the first vertex id past the network).  ``json`` writes
#: and reads ``NaN`` and ``Infinity`` as numbers.
HOSTILE = {
    "nan": ("release_time", float("nan")),
    "inf": ("deadline", float("inf")),
    "-1": ("origin", -1),
    "V": ("destination", None),
    "frac": ("origin", 3.5),
    "str-id": ("request_id", "12"),
    "str-bool": ("offline", "false"),
}


def hostile_payload(request, cell, num_vertices):
    """``request``'s wire dict with the ``cell`` field made hostile."""
    field, value = HOSTILE[cell]
    return request_to_dict(request) | {field: num_vertices if value is None else value}


MEASURED_KEYS = frozenset(
    {"response_ms", "stage_candidates_ms", "stage_insertion_ms", "stage_planning_ms"}
)


@pytest.fixture(scope="module")
def svc_scenario():
    return get_scenario(SERVICE_SPEC)


def _make_sim(scenario, workload, scheme="mt-share", **kwargs):
    return Simulator(
        scenario.make_scheme(scheme),
        scenario.make_fleet(15, seed=1),
        workload,
        payment=PaymentModel(),
        **kwargs,
    )


def _decision_summary(m):
    return {k: v for k, v in m.summary().items() if k not in MEASURED_KEYS}


class TestEquivalence:
    @pytest.fixture(scope="class")
    def batch(self, svc_scenario):
        sim = _make_sim(svc_scenario, svc_scenario.requests())
        return sim, sim.run()

    def test_eager_stream_matches_batch(self, svc_scenario, batch):
        _bsim, bm = batch
        service = DispatchService(_make_sim(svc_scenario, []))
        sm = service.replay(iter(svc_scenario.requests()), pump_every=1)
        assert decision_fingerprint(sm) == decision_fingerprint(bm)
        assert _decision_summary(sm) == _decision_summary(bm)

    def test_out_of_order_delivery_matches_batch(self, svc_scenario, batch):
        # Shuffled delivery with deferred pumping: the heap restores
        # release order, so decisions match the sorted batch exactly.
        _bsim, bm = batch
        shuffled = list(svc_scenario.requests())
        random.Random(11).shuffle(shuffled)
        service = DispatchService(_make_sim(svc_scenario, []))
        sm = service.replay(iter(shuffled), pump_every=None)
        assert decision_fingerprint(sm) == decision_fingerprint(bm)

    def test_chunked_pumping_matches_batch(self, svc_scenario, batch):
        _bsim, bm = batch
        service = DispatchService(_make_sim(svc_scenario, []))
        sm = service.replay(iter(svc_scenario.requests()), pump_every=17)
        assert decision_fingerprint(sm) == decision_fingerprint(bm)

    def test_double_run_determinism_through_facade(self, svc_scenario):
        def run_once():
            service = DispatchService(_make_sim(svc_scenario, []))
            m = service.replay(iter(svc_scenario.requests()), pump_every=1)
            trips = {
                rid: (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
                for rid, t in service.sim.log.trips.items()
            }
            return trips, decision_fingerprint(m), _decision_summary(m)

        assert run_once() == run_once()

    def test_decision_stream_covers_online_requests(self, svc_scenario):
        service = DispatchService(_make_sim(svc_scenario, []))
        m = service.replay(iter(svc_scenario.requests()), pump_every=1)
        online = [d for d in service.decisions if d.kind == "online"]
        # One first-look decision per online request, no more, no less.
        assert len(online) == m.num_online
        matched = sum(1 for d in online if d.status == "matched")
        unmatched = sum(1 for d in online if d.status == "unmatched")
        assert matched + unmatched == m.num_online
        assert unmatched == m.unserved_online

    @staticmethod
    def _streams_agree(make_sim, workload):
        """Batch ``on_decision`` tuples == streamed records, one by one."""
        seen = []
        batch_sim = make_sim(workload)
        batch_sim.on_decision = lambda request, now, matched, taxi_id, elapsed_s, kind: (
            seen.append((request.request_id, matched, taxi_id, kind))
        )
        bm = batch_sim.run()
        service = DispatchService(make_sim([]))
        # Delivered in release order and pumped up to each release: an
        # unbounded pump would fire window/rebalance ticks ahead of the
        # stream and turn the next submission into a late arrival.
        for request in sorted(workload, key=lambda r: (r.release_time, r.request_id)):
            assert service.submit(request).accepted
            service.pump(until=request.release_time)
        sm = service.finish()
        streamed = [
            (d.request_id, d.status == "matched", d.taxi_id, d.kind) for d in service.decisions
        ]
        assert streamed == seen
        assert decision_fingerprint(sm) == decision_fingerprint(bm)
        # Exactly one first-look record per online request, however many
        # recovery dispatches or window roll-overs it went through.
        first_looks = sorted(rid for rid, _matched, _taxi, kind in seen if kind == "online")
        assert first_looks == sorted(r.request_id for r in workload if not r.offline)
        return bm, seen

    def test_all_decision_kinds_match_batch_under_churn(self):
        # Non-peak: street hails, encounter hand-offs, breakdown
        # recovery and rebalancing all reach the decision stream.
        scenario = get_scenario(NONPEAK_SERVICE_SPEC)
        workload = scenario.requests()

        def make_sim(requests):
            fleet = scenario.make_fleet(15, seed=1)
            return Simulator(
                scenario.make_scheme("mt-share"), fleet, requests, payment=PaymentModel(),
                faults=scenario.fault_plan("seed=7,breakdown_rate=0.4,cancel_rate=0.2",
                                           fleet, workload),
                rebalance=scenario.rebalance_policy("on"),
            )

        bm, seen = self._streams_agree(make_sim, workload)
        outcomes = {(kind, matched) for _rid, matched, _taxi, kind in seen}
        assert {("online", True), ("online", False), ("redispatch", True),
                ("redispatch", False), ("offline", True)} <= outcomes
        # A failed street hail emits no record.
        assert ("offline", False) not in outcomes
        assert bm.breakdowns > 0 and bm.reassigned > 0
        assert bm.counters.get("rebalance.moves", 0) > 0

    def test_window_decisions_match_batch(self, svc_scenario):
        # A 5-taxi fleet against W = 30 s: most requests roll over and
        # expire.  A terminal "unmatched" needs a flush exactly at the
        # pick-up deadline, so a few requests are pinned to the W-grid.
        config = svc_scenario.default_config(dispatch_window_s=30.0)
        pinned = []
        far = svc_scenario.network.num_vertices - 1
        for k, (origin, destination) in enumerate([(0, far), (far, 0), (7, far - 7), (far - 7, 7)]):
            tick = 300.0 * (k + 1)
            cost = svc_scenario.engine.cost(origin, destination)
            pinned.append(RideRequest(
                request_id=9000 + k, release_time=tick - 12.0, origin=origin,
                destination=destination, deadline=tick + cost, direct_cost=cost,
            ))
            assert pinned[-1].pickup_deadline == tick
        workload = svc_scenario.requests() + pinned

        def make_sim(requests):
            return Simulator(
                svc_scenario.make_scheme("window-lap", config=config),
                svc_scenario.make_fleet(5, seed=1), requests, payment=PaymentModel(),
            )

        bm, _ = self._streams_agree(make_sim, workload)
        for outcome in ("matched", "expired", "rolled", "unmatched"):
            assert bm.counters.get(f"window.{outcome}", 0) > 0, outcome


class TestAdmission:
    def _service(self, svc_scenario, **policy_kw):
        sim = _make_sim(svc_scenario, [], scheme="no-sharing")
        return DispatchService(
            sim, ServiceConfig(admission=AdmissionPolicy(**policy_kw))
        )

    def test_duplicate_delivery_rejected(self, svc_scenario):
        service = self._service(svc_scenario)
        r = svc_scenario.requests()[0]
        assert service.submit(r).accepted
        outcome = service.submit(r)
        assert not outcome.accepted
        assert outcome.reason == REJECT_DUPLICATE
        m = service.finish()
        assert m.rejected == 1
        assert m.num_requests == 2
        m.check_balance()

    def test_late_arrival_rejected(self, svc_scenario):
        service = self._service(svc_scenario)
        service.submit(make_request(request_id=1, release_time=600.0))
        service.pump()  # clock commits to 600
        outcome = service.submit(make_request(request_id=2, release_time=100.0))
        assert not outcome.accepted
        assert outcome.reason == REJECT_LATE
        m = service.finish()
        assert m.rejected_online == 1
        m.check_balance()

    def test_late_arrival_clamped(self, svc_scenario):
        service = self._service(svc_scenario, late_policy="clamp")
        service.submit(make_request(request_id=1, release_time=600.0))
        service.pump()
        late = make_request(request_id=2, release_time=100.0, rho=20.0)
        outcome = service.submit(late)
        assert outcome.accepted and outcome.clamped
        assert outcome.request.release_time == 600.0
        assert outcome.request.deadline == late.deadline  # deadline kept
        m = service.finish()
        assert m.rejected == 0
        m.check_balance()

    def test_clamp_with_infeasible_deadline_rejects(self, svc_scenario):
        service = self._service(svc_scenario, late_policy="clamp")
        service.submit(make_request(request_id=1, release_time=600.0))
        service.pump()
        # Clamping to t=600 leaves less than direct_cost before the
        # deadline: the trip can no longer happen.
        doomed = make_request(request_id=2, release_time=100.0, rho=1.05)
        outcome = service.submit(doomed)
        assert not outcome.accepted
        assert outcome.reason == REJECT_LATE
        service.finish().check_balance()

    def test_backpressure_bounds_in_flight(self, svc_scenario):
        service = self._service(svc_scenario, max_in_flight=2)
        requests = svc_scenario.requests()[:5]
        outcomes = [service.submit(r) for r in requests]  # never pumped
        accepted = [o for o in outcomes if o.accepted]
        rejected = [o for o in outcomes if not o.accepted]
        assert len(accepted) == 2
        assert len(rejected) == 3
        assert all(o.reason == REJECT_BACKPRESSURE for o in rejected)
        assert service.pending == 2
        m = service.finish()
        assert m.rejected == 3
        assert m.num_requests == 5
        assert service.rejections == {REJECT_BACKPRESSURE: 3}
        m.check_balance()  # rejected requests fold into the identity

    def test_backpressure_recovers_after_pump(self, svc_scenario):
        service = self._service(svc_scenario, max_in_flight=2)
        requests = svc_scenario.requests()[:3]
        service.submit(requests[0])
        service.submit(requests[1])
        assert not service.submit(requests[2]).accepted
        service.pump()  # drain the queue
        retry = service.submit(requests[2])
        assert retry.accepted  # rejection does not poison the id
        service.finish().check_balance()

    def test_rejections_surface_in_contract(self, svc_scenario):
        # The mid-run accounting contract counts rejected buckets, so a
        # rejection right after submission does not trip it.
        from repro.analysis import contracts

        service = self._service(svc_scenario, max_in_flight=1)
        requests = svc_scenario.requests()[:3]
        for r in requests:
            service.submit(r)
        contracts.check_request_accounting(service.sim.metrics)
        service.finish().check_balance()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(late_policy="drop")
        with pytest.raises(ValueError):
            AdmissionPolicy(max_in_flight=0)


class TestDecisionStream:
    def test_records_have_expected_shape(self, svc_scenario):
        service = DispatchService(_make_sim(svc_scenario, [], scheme="no-sharing"))
        service.replay(iter(svc_scenario.requests()[:20]), pump_every=1)
        assert service.decisions
        for d in service.decisions:
            assert d.status in ("matched", "unmatched", "rejected")
            assert d.kind in ("online", "redispatch", "offline") or d.status == "rejected"
            if d.status == "matched":
                assert d.taxi_id is not None

    def test_sink_bypasses_retention(self, svc_scenario):
        seen = []
        service = DispatchService(
            _make_sim(svc_scenario, [], scheme="no-sharing"),
            on_decision=seen.append,
        )
        service.replay(iter(svc_scenario.requests()[:10]), pump_every=1)
        assert seen
        assert service.decisions == []


class TestCodec:
    def test_request_round_trip(self):
        r = make_request(request_id=42, release_time=1.5, offline=True,
                         num_passengers=2)
        assert request_from_dict(request_to_dict(r)) == r

    def test_unknown_keys_ignored(self):
        payload = request_to_dict(make_request(request_id=1))
        payload["annotation"] = "extra"
        assert request_from_dict(payload).request_id == 1

    def test_jsonl_round_trip(self, svc_scenario, tmp_path):
        requests = svc_scenario.requests()[:25]
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as f:
            for r in requests:
                f.write(json.dumps(request_to_dict(r)) + "\n")
        assert list(jsonl_requests(str(path))) == requests

    def test_jsonl_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"request_id": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            list(jsonl_requests(str(path)))


class TestSyntheticSource:
    def test_deterministic_and_sorted(self, small_engine):
        a = list(synthetic_requests(small_engine, 50, seed=9))
        b = list(synthetic_requests(small_engine, 50, seed=9))
        assert a == b
        assert len(a) == 50
        times = [r.release_time for r in a]
        assert times == sorted(times)
        assert all(isinstance(r, RideRequest) and not r.offline for r in a)

    def test_streams_through_service(self, svc_scenario):
        scheme = svc_scenario.make_scheme("no-sharing")
        service = DispatchService(_make_sim(svc_scenario, [], scheme="no-sharing"))
        m = service.replay(
            synthetic_requests(scheme.engine, 100, rate_per_s=0.5, seed=4),
            pump_every=1,
        )
        assert m.num_requests == 100
        m.check_balance()


class TestCompactMode:
    def test_sample_lists_bounded_but_aggregates_exact(self, svc_scenario):
        full = _make_sim(svc_scenario, svc_scenario.requests(), scheme="no-sharing")
        mf = full.run()
        compact = _make_sim(
            svc_scenario, svc_scenario.requests(), scheme="no-sharing", compact=True
        )
        compact.metrics.sample_cap = 5  # force truncation on a small run
        mc = compact.run()
        assert len(mc.waiting_times_s) == 5
        assert mc.waiting_stat.count == len(mf.waiting_times_s)
        assert mc.avg_waiting_min == pytest.approx(mf.avg_waiting_min)
        assert mc.avg_detour_min == pytest.approx(mf.avg_detour_min)
        assert mc.avg_candidates == pytest.approx(mf.avg_candidates)
        # Scalar decisions are untouched by compaction.
        assert mc.served == mf.served
        assert mc.completed == mf.completed

    def test_completed_trips_evicted(self, svc_scenario):
        compact = _make_sim(
            svc_scenario, svc_scenario.requests(), scheme="no-sharing", compact=True
        )
        mc = compact.run()
        assert mc.completed > 0
        assert not compact.log.completed()  # evicted as they finished
        assert compact.metrics.sample_cap == COMPACT_SAMPLE_CAP
        mc.check_balance()


class TestHTTPEndpoint:
    @pytest.fixture()
    def service(self, svc_scenario):
        return DispatchService(_make_sim(svc_scenario, [], scheme="no-sharing"))

    @pytest.fixture()
    def server(self, service):
        server, state = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", state
        server.shutdown()
        server.server_close()

    @staticmethod
    def _post(base, path, payload):
        req = urllib.request.Request(
            base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    @staticmethod
    def _get(base, path):
        with urllib.request.urlopen(base + path) as resp:
            return resp.status, json.loads(resp.read())

    def test_end_to_end(self, svc_scenario, server):
        base, _state = server
        requests = svc_scenario.requests()[:6]
        statuses = []
        for r in requests:
            code, body = self._post(base, "/requests", request_to_dict(r))
            assert code == 200 and body["accepted"]
            statuses.extend(d["status"] for d in body["decisions"])
        assert statuses  # eager pumping returns decisions inline

        code, body = self._post(base, "/requests", request_to_dict(requests[0]))
        assert code == 409 and body["reason"] == REJECT_DUPLICATE

        code, body = self._get(base, "/healthz")
        assert code == 200 and body["ok"] and body["submitted"] == 7

        code, body = self._get(base, "/metrics")
        assert code == 200 and body["rejected"] == 1

        code, body = self._post(base, "/finish", {})
        assert code == 200
        summary = body["summary"]
        assert summary["served"] + summary["unserved"] + summary["rejected"] >= 7

        # Submissions after finish are refused cleanly.
        code, body = self._post(base, "/requests", request_to_dict(requests[1]))
        assert code == 409

    @pytest.mark.parametrize("cell", list(HOSTILE))
    def test_hostile_request_is_client_error(self, svc_scenario, service, server, cell):
        """Refused with a 400 where it enters, before the lock: the
        service admits nothing, and its accounting still closes."""
        base, _state = server
        good, bad = svc_scenario.requests()[:2]
        assert self._post(base, "/requests", request_to_dict(good))[0] == 200
        payload = hostile_payload(bad, cell, svc_scenario.network.num_vertices)
        raw = json.dumps(payload).encode()
        code, body = self._raw_post(base, raw, len(raw))
        assert code == 400 and "error" in body
        code, body = self._post(base, "/finish", {})
        assert code == 200 and body["summary"]["unserved"] + body["summary"]["served"] == 1
        assert service.submitted == 1
        service.sim.metrics.check_balance()

    def test_malformed_request_is_client_error(self, server):
        base, _state = server
        code, body = self._post(base, "/requests", {"request_id": 1})
        assert code == 400 and "error" in body

    @staticmethod
    def _raw_post(base, body, content_length):
        """POST ``body`` with an explicit Content-Length; 5 s client timeout."""
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.request(
                "POST", "/requests", body=body, headers={"Content-Length": str(content_length)}
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def _assert_still_serving(self, base):
        code, body = self._get(base, "/healthz")
        assert code == 200 and body["ok"] and body["submitted"] == 0

    def test_negative_content_length_is_client_error(self, server):
        # rfile.read(-1) would block the handler until the client hangs up.
        base, _state = server
        code, body = self._raw_post(base, b"", -1)
        assert code == 400 and "error" in body
        self._assert_still_serving(base)

    def test_oversized_body_is_refused_unread(self, server):
        base, _state = server
        code, body = self._raw_post(base, b"", MAX_BODY_BYTES + 1)
        assert code == 413 and "error" in body
        self._assert_still_serving(base)

    def test_non_object_body_is_client_error(self, server):
        # request_from_dict indexes the payload by key: a list is a TypeError.
        base, _state = server
        code, body = self._raw_post(base, b"[]", 2)
        assert code == 400 and "error" in body
        self._assert_still_serving(base)

    def test_null_field_is_client_error(self, svc_scenario, server):
        base, _state = server
        payload = request_to_dict(svc_scenario.requests()[0]) | {"request_id": None}
        raw = json.dumps(payload).encode()
        code, body = self._raw_post(base, raw, len(raw))
        assert code == 400 and "error" in body
        self._assert_still_serving(base)

    def test_unknown_path_404(self, server):
        base, _state = server
        code, _ = self._get(base, "/healthz")
        assert code == 200
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(base + "/nope")

    def test_concurrent_submissions_no_lost_or_double_counted(
        self, svc_scenario, service, server, monkeypatch
    ):
        """N threads x M submits with duplicates and out-of-order releases.

        Whatever the interleaving, ``ServiceState``'s single lock must keep
        the books exact: every POST gets a response, ``submitted``
        equals the number of POSTs, each unique request is admitted at
        most once (duplicates are refused, never double-counted), and
        after ``/finish`` the request-accounting identity closes under
        ``REPRO_CONTRACTS=1``.
        """
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        base, state = server

        requests = svc_scenario.requests()[:24]
        posts = requests * 2  # every request submitted twice -> duplicates
        n_threads = 8
        buckets: list[list] = [[] for _ in range(n_threads)]
        for i, r in enumerate(posts):
            buckets[i % n_threads].append(r)
        rng = random.Random(1234)
        for bucket in buckets:
            rng.shuffle(bucket)  # out-of-order releases within each thread

        results: list[list[tuple[int, int, dict]]] = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def worker(idx: int) -> None:
            barrier.wait()
            for r in buckets[idx]:
                code, body = self._post(base, "/requests", request_to_dict(r))
                results[idx].append((r.request_id, code, body))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

        flat = [item for bucket in results for item in bucket]
        assert len(flat) == len(posts)  # no lost requests
        accepted_ids = [rid for rid, _code, body in flat if body["accepted"]]
        rejected = [
            (rid, body["reason"]) for rid, _code, body in flat if not body["accepted"]
        ]
        # Conservation: every POST is exactly one of accepted / rejected.
        assert len(accepted_ids) + len(rejected) == len(posts)
        # No double-counting: a request id is admitted at most once.
        assert len(accepted_ids) == len(set(accepted_ids))
        # The concurrent-duplicate path actually fired.
        reasons = {reason for _rid, reason in rejected}
        assert reasons <= {REJECT_DUPLICATE, REJECT_LATE, REJECT_BACKPRESSURE}
        assert REJECT_DUPLICATE in reasons

        # Every POST has been answered, so no handler thread is inside
        # the service: the counters are final and safe to read directly.
        assert state.health()[1]["submitted"] == len(posts)
        assert service.submitted == len(posts)
        assert service.admitted == len(accepted_ids)
        assert sum(service.rejections.values()) == len(rejected)

        code, body = self._post(base, "/finish", {})
        assert code == 200
        metrics = service.sim.metrics
        # Every submission landed in exactly one terminal bucket.
        assert metrics.num_requests == len(posts)
        metrics.check_balance()
