"""Tests for the what-if service: schema, handlers, batching, server."""

import dataclasses
import json
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import Scenario
from repro.service import (
    AddConduitRequest,
    AuditRequest,
    CutRequest,
    ExchangeRequest,
    ExperimentRequest,
    LatencyRequest,
    QueryError,
    RiskSliceRequest,
    ScenarioRegistry,
    ServiceApp,
    encode_json,
    handle_query,
    parse_request,
    solve_latency_batch,
)
from repro.service import handlers
from repro.service.handlers import LatencyBatcher
from repro.service.registry import READY, WARMING, ScenarioEntry
from repro.service.render import render_response
from repro.service.schema import REQUEST_TYPES
from tests.oracles.service import _nx_latency


#: A well-typed value per request field annotation (see
#: ``schema._FIELD_TYPES``).
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FIELD_VALUES = {
    "str": st.text(max_size=12),
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": _FINITE | st.integers(-(10**6), 10**6),
    "Optional[str]": st.none() | st.text(max_size=12),
    "Optional[float]": st.none() | _FINITE,
}


class TestSchemaRoundTrip:
    @pytest.mark.parametrize("request_obj", [
        CutRequest(city_a="Denver, CO", city_b="Chicago, IL"),
        CutRequest(city_a="A", city_b="B", max_traces=50),
        AddConduitRequest(city_a="A", city_b="B"),
        AddConduitRequest(city_a="A", city_b="B", length_km=1200.5),
        AuditRequest(isp="Sprint"),
        LatencyRequest(city_a="A", city_b="B"),
        RiskSliceRequest(),
        RiskSliceRequest(isp="Sprint", top=3),
        ExchangeRequest(num_conduits=2),
        ExperimentRequest(experiment_id="table1"),
    ])
    def test_encode_parse_round_trips(self, request_obj):
        payload = json.loads(json.dumps(request_obj.to_json()))
        assert payload["v"] == 1
        assert parse_request(payload) == request_obj

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(REQUEST_TYPES)))
    def test_every_kind_round_trips_through_json(self, data, kind):
        # Any well-typed request of any kind survives encoding, the JSON
        # text and parsing unchanged.
        request_type = REQUEST_TYPES[kind]
        request_obj = data.draw(st.builds(request_type, **{
            field.name: _FIELD_VALUES[field.type]
            for field in dataclasses.fields(request_type)
        }))
        payload = json.loads(json.dumps(request_obj.to_json()))
        assert parse_request(payload) == request_obj

    def test_scenario_key_is_reserved_not_a_field(self):
        request = parse_request({
            "v": 1, "kind": "audit", "isp": "Sprint", "scenario": "alt",
        })
        assert request == AuditRequest(isp="Sprint")

    def test_defaults_fill_in(self):
        request = parse_request({"kind": "cut", "city_a": "A", "city_b": "B"})
        assert request.max_traces == 800


class TestSchemaValidation:
    def err(self, payload):
        with pytest.raises(QueryError) as excinfo:
            parse_request(payload)
        return excinfo.value

    def test_non_object(self):
        error = self.err([1, 2])
        assert error.code == "bad_request"
        assert error.status == 400

    def test_wrong_version(self):
        error = self.err({"v": 2, "kind": "audit", "isp": "X"})
        assert error.code == "unsupported_version"
        assert error.field == "v"

    @pytest.mark.parametrize(
        "version", [True, 1.0, "1", None], ids=["true", "float", "str", "null"]
    )
    def test_version_is_the_integer_one(self, version):
        # ``true`` and ``1.0`` compare equal to 1, yet are not it.
        error = self.err({"v": version, "kind": "risk"})
        assert error.code == "unsupported_version"
        assert error.field == "v"

    def test_missing_kind(self):
        assert self.err({"v": 1}).code == "bad_request"

    def test_unknown_kind(self):
        error = self.err({"v": 1, "kind": "teleport"})
        assert error.code == "unknown_kind"
        assert "teleport" in error.message

    def test_missing_required_field(self):
        error = self.err({"v": 1, "kind": "cut", "city_a": "A"})
        assert error.code == "missing_field"
        assert error.field == "city_b"

    def test_unknown_field_rejected(self):
        error = self.err({
            "v": 1, "kind": "audit", "isp": "X", "ispp": "typo",
        })
        assert error.code == "invalid_field"
        assert error.field == "ispp"

    def test_wrong_type(self):
        error = self.err({"v": 1, "kind": "audit", "isp": 7})
        assert error.code == "invalid_field"
        assert "str" in error.message

    def test_bool_is_not_an_int(self):
        error = self.err({
            "v": 1, "kind": "risk", "top": True,
        })
        assert error.code == "invalid_field"
        assert "bool" in error.message

    @pytest.mark.parametrize(
        "length_km", [float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["inf", "-inf", "nan", "huge_int"],
    )
    def test_float_field_must_be_finite(self, length_km):
        error = self.err({
            "v": 1, "kind": "add", "city_a": "A", "city_b": "B",
            "length_km": length_km,
        })
        assert error.code == "invalid_field"
        assert error.field == "length_km"

    def test_error_payload_golden(self):
        error = self.err({"v": 1, "kind": "cut", "city_a": "A"})
        assert error.to_json() == {
            "v": 1,
            "kind": "error",
            "error": {
                "code": "missing_field",
                "message": "kind 'cut' requires field 'city_b'",
                "field": "city_b",
            },
        }


class TestHandlers:
    def test_scenario_query_accepts_mapping_and_typed(self, scenario):
        typed = scenario.query(AuditRequest(isp="Sprint"))
        mapped = scenario.query({"v": 1, "kind": "audit", "isp": "Sprint"})
        assert typed == mapped
        assert typed.kind == "audit.result"
        assert typed.isp == "Sprint"
        assert 1 <= typed.rank <= typed.ranked_isps

    def test_latency_answer_shape(self, scenario):
        response = scenario.query(
            LatencyRequest(city_a="Denver, CO", city_b="Chicago, IL")
        )
        assert response.reachable
        assert response.path[0] == "Denver, CO"
        assert response.path[-1] == "Chicago, IL"
        assert len(response.conduit_ids) == response.hops
        assert response.delay_ms > 0
        text = render_response(response)
        assert "Denver, CO <-> Chicago, IL" in text

    def test_latency_unknown_city_is_structured(self, scenario):
        with pytest.raises(QueryError) as excinfo:
            scenario.query(
                LatencyRequest(city_a="Denver, CO", city_b="Nowhere, XX")
            )
        assert excinfo.value.code == "unknown_city"
        assert excinfo.value.status == 404
        assert excinfo.value.field == "city_b"

    def test_add_conduit_improves_or_not(self, scenario):
        response = scenario.query(
            AddConduitRequest(city_a="Denver, CO", city_b="Chicago, IL")
        )
        assert response.length_km > 0
        assert response.baseline_delay_ms is not None
        # A direct Denver-Chicago conduit beats the multi-hop baseline.
        assert response.improves_map
        assert response.cities_improved >= 1
        assert response.delay_ms < response.baseline_delay_ms

    def test_risk_slice_whole_matrix(self, scenario):
        response = scenario.query(RiskSliceRequest(top=4))
        assert response.isp is None
        assert len(response.top_conduits) == 4
        tenants = [row.tenants for row in response.top_conduits]
        assert tenants == sorted(tenants, reverse=True)
        assert dict(response.sharing_fractions)[2] > 0.75

    def test_experiment_query(self, scenario):
        response = scenario.query(
            ExperimentRequest(experiment_id="table1")
        )
        assert response.experiment_id == "table1"
        assert response.data.total_links == 1258
        assert render_response(response) == response.text

    def test_unknown_experiment(self, scenario):
        with pytest.raises(QueryError) as excinfo:
            scenario.query(ExperimentRequest(experiment_id="fig99"))
        assert excinfo.value.status == 404


class TestMicroBatching:
    PAIRS = [
        ("Denver, CO", "Chicago, IL"),
        ("Miami, FL", "Seattle, WA"),
        ("Boston, MA", "Los Angeles, CA"),
        ("Chicago, IL", "Denver, CO"),
        ("Houston, TX", "Atlanta, GA"),
        ("Denver, CO", "Nowhere, XX"),  # per-slot failure
    ]

    def test_batch_equals_serial(self, scenario):
        requests = [
            LatencyRequest(city_a=a, city_b=b) for a, b in self.PAIRS
        ]
        batched = solve_latency_batch(scenario, requests)
        serial = [solve_latency_batch(scenario, [r])[0] for r in requests]
        for one, many in zip(serial, batched):
            if isinstance(one, QueryError):
                assert isinstance(many, QueryError)
                assert many.code == one.code
            else:
                assert many == one

    def test_batch_matches_networkx_reference(self, scenario):
        rng = random.Random(5)
        cities = sorted(scenario.constructed_map.nodes)
        pairs = [p for p in self.PAIRS if "XX" not in p[1]] + [
            tuple(rng.sample(cities, 2)) for _ in range(40)
        ]
        requests = [LatencyRequest(city_a=a, city_b=b) for a, b in pairs]
        batched = solve_latency_batch(scenario, requests)
        for request, answer in zip(requests, batched):
            assert answer == _nx_latency(scenario, request), request

    def _hold_first_solve(self, monkeypatch, fail_second=False):
        """Patch the batch solver so the first solve blocks until
        ``release`` is set (``entered`` fires once it is inside), and
        optionally the second solve raises.  Returns the events and the
        list of solved batch sizes."""
        entered, release = threading.Event(), threading.Event()
        sizes = []
        solve = handlers.solve_latency_batch

        def held_solve(scenario, requests):
            sizes.append(len(requests))
            if len(sizes) == 1:
                entered.set()
                assert release.wait(60)
            elif len(sizes) == 2 and fail_second:
                raise RuntimeError("solver failed")
            return solve(scenario, requests)

        monkeypatch.setattr(handlers, "solve_latency_batch", held_solve)
        return entered, release, sizes

    @staticmethod
    def _submit_all(batcher, requests, results):
        """Start one submitting thread per request; each stores its
        answer (or the exception it raised) in *results*."""

        def worker(request):
            try:
                results[request] = batcher.submit(request)
            except BaseException as error:
                results[request] = error

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in requests
        ]
        for t in threads:
            t.start()
        return threads

    @staticmethod
    def _wait_for_open_batch(batcher, size):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with batcher._lock:
                batch = batcher._open
                if batch is not None and len(batch.requests) == size:
                    return
            time.sleep(0.001)
        raise AssertionError(f"no open batch of {size} requests")

    def test_concurrent_submits_coalesce(self, scenario, monkeypatch):
        requests = [
            LatencyRequest(city_a=a, city_b=b)
            for a, b in self.PAIRS if "XX" not in b
        ]
        serial = {r: handle_query(scenario, r) for r in requests}
        entered, release, sizes = self._hold_first_solve(monkeypatch)
        batcher = LatencyBatcher(scenario)
        results = {}
        # The first request finds the solver free and is solved alone;
        # the rest arrive while that solve runs and join one batch.
        threads = self._submit_all(batcher, requests[:1], results)
        assert entered.wait(60)
        rest = requests[1:]
        threads += self._submit_all(batcher, rest, results)
        self._wait_for_open_batch(batcher, len(rest))
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert sizes == [1, len(rest)]
        assert batcher.batches == 2
        assert batcher.requests == len(rest) + 1
        # And batching never changes an answer.
        assert results == serial

    def test_lone_submit_never_sleeps(self, scenario, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        request = LatencyRequest(city_a="Denver, CO", city_b="Chicago, IL")
        batcher = LatencyBatcher(scenario)
        assert batcher.submit(request) == handle_query(scenario, request)
        assert (batcher.batches, batcher.requests) == (1, 1)

    def test_failed_solve_fails_its_whole_batch_only(
        self, scenario, monkeypatch
    ):
        requests = [
            LatencyRequest(city_a=a, city_b=b)
            for a, b in self.PAIRS if "XX" not in b
        ]
        serial = {r: handle_query(scenario, r) for r in requests}
        entered, release, sizes = self._hold_first_solve(
            monkeypatch, fail_second=True
        )
        batcher = LatencyBatcher(scenario)
        results = {}
        threads = self._submit_all(batcher, requests[:1], results)
        assert entered.wait(60)
        rest = requests[1:]
        threads += self._submit_all(batcher, rest, results)
        self._wait_for_open_batch(batcher, len(rest))
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert sizes == [1, len(rest)]
        assert results[requests[0]] == serial[requests[0]]
        # Every waiter of the failed batch gets the solver's error ...
        for request in rest:
            assert isinstance(results[request], RuntimeError)
            assert str(results[request]) == "solver failed"
        # ... and the batcher is not left wedged: the next batch solves.
        assert batcher.submit(rest[0]) == serial[rest[0]]
        assert sizes == [1, len(rest), 1]
        assert batcher.batches == 3

    def test_submit_stress_answers_every_request(self, scenario):
        """Eight threads (more than cores) submit back to back with a
        tiny switch interval: no request is lost, counted twice or
        answered with another's slot."""
        rng = random.Random(11)
        cities = sorted(scenario.constructed_map.nodes)
        pools = [
            [
                LatencyRequest(city_a=a, city_b=b)
                for a, b in (rng.sample(cities, 2) for _ in range(20))
            ]
            for _ in range(8)
        ]
        serial = {
            r: handle_query(scenario, r) for pool in pools for r in pool
        }
        batcher = LatencyBatcher(scenario)
        answers = [[] for _ in pools]

        def worker(pool, out):
            for request in pool:
                out.append(batcher.submit(request))

        threads = [
            threading.Thread(target=worker, args=(pool, out))
            for pool, out in zip(pools, answers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for pool, out in zip(pools, answers):
            assert out == [serial[r] for r in pool]
        assert batcher.requests == 8 * 20
        assert 1 <= batcher.batches <= 8 * 20

    def test_batched_error_slot_raises_only_for_its_owner(self, scenario):
        batcher = LatencyBatcher(scenario)
        good = batcher.submit(
            LatencyRequest(city_a="Denver, CO", city_b="Chicago, IL")
        )
        assert good.reachable
        with pytest.raises(QueryError):
            batcher.submit(
                LatencyRequest(city_a="Denver, CO", city_b="Nowhere, XX")
            )


class TestRegistryAndApp:
    def test_two_named_scenarios_side_by_side(self, scenario):
        registry = ScenarioRegistry()
        registry.add("default", scenario=scenario)
        registry.add(
            "alt", scenario=Scenario(seed=7, campaign_traces=50)
        )
        app = ServiceApp(registry)
        status, default_answer = app.handle(
            "POST", "/v1/query", json.dumps({
                "v": 1, "kind": "latency",
                "city_a": "Denver, CO", "city_b": "Chicago, IL",
            }).encode(),
        )
        assert status == 200
        status, alt_answer = app.handle(
            "POST", "/v1/query", json.dumps({
                "v": 1, "kind": "risk", "scenario": "alt",
            }).encode(),
        )
        assert status == 200
        assert alt_answer["kind"] == "risk.result"
        # The alt world is a different synthesis: different conduits.
        default_risk = app.handle(
            "POST", "/v1/query",
            json.dumps({"v": 1, "kind": "risk"}).encode(),
        )[1]
        assert alt_answer["num_conduits"] != default_risk["num_conduits"]
        assert registry.get("default").queries == 2
        assert registry.get("alt").queries == 1

    def test_unknown_scenario_404(self, scenario):
        registry = ScenarioRegistry()
        registry.add("default", scenario=scenario)
        app = ServiceApp(registry)
        status, payload = app.handle(
            "POST", "/v1/query", json.dumps({
                "v": 1, "kind": "risk", "scenario": "mars",
            }).encode(),
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown_scenario"

    def test_healthz_during_warm_up(self, monkeypatch):
        tiny = Scenario(seed=11, campaign_traces=50)
        release = threading.Event()
        started = threading.Event()

        def blocking_materialize(stages, **kwargs):
            started.set()
            assert release.wait(timeout=60)

        monkeypatch.setattr(
            tiny.graph, "materialize_many", blocking_materialize
        )
        registry = ScenarioRegistry()
        registry.add("default", scenario=tiny)
        app = ServiceApp(registry)
        status, payload = app.handle("GET", "/healthz", None)
        assert status == 503 and payload["status"] == "warming"
        threads = registry.warm_all_async()
        assert started.wait(timeout=60)
        status, payload = app.handle("GET", "/healthz", None)
        assert status == 503
        assert payload["scenarios"]["default"] == WARMING
        release.set()
        for thread in threads:
            thread.join(timeout=60)
        status, payload = app.handle("GET", "/healthz", None)
        assert status == 200 and payload["status"] == "ok"
        assert registry.get("default").state == READY

    def test_warm_failure_reported(self, monkeypatch):
        tiny = Scenario(seed=12, campaign_traces=50)

        def broken_materialize(stages, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(
            tiny.graph, "materialize_many", broken_materialize
        )
        registry = ScenarioRegistry()
        entry = registry.add("default", scenario=tiny)
        entry.warm()
        assert entry.state == "failed"
        assert "disk on fire" in entry.error
        app = ServiceApp(registry)
        status, payload = app.handle("GET", "/v1/manifest", None)
        assert status == 200
        assert "disk on fire" in payload["scenarios"]["default"]["error"]

    def test_batch_endpoint_mixes_kinds_and_errors(self, scenario):
        registry = ScenarioRegistry()
        registry.add("default", scenario=scenario)
        app = ServiceApp(registry)
        status, payload = app.handle("POST", "/v1/batch", json.dumps({
            "requests": [
                {"v": 1, "kind": "latency",
                 "city_a": "Denver, CO", "city_b": "Chicago, IL"},
                {"v": 1, "kind": "latency",
                 "city_a": "Miami, FL", "city_b": "Seattle, WA"},
                {"v": 1, "kind": "audit", "isp": "Sprint"},
                {"v": 1, "kind": "warp"},
            ],
        }).encode())
        assert status == 200
        kinds = [r["kind"] for r in payload["results"]]
        assert kinds == [
            "latency.result", "latency.result", "audit.result", "error",
        ]
        # The two latency slots rode one explicit batch.
        assert registry.get("default").batcher.batches == 1
        assert registry.get("default").batcher.requests == 2

    def test_http_errors_are_structured(self, scenario):
        registry = ScenarioRegistry()
        registry.add("default", scenario=scenario)
        app = ServiceApp(registry)
        status, payload = app.handle("GET", "/nope", None)
        assert status == 404 and payload["error"]["code"] == "not_found"
        status, payload = app.handle("PUT", "/v1/query", b"{}")
        assert status == 405
        status, payload = app.handle("POST", "/v1/query", b"not json")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert app.errors == 3

    def test_counters_exact_under_concurrent_handlers(
        self, scenario, monkeypatch
    ):
        """``requests``/``errors``/``queries`` are bumped from every
        handler thread; none of the increments may be lost.  The
        counters yield the GIL between the read and the write of each
        ``+=``, so an unlocked bump loses updates on every run."""
        monkeypatch.setattr(
            ScenarioEntry, "queries", _YieldingCounter("queries"),
            raising=False,
        )
        registry = ScenarioRegistry()
        registry.add("default", scenario=scenario)
        app = _YieldingApp(registry)
        threads, rounds = 8, 25
        good = json.dumps({"v": 1, "kind": "risk", "top": 1}).encode()
        barrier = threading.Barrier(threads)
        statuses = []

        def worker():
            barrier.wait()
            for _ in range(rounds):
                statuses.append(app.handle("POST", "/v1/query", good)[0])
                statuses.append(app.handle("POST", "/v1/query", b"{")[0])
                statuses.append(app.handle("GET", "/v1/scenarios", None)[0])

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        calls = threads * rounds
        assert sorted(set(statuses)) == [200, 400]
        assert statuses.count(400) == calls
        assert app.requests == 3 * calls
        assert app.errors == calls
        assert registry.get("default").queries == calls


class _YieldingCounter:
    """An int attribute whose read yields the GIL, widening the window
    between the load and the store of ``obj.attr += 1``."""

    def __init__(self, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__.get(self.name, 0)
        time.sleep(0)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


class _YieldingApp(ServiceApp):
    requests = _YieldingCounter("requests")
    errors = _YieldingCounter("errors")


@pytest.mark.parametrize("argv,request_payload", [
    (
        ["--json", "audit", "Sprint"],
        {"v": 1, "kind": "audit", "isp": "Sprint"},
    ),
    (
        ["--json", "latency", "Denver, CO", "Chicago, IL"],
        {"v": 1, "kind": "latency",
         "city_a": "Denver, CO", "city_b": "Chicago, IL"},
    ),
    (
        ["--json", "cut", "Provo, UT", "Salt Lake City, UT"],
        {"v": 1, "kind": "cut",
         "city_a": "Provo, UT", "city_b": "Salt Lake City, UT"},
    ),
])
def test_http_body_matches_cli_json_bytes(capsys, argv, request_payload):
    """The tentpole contract: one query layer, byte-identical frontends."""
    from repro.cli import main
    from repro.scenario import ScenarioConfig, us2015

    assert main(["--traces", "100", *argv]) == 0
    cli_stdout = capsys.readouterr().out
    # The CLI's us2015 is memoized per config, so the service sees the
    # very same scenario instance the CLI just answered from.
    shared = us2015(config=ScenarioConfig(seed=2015, campaign_traces=100))
    registry = ScenarioRegistry()
    registry.add("default", scenario=shared)
    app = ServiceApp(registry)
    status, payload = app.handle(
        "POST", "/v1/query", json.dumps(request_payload).encode()
    )
    assert status == 200
    http_body = encode_json(payload) + "\n"
    assert http_body == cli_stdout


def test_cli_latency_text(capsys):
    from repro.cli import main

    assert main(
        ["--traces", "100", "latency", "Denver, CO", "Chicago, IL"]
    ) == 0
    out = capsys.readouterr().out
    assert "Denver, CO <-> Chicago, IL" in out
    assert "via:" in out


def test_cli_latency_unknown_city(capsys):
    from repro.cli import main

    assert main(
        ["--traces", "100", "latency", "Denver, CO", "Nowhere, XX"]
    ) == 2
    assert "unknown city" in capsys.readouterr().err


def test_keep_alive_round_trips_skip_the_delayed_ack(scenario):
    """Back-to-back answers on one keep-alive connection arrive at
    handler speed.  With Nagle's algorithm on, each response body waits
    for the (delayed, ~40 ms) ACK of its header segment; the server sets
    TCP_NODELAY so it does not."""
    import http.client
    import statistics

    from repro.service.server import make_server

    registry = ScenarioRegistry()
    registry.add("default", scenario=scenario)
    registry.warm_all_async()
    assert registry.wait_ready(timeout=600)
    server = make_server(ServiceApp(registry), host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    pairs = [
        ("Denver, CO", "Chicago, IL"),
        ("Miami, FL", "Seattle, WA"),
        ("Boston, MA", "Dallas, TX"),
    ]
    payloads = [
        {"v": 1, "kind": "latency", "city_a": a, "city_b": b}
        for a, b in pairs
    ]
    expected = [
        (encode_json(scenario.query(parse_request(p)).to_json()) + "\n")
        .encode("utf-8")
        for p in payloads
    ]
    connection = http.client.HTTPConnection(host, port, timeout=60)
    round_trips = []
    try:
        for i in range(24):
            body = json.dumps(payloads[i % len(payloads)]).encode()
            started = time.perf_counter()
            connection.request(
                "POST", "/v1/query", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            answer = response.read()
            round_trips.append(time.perf_counter() - started)
            assert response.status == 200
            assert answer == expected[i % len(payloads)]
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert statistics.median(round_trips) < 0.020, round_trips


def test_every_query_kind_shares_one_compiled_substrate(monkeypatch):
    """Latency, add, cut, audit and exchange queries on a fresh scenario
    compile its constructed map exactly once, through one memo."""
    from repro.perf.substrate import ConduitSubstrate

    built = []
    original = ConduitSubstrate.__init__

    def counting_init(self, fiber_map):
        built.append(fiber_map)
        original(self, fiber_map)

    monkeypatch.setattr(ConduitSubstrate, "__init__", counting_init)
    scenario = Scenario(seed=2015, campaign_traces=3000)
    for request in (
        LatencyRequest(city_a="Denver, CO", city_b="Chicago, IL"),
        AddConduitRequest(city_a="Denver, CO", city_b="Chicago, IL"),
        CutRequest(city_a="Phoenix, AZ", city_b="Tucson, AZ", max_traces=50),
        AuditRequest(isp="Sprint"),
        ExchangeRequest(num_conduits=1),
    ):
        scenario.query(request)
    fiber_map = scenario.constructed_map
    assert sum(1 for m in built if m is fiber_map) == 1
