"""Malformed input never produces a 5xx.

A fuzz property over the service's two POST routes, driven in-process
through :meth:`ServiceApp.handle`: arbitrary JSON bodies, and valid
requests with one field swapped for an odd value, must come back as a
structured 4xx (or a 200), and the payload must still render; an odd
schema version ``v`` is always ``unsupported_version``.  In
``/v1/batch`` a malformed member must leave every other member's
answer equal to its single-query answer.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import ScenarioRegistry, ServiceApp, encode_json

FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: One valid request per query kind that is cheap to answer.  exchange
#: is left out: one valid plan costs seconds, and a default-filled
#: ``{"kind": "exchange"}`` is valid.
VALID = {
    "latency": {
        "v": 1, "kind": "latency",
        "city_a": "Denver, CO", "city_b": "Chicago, IL",
    },
    "risk": {"v": 1, "kind": "risk", "isp": "Sprint", "top": 3},
    "audit": {"v": 1, "kind": "audit", "isp": "Sprint"},
    "add": {
        "v": 1, "kind": "add",
        "city_a": "Denver, CO", "city_b": "Chicago, IL",
        "length_km": 1500.0,
    },
    "cut": {
        "v": 1, "kind": "cut",
        "city_a": "Provo, UT", "city_b": "Salt Lake City, UT",
        "max_traces": 50,
    },
    "experiment": {"v": 1, "kind": "experiment", "experiment_id": "table1"},
}

#: Every (kind, key) a targeted payload may swap, the envelope's
#: ``scenario`` key included.
SWAPPABLE = sorted(
    (kind, key)
    for kind, template in VALID.items()
    for key in [*template, "scenario"]
)

ODD_VALUES = st.sampled_from([
    -1, 0, -(2**63), 2**63, 10**400,
    float("inf"), float("-inf"), float("nan"), 1e308,
    "", [], [1, "a"], {}, None, True, 1.0,
])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Objects that name a real (cheap) kind, with request field names
#: bound to arbitrary values, so the fuzz reaches past the kind check.
REQUEST_LIKE = st.builds(
    lambda kind, fields: {"kind": kind, **fields},
    st.sampled_from(sorted(VALID)),
    st.dictionaries(
        st.sampled_from(sorted({
            key for template in VALID.values() for key in template
        } - {"kind"} | {"scenario"})),
        JSON_VALUES,
        max_size=3,
    ),
)

BODIES = (
    JSON_VALUES.map(json.dumps)
    | REQUEST_LIKE.map(json.dumps)
    | st.lists(REQUEST_LIKE | JSON_VALUES, max_size=4).map(
        lambda members: json.dumps({"requests": members})
    )
).map(str.encode) | st.binary(max_size=32)

#: Well-formed batch-mates of a malformed member.
MATES = [VALID["latency"], VALID["risk"], {
    "v": 1, "kind": "latency",
    "city_a": "Miami, FL", "city_b": "Seattle, WA",
}]


@pytest.fixture(scope="module")
def app(scenario):
    registry = ScenarioRegistry()
    registry.add("default", scenario=scenario)
    return ServiceApp(registry)


@pytest.fixture(scope="module")
def single_answers(app):
    return [_post(app, "/v1/query", json.dumps(m).encode())[1]
            for m in MATES]


def _post(app, path, body):
    status, payload = app.handle("POST", path, body)
    assert status < 500, payload
    encode_json(payload)  # the transport must be able to render it
    return status, payload


@FUZZ
@given(body=BODIES, path=st.sampled_from(["/v1/query", "/v1/batch"]))
def test_arbitrary_bodies_are_never_a_5xx(app, body, path):
    _post(app, path, body)


@FUZZ
@given(swap=st.sampled_from(SWAPPABLE), odd=ODD_VALUES)
@example(swap=("risk", "v"), odd=True)
@example(swap=("risk", "v"), odd=1.0)
def test_one_odd_field_is_never_a_5xx(app, single_answers, swap, odd):
    kind, key = swap
    request = dict(VALID[kind], **{key: odd})
    status, payload = _post(app, "/v1/query", json.dumps(request).encode())
    if key == "v":
        # No odd value is the schema version, not even true or 1.0.
        assert status == 400
        assert payload["error"]["code"] == "unsupported_version"
    members = [MATES[0], request, *MATES[1:]]
    status, payload = _post(
        app, "/v1/batch", json.dumps({"requests": members}).encode()
    )
    assert status == 200
    results = payload["results"]
    assert [results[0], *results[2:]] == single_answers
