"""CI smoke test for the what-if service.

Run from the repository root:
``PYTHONPATH=src python tools/smoke/service_smoke.py``.

Boots the real HTTP stack on an ephemeral port (warm-up included),
issues cut, latency, and risk-slice queries over actual sockets, and
checks four properties:

1. **Pinned goldens** — the canonical seed-2015 answers (conduit
   counts, top shared conduits, the Denver-Chicago shortest path) match
   exactly; any drift in the scenario pipeline or the query layer
   fails the job.
2. **Frontend identity** — every HTTP response body is byte-identical
   to what the CLI's ``--json`` path produces for the same typed
   request (both render through one canonical encoder).
3. **Lifecycle** — ``/healthz`` reports 503 before warm-up and 200
   after; the server shuts down cleanly.
4. **Keep-alive speed** — the latency queries share one persistent
   connection, and their median round trip stays under
   ``KEEP_ALIVE_MEDIAN_S`` (a server that let Nagle's algorithm hold
   each body for the client's delayed ACK would take ~40 ms).

Exits non-zero with a diagnostic on any mismatch.  The scenario is
intentionally small (1000 traces) so the whole job runs in CI time.
"""

from __future__ import annotations

import json
import statistics
import sys

from smokelib import (
    KEEP_ALIVE_MEDIAN_S,
    KeepAliveClient,
    check,
    query,
    request,
    serving,
)

#: Smoke scenario shape: small but big enough for stable orderings.
SEED = 2015
TRACES = 1000

#: Pinned golden facts for (seed=2015, traces=1000).  These are exact:
#: every value derives deterministically from the scenario seed.
GOLDEN_RISK = {
    "num_conduits": 598,
    "num_isps": 20,
    "top_conduit": "C0060",
    "top_conduit_tenants": 15,
}
GOLDEN_CUT = {
    "conduits_severed": 1,
    "isps_affected": 14,
}
GOLDEN_LATENCY = {
    "reachable": True,
    "hops": 7,
    "path_starts": "Denver, CO",
    "path_ends": "Chicago, IL",
    "delay_ms_rounded": 7.51,
}

#: Latency queries sent back to back on the keep-alive connection.
KEEP_ALIVE_PAIRS = (
    ("Denver, CO", "Chicago, IL"),
    ("Miami, FL", "Seattle, WA"),
    ("Boston, MA", "Dallas, TX"),
)
KEEP_ALIVE_QUERIES = 24


def main() -> int:
    from repro.scenario import ScenarioConfig, us2015
    from repro.service.registry import ScenarioRegistry

    scenario = us2015(
        config=ScenarioConfig(seed=SEED, campaign_traces=TRACES)
    )
    registry = ScenarioRegistry()
    registry.add("default", scenario=scenario)
    with serving(registry) as base:
        print(f"smoke: service on {base}")
        # Lifecycle: cold registry -> 503, warmed -> 200.
        status, _ = request(f"{base}/healthz")
        check(status == 503, f"healthz before warm-up: {status} != 503")
        registry.warm_all_async()
        check(registry.wait_ready(timeout=600), "warm-up did not finish")
        status, _ = request(f"{base}/healthz")
        check(status == 200, f"healthz after warm-up: {status} != 200")
        print("smoke: warm-up lifecycle ok")

        queries = {
            "cut": {
                "v": 1, "kind": "cut",
                "city_a": "Phoenix, AZ", "city_b": "Tucson, AZ",
            },
            "latency": {
                "v": 1, "kind": "latency",
                "city_a": "Denver, CO", "city_b": "Chicago, IL",
            },
            "risk": {"v": 1, "kind": "risk", "top": 5},
        }
        answers = {}
        latency_client = KeepAliveClient(base)
        try:
            for name, payload in queries.items():
                answers[name] = query(
                    base, scenario, payload,
                    client=latency_client if name == "latency" else None,
                )
                print(f"smoke: {name} query ok")
            # Keep-alive: latency queries back to back on one connection.
            for i in range(KEEP_ALIVE_QUERIES):
                city_a, city_b = KEEP_ALIVE_PAIRS[i % len(KEEP_ALIVE_PAIRS)]
                query(
                    base, scenario,
                    {"v": 1, "kind": "latency",
                     "city_a": city_a, "city_b": city_b},
                    client=latency_client,
                )
        finally:
            latency_client.close()
        median = statistics.median(latency_client.round_trips)
        check(
            median < KEEP_ALIVE_MEDIAN_S,
            f"keep-alive median round trip {median * 1000:.1f} ms >= "
            f"{KEEP_ALIVE_MEDIAN_S * 1000:.0f} ms",
        )
        print(
            f"smoke: keep-alive ok ({len(latency_client.round_trips)} "
            f"queries, median round trip {median * 1000:.1f} ms)"
        )

        risk = answers["risk"]
        check(
            risk["num_conduits"] == GOLDEN_RISK["num_conduits"],
            f"risk.num_conduits {risk['num_conduits']} != "
            f"{GOLDEN_RISK['num_conduits']}",
        )
        check(
            risk["num_isps"] == GOLDEN_RISK["num_isps"],
            f"risk.num_isps {risk['num_isps']} != {GOLDEN_RISK['num_isps']}",
        )
        top = risk["top_conduits"][0]
        check(
            top["conduit_id"] == GOLDEN_RISK["top_conduit"]
            and top["tenants"] == GOLDEN_RISK["top_conduit_tenants"],
            f"risk top conduit {top} != {GOLDEN_RISK}",
        )

        latency = answers["latency"]
        check(
            latency["reachable"] is GOLDEN_LATENCY["reachable"]
            and latency["hops"] == GOLDEN_LATENCY["hops"]
            and latency["path"][0] == GOLDEN_LATENCY["path_starts"]
            and latency["path"][-1] == GOLDEN_LATENCY["path_ends"]
            and round(latency["delay_ms"], 2)
            == GOLDEN_LATENCY["delay_ms_rounded"],
            f"latency answer drifted: {latency}",
        )

        cut = answers["cut"]
        check(
            cut["kind"] == "cut.result"
            and cut["event"]["conduits_severed"]
            == GOLDEN_CUT["conduits_severed"],
            f"cut answer drifted: {cut.get('event')}",
        )
        check(
            cut["impact"]["isps_affected"] == GOLDEN_CUT["isps_affected"]
            and cut["impact"]["total_links_hit"] >= 1,
            f"cut impact drifted: {cut['impact']['isps_affected']} ISPs, "
            f"{cut['impact']['total_links_hit']} links",
        )
        print("smoke: pinned goldens ok")

        # Structured errors: unknown city -> 404 with a typed payload.
        status, body = request(
            f"{base}/v1/query",
            {"v": 1, "kind": "latency",
             "city_a": "Denver, CO", "city_b": "Nowhere, XX"},
        )
        error = json.loads(body)
        check(
            status == 404 and error["error"]["code"] == "unknown_city",
            f"error path: HTTP {status}, {error}",
        )
        print("smoke: structured error path ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
