"""CI smoke test for the family registry.

Run from the repository root:
``PYTHONPATH=src python tools/smoke/families_smoke.py``.

Two checks, both against real end-to-end paths:

1. **Global experiment subset** — builds a small ``global2023``
   scenario and runs every experiment the family declares, through the
   family-gated runner.  Any experiment that raises, or any declared id
   the runner refuses, fails the job.  The gate itself is exercised
   too: an undeclared (US-dataset-bound) experiment must raise
   :class:`~repro.experiments.runner.UnsupportedExperimentError`.
2. **Side-by-side serve** — boots the what-if service with one US and
   one global scenario registered together, warms both, and issues
   ``/v1/query`` risk and cut queries against each by name.  Responses
   must be byte-identical to the CLI ``--json`` path (one canonical
   encoder) and structurally sane for each family's geography.

Scenarios are intentionally small so the whole job fits in CI time.
"""

from __future__ import annotations

import json
import sys

from smokelib import check, fail, query, request, serving

#: Smoke scenario shapes: small but big enough for stable orderings.
US_SEED = 2015
GLOBAL_SEED = 2023
TRACES = 600

#: One severable submarine edge (a Malacca-approach chokepoint) and a
#: cross-basin latency pair for the global query checks.
GLOBAL_CUT = ("Penang, MY", "Singapore, SG")
GLOBAL_LATENCY = ("Mumbai, IN", "Tokyo, JP")
US_CUT = ("Phoenix, AZ", "Tucson, AZ")


def _run_global_experiments(scenario) -> None:
    from repro.experiments.runner import (
        EXPERIMENTS,
        UnsupportedExperimentError,
        run_experiment,
    )

    family = scenario.family
    supported = family.supported_experiments(EXPERIMENTS)
    check(bool(supported), f"{family.name} declares no experiments")
    for experiment_id in supported:
        result = run_experiment(experiment_id, scenario)
        check(
            bool(result.text.strip()),
            f"{experiment_id} produced empty text for {family.name}",
        )
        print(f"smoke: {family.name} {experiment_id} ok")
    unsupported = sorted(set(EXPERIMENTS) - set(supported))
    check(
        bool(unsupported),
        f"{family.name} claims every experiment — gate untestable",
    )
    try:
        run_experiment(unsupported[0], scenario)
    except UnsupportedExperimentError as error:
        check(
            error.family == family.name
            and error.experiment_id == unsupported[0],
            f"gate error carries wrong identity: {error}",
        )
    else:
        fail(f"{unsupported[0]} ran despite being undeclared")
    print(
        f"smoke: {family.name} subset ok "
        f"({len(supported)} ran, {len(unsupported)} gated)"
    )


def main() -> int:
    from repro.scenario import ScenarioConfig, load_scenario
    from repro.service.registry import ScenarioRegistry

    us = load_scenario(
        config=ScenarioConfig(
            seed=US_SEED, campaign_traces=TRACES, family="us2015"
        )
    )
    global_ = load_scenario(
        config=ScenarioConfig(
            seed=GLOBAL_SEED, campaign_traces=TRACES, family="global2023"
        )
    )

    _run_global_experiments(global_)

    registry = ScenarioRegistry()
    registry.add("us", scenario=us)
    registry.add("global", scenario=global_)
    with serving(registry) as base:
        print(f"smoke: service on {base} (us + global)")
        registry.warm_all_async()
        check(registry.wait_ready(timeout=900), "warm-up did not finish")
        status, _ = request(f"{base}/healthz")
        check(status == 200, f"healthz after warm-up: {status} != 200")

        us_risk = query(
            base, us, {"v": 1, "kind": "risk", "top": 3, "scenario": "us"}
        )
        gl_risk = query(
            base, global_,
            {"v": 1, "kind": "risk", "top": 3, "scenario": "global"},
        )
        check(
            us_risk["num_isps"] > 0 and gl_risk["num_isps"] > 0,
            "risk slices are empty",
        )
        check(
            us_risk["num_conduits"] != gl_risk["num_conduits"],
            "us and global risk slices are identical — routing broken?",
        )
        us_top = {c["conduit_id"] for c in us_risk["top_conduits"]}
        gl_top = {c["conduit_id"] for c in gl_risk["top_conduits"]}
        print(
            f"smoke: risk ok (us {us_risk['num_conduits']} conduits "
            f"top {sorted(us_top)}; global {gl_risk['num_conduits']} "
            f"conduits top {sorted(gl_top)})"
        )

        us_cut = query(
            base, us,
            {"v": 1, "kind": "cut", "scenario": "us",
             "city_a": US_CUT[0], "city_b": US_CUT[1]},
        )
        gl_cut = query(
            base, global_,
            {"v": 1, "kind": "cut", "scenario": "global",
             "city_a": GLOBAL_CUT[0], "city_b": GLOBAL_CUT[1]},
        )
        for label, cut in (("us", us_cut), ("global", gl_cut)):
            check(
                cut["event"]["conduits_severed"] >= 1
                and cut["impact"]["isps_affected"] >= 1,
                f"{label} cut severed nothing: {cut['event']}",
            )
        print(
            f"smoke: cut ok (us {us_cut['impact']['isps_affected']} ISPs, "
            f"global {gl_cut['impact']['isps_affected']} ISPs affected)"
        )

        gl_lat = query(
            base, global_,
            {"v": 1, "kind": "latency", "scenario": "global",
             "city_a": GLOBAL_LATENCY[0], "city_b": GLOBAL_LATENCY[1]},
        )
        check(
            gl_lat["reachable"] and gl_lat["delay_ms"] > 0,
            f"global latency drifted: {gl_lat}",
        )
        print(
            f"smoke: global latency ok ({GLOBAL_LATENCY[0]} -> "
            f"{GLOBAL_LATENCY[1]}: {gl_lat['delay_ms']:.2f} ms, "
            f"{gl_lat['hops']} hops)"
        )

        # A US city must not resolve in the global scenario: families
        # keep distinct geographies even when served side by side.
        status, body = request(
            f"{base}/v1/query",
            {"v": 1, "kind": "latency", "scenario": "global",
             "city_a": US_CUT[0], "city_b": US_CUT[1]},
        )
        error = json.loads(body)
        check(
            status == 404 and error["error"]["code"] == "unknown_city",
            f"cross-family city leak: HTTP {status}, {error}",
        )
        print("smoke: cross-family isolation ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
