"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``            list every registered table/figure
``run <id> [...]``         run experiments and print their artifacts
``map [--geojson PATH]``   render the constructed map (ASCII), optionally
                           exporting GeoJSON
``layers``                 render the road and rail layers (ASCII)
``audit <ISP>``            shared-risk audit for one provider
``campaign``               build the traceroute campaign and report its
                           columnar footprint and throughput
``cut <cityA> <cityB>``    assess a right-of-way cut between two cities
``cache {info,clear,prune}``  inspect, empty, or size-bound the
                           persistent artifact cache (``prune --max-mb``
                           evicts LRU entries and sweeps orphans)
``trace summarize PATH``   render a run manifest written by ``--trace``
``graph {show,explain <stage>,invalidate <stage>,validate}``
                           inspect the scenario stage graph: the stage
                           table, one stage's dependencies/seed/cache
                           state, targeted cache eviction (stage plus
                           dependents), or structural validation of the
                           graph and every experiment's ``requires``
``latency <cityA> <cityB>`` shortest-path propagation delay between two
                           cities (a service-layer distance query)
``serve``                  the always-on what-if service: warm scenarios
                           resident in memory behind an HTTP/JSON API

The what-if verbs (``cut``, ``audit``, ``latency``, ``exchange``) build
a typed :mod:`repro.service.schema` request and dispatch through the
same handlers as the HTTP service, so ``--json`` prints exactly the
body ``POST /v1/query`` would return.

``families``               list registered map families

Global options: ``--family NAME`` map family (default ``us2015``; e.g.
``--family global2023`` for the submarine-cable universe), ``--seed N``
(default: the family's canonical seed), ``--traces N`` campaign size
(default 20000, the library's ``DEFAULT_CAMPAIGN_TRACES``), ``--workers N``
campaign worker processes (0 = one per core), ``--cache-dir PATH`` /
``--no-cache`` to control the artifact cache, ``--trace PATH`` to record a
JSON run manifest of every traced stage, and ``--json`` for
machine-readable output (``run``, ``audit``, ``cut``, ``latency``,
``exchange``, ``cache info``, ``cache prune``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.families import DEFAULT_FAMILY, family_names, get_family
from repro.scenario import (
    DEFAULT_CAMPAIGN_TRACES,
    Scenario,
    ScenarioConfig,
    load_scenario,
)
from repro.traceroute.rngv2 import (
    DEFAULT_BATCH_SIZE,
    SUPPORTED_RNG_CONTRACTS,
    default_rng_contract,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InterTubes (SIGCOMM 2015) reproduction toolkit",
    )
    parser.add_argument(
        "--family", default=DEFAULT_FAMILY, choices=family_names(),
        help=f"map family to build (default {DEFAULT_FAMILY})",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="scenario seed (default: the family's canonical seed, "
             "2015 for us2015)",
    )
    parser.add_argument(
        "--traces", type=int, default=DEFAULT_CAMPAIGN_TRACES,
        help="traceroute campaign size (traffic analyses; "
             f"default {DEFAULT_CAMPAIGN_TRACES}). The columnar store "
             "costs ~90 bytes per trace, so 200k traces fit in ~20 MB "
             "and the paper-scale 4.9M-trace campaign in ~450 MB; "
             "combine with --workers for sharded generation",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="campaign worker processes (0 = one per CPU core)",
    )
    parser.add_argument(
        "--rng-contract", type=int, default=None, metavar="V",
        choices=SUPPORTED_RNG_CONTRACTS,
        help="campaign RNG contract version: 2 (counter-based "
             "vectorized streams, the default) or 1 (the legacy "
             "per-trace Mersenne streams, reproducing pre-v2 goldens); "
             "default honors REPRO_RNG_CONTRACT",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent artifact cache directory (enables the cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache even if REPRO_CACHE is set",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a JSON run manifest of every traced stage to PATH",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON output (run, audit, cut, latency, "
             "exchange, cache info)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list registered experiments")

    sub.add_parser("families", help="list registered map families")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")

    map_cmd = sub.add_parser("map", help="render the constructed map")
    map_cmd.add_argument("--geojson", metavar="PATH", default=None)
    map_cmd.add_argument("--width", type=int, default=100)

    sub.add_parser("layers", help="render road and rail layers")

    audit = sub.add_parser("audit", help="shared-risk audit for one ISP")
    audit.add_argument("isp")

    sub.add_parser(
        "campaign",
        help="build the traceroute campaign; report size and throughput",
    )

    cut = sub.add_parser("cut", help="assess a right-of-way cut")
    cut.add_argument("city_a")
    cut.add_argument("city_b")

    latency = sub.add_parser(
        "latency",
        help="shortest-path propagation delay between two cities",
    )
    latency.add_argument("city_a")
    latency.add_argument("city_b")

    serve = sub.add_parser(
        "serve",
        help="run the always-on what-if service (HTTP/JSON query API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8310,
        help="listen port (0 binds an ephemeral port; default 8310)",
    )
    serve.add_argument(
        "--scenario", action="append",
        metavar="NAME=[FAMILY:]SEED[:TRACES]",
        default=None,
        help="serve an extra named scenario variant alongside "
             "'default' (repeatable); FAMILY falls back to --family "
             "and TRACES to --traces (e.g. east=2016, "
             "global=global2023:2023:2000)",
    )
    serve.add_argument(
        "--no-warm", action="store_true",
        help="skip the background stage warm-up (queries then build "
             "stages on first touch)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario × optimizer-driver sweep grid",
    )
    sweep.add_argument(
        "--grid", action="append", metavar="KEY=SPEC", default=None,
        help="sweep axis (repeatable): seed=2015..2024, seed=1,5,9, "
             "driver=greedy,anneal, family=us2015,global2023, "
             "traces=2000, max_k=4, driver_seed=0..2; the seed and "
             "family axes default to --seed / --family",
    )
    sweep.add_argument(
        "--driver", default=None, metavar="NAMES",
        help="comma list of augmentation drivers (greedy, anneal, "
             "evolutionary, random) — sugar for --grid driver=...",
    )
    sweep.add_argument(
        "--max-k", type=int, default=4, metavar="K",
        help="conduits added per augmentation search when no max_k "
             "axis is given (default 4)",
    )
    sweep.add_argument(
        "--isps", default=None, metavar="NAMES",
        help="comma list of providers to score (default: all)",
    )
    sweep.add_argument(
        "--sweep-workers", type=int, default=1, metavar="N",
        help="cell worker processes (1 = serial, 0 = one per core); "
             "share --cache-dir across workers for cross-cell dedup",
    )
    sweep.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the per-sweep RunManifest (cell spans, embedded "
             "cell manifests, cache-dedup accounting) to PATH",
    )

    annotate = sub.add_parser(
        "annotate", help="export the traffic/delay-annotated map"
    )
    annotate.add_argument("--geojson", metavar="PATH", default=None)

    pareto = sub.add_parser(
        "pareto", help="risk-latency Pareto frontier between two cities"
    )
    pareto.add_argument("city_a")
    pareto.add_argument("city_b")
    pareto.add_argument("--isp", default=None)

    backup = sub.add_parser(
        "backup", help="SRLG-diverse backup plan for an ISP and city pair"
    )
    backup.add_argument("isp")
    backup.add_argument("city_a")
    backup.add_argument("city_b")

    sub.add_parser(
        "partition", help="minimum west-east cuts (and the undersea bypass)"
    )

    exchange = sub.add_parser(
        "exchange", help="plan jointly funded conduits (the §6.3 model)"
    )
    exchange.add_argument("--conduits", type=int, default=5)

    cache = sub.add_parser(
        "cache",
        help="inspect, empty, or size-bound the persistent artifact cache",
    )
    cache.add_argument("action", choices=("info", "clear", "prune"))
    cache.add_argument(
        "--max-mb", type=float, default=None, metavar="MB",
        help="prune: evict least-recently-used artifacts until the "
             "cache fits this many megabytes (omit to only sweep "
             "orphaned temp files and quarantined entries)",
    )

    trace = sub.add_parser(
        "trace", help="inspect run manifests written by --trace"
    )
    trace.add_argument("action", choices=("summarize",))
    trace.add_argument("path", help="manifest path")

    graph = sub.add_parser(
        "graph", help="inspect the scenario stage graph"
    )
    graph.add_argument(
        "action", choices=("show", "explain", "invalidate", "validate"),
        help="show the stage table, explain one stage, evict a "
             "stage's cached artifacts (plus dependents), or validate "
             "the graph and every experiment's declared requires",
    )
    graph.add_argument(
        "stage", nargs="?", default=None,
        help="stage name (explain/invalidate)",
    )
    return parser


def _emit_json(payload: Any) -> None:
    """The single ``--json`` emitter.

    Every subcommand's payload — plain dicts, typed responses,
    dataclasses — passes through one ``to_jsonable``-based canonical
    rendering (:func:`repro.service.schema.encode_json`), the same one
    the HTTP server uses, so CLI and service bytes are comparable.
    """
    from repro.service.schema import encode_json

    print(encode_json(payload))


def _cmd_experiments() -> int:
    from repro.experiments import EXPERIMENTS

    for experiment_id in sorted(EXPERIMENTS):
        print(f"{experiment_id:10s} {EXPERIMENTS[experiment_id].title}")
    return 0


def _cmd_families(as_json: bool) -> int:
    from repro.experiments import EXPERIMENTS

    if as_json:
        _emit_json([get_family(name).describe() for name in family_names()])
        return 0
    for name in family_names():
        family = get_family(name)
        experiments = (
            "all experiments"
            if family.experiments is None
            else f"{len(family.supported_experiments(EXPERIMENTS))} of "
                 f"{len(EXPERIMENTS)} experiments"
        )
        print(f"{name:12s} {family.title}")
        print(
            f"{'':12s} geography: {family.geographic_model}; "
            f"risk: {family.risk_semantics}; "
            f"default seed {family.default_seed}; {experiments}"
        )
    return 0


def _cmd_run(scenario: Scenario, ids: List[str], as_json: bool) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment
    from repro.experiments.runner import UnsupportedExperimentError

    family = scenario.family
    chosen = (
        family.supported_experiments(EXPERIMENTS) if ids == ["all"] else ids
    )
    unknown = [i for i in chosen if i not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment: {', '.join(unknown)}", file=sys.stderr
        )
        return 2
    results = []
    for experiment_id in chosen:
        try:
            result = run_experiment(experiment_id, scenario)
        except UnsupportedExperimentError as error:
            print(str(error), file=sys.stderr)
            return 2
        if as_json:
            results.append(result.to_json())
        else:
            print(result.text)
            print()
    if as_json:
        _emit_json(results)
    return 0


def _cmd_map(scenario: Scenario, geojson: Optional[str], width: int) -> int:
    from repro.analysis.render import render_fiber_map
    from repro.fibermap.serialization import fiber_map_to_geojson

    fiber_map = scenario.constructed_map
    print(render_fiber_map(fiber_map, width=width))
    print(f"\n{fiber_map.stats()}")
    if geojson:
        with open(geojson, "w", encoding="utf-8") as handle:
            json.dump(fiber_map_to_geojson(fiber_map), handle)
        print(f"GeoJSON written to {geojson}")
    return 0


_LAYER_TITLES = {
    "road": "Roadway layer",
    "rail": "Railway layer",
    "pipeline": "Pipeline layer",
    "sea": "Submarine cable layer",
}


def _cmd_layers(scenario: Scenario) -> int:
    from repro.analysis.render import render_transport

    for kind in scenario.family.row_kinds[0]:
        title = _LAYER_TITLES.get(kind, f"{kind} layer")
        print(f"--- {title} ---")
        print(render_transport(scenario.network, kind))
        print()
    return 0


def _cmd_audit(scenario: Scenario, isp: str, as_json: bool) -> int:
    from repro.service.schema import AuditRequest

    return _run_query(scenario, AuditRequest(isp=isp), as_json)


def _run_query(scenario: Scenario, request: Any, as_json: bool) -> int:
    """Dispatch a typed request through the shared service handlers.

    ``--json`` prints exactly the body the HTTP endpoint returns for
    the same request; otherwise the shared human-readable rendering.
    """
    from repro.service.render import render_response
    from repro.service.schema import QueryError

    try:
        response = scenario.query(request)
    except QueryError as error:
        print(error.message, file=sys.stderr)
        return 2
    if as_json:
        _emit_json(response.to_json())
        return 0
    print(render_response(response))
    return 0


def _cmd_campaign(scenario: Scenario, as_json: bool) -> int:
    import time

    started = time.perf_counter()
    columns = scenario.campaign
    elapsed = time.perf_counter() - started
    num = len(columns)
    reached = int(columns.traces["reached"].sum())
    rate = num / elapsed if elapsed > 0 else 0.0
    payload = {
        "traces": num,
        "reached": reached,
        "reached_fraction": reached / num if num else 0.0,
        "hops": columns.num_hops,
        "mean_hops": columns.num_hops / num if num else 0.0,
        "columnar_bytes": columns.nbytes,
        "schema_digest": columns.schema.digest(
            rng_contract=columns.rng_contract
        ),
        "workers": scenario.workers,
        "rng_contract": columns.rng_contract,
        "batch_size": DEFAULT_BATCH_SIZE,
        "build_seconds": elapsed,
        "records_per_second": rate,
    }
    if as_json:
        _emit_json(payload)
        return 0
    print(
        f"campaign: {num} traces ({reached} reached, "
        f"{payload['reached_fraction']:.1%}), {columns.num_hops} hops "
        f"({payload['mean_hops']:.2f}/trace)"
    )
    print(
        f"columnar store: {columns.nbytes / 1e6:.2f} MB "
        f"({columns.nbytes / num:.0f} B/trace), schema "
        f"{payload['schema_digest']}"
    )
    print(
        f"built in {elapsed:.2f} s with workers={scenario.workers} "
        f"under rng contract v{columns.rng_contract} "
        f"(batch {payload['batch_size']}; {rate:,.0f} records/s, "
        f"including upstream stages on a cold scenario)"
    )
    return 0


def _cmd_cut(
    scenario: Scenario, city_a: str, city_b: str, as_json: bool
) -> int:
    from repro.service.schema import CutRequest

    return _run_query(
        scenario, CutRequest(city_a=city_a, city_b=city_b), as_json
    )


def _cmd_latency(
    scenario: Scenario, city_a: str, city_b: str, as_json: bool
) -> int:
    from repro.service.schema import LatencyRequest

    return _run_query(
        scenario, LatencyRequest(city_a=city_a, city_b=city_b), as_json
    )


def _cmd_annotate(scenario: Scenario, geojson: Optional[str]) -> int:
    from repro.analysis.report import format_table
    from repro.fibermap.annotate import annotate_map, annotated_geojson

    annotated = annotate_map(scenario.constructed_map, scenario.overlay)
    print(
        format_table(
            ("conduit", "tenants", "class", "probes", "delay ms"),
            [
                (
                    f"{a.endpoints[0]} - {a.endpoints[1]}",
                    a.tenants,
                    a.risk_class,
                    a.probes_total,
                    f"{a.delay_ms:.2f}",
                )
                for a in annotated.busiest(top=12)
            ],
            title="busiest conduits (annotated map)",
        )
    )
    critical = annotated.critical()
    print(f"critical-risk conduits: {len(critical)} of {len(annotated)}")
    if geojson:
        with open(geojson, "w", encoding="utf-8") as handle:
            json.dump(
                annotated_geojson(scenario.constructed_map, annotated), handle
            )
        print(f"annotated GeoJSON written to {geojson}")
    return 0


def _cmd_pareto(
    scenario: Scenario, city_a: str, city_b: str, isp: Optional[str]
) -> int:
    from repro.analysis.report import format_table
    from repro.routing.pareto import pareto_paths

    try:
        options = pareto_paths(scenario.constructed_map, city_a, city_b, isp=isp)
    except ValueError as error:
        print(f"pareto: {error}", file=sys.stderr)
        return 2
    if not options:
        print(f"no path between {city_a} and {city_b}", file=sys.stderr)
        return 2
    print(
        format_table(
            ("delay ms", "max tenants", "total tenants", "hops"),
            [
                (f"{o.delay_ms:.2f}", o.max_risk, o.total_risk, o.num_hops)
                for o in options
            ],
            title=f"risk-latency frontier: {city_a} <-> {city_b}"
            + (f" ({isp})" if isp else ""),
        )
    )
    return 0


def _cmd_backup(scenario: Scenario, isp: str, city_a: str, city_b: str) -> int:
    from repro.routing import plan_backup

    try:
        plan = plan_backup(scenario.constructed_map, isp, city_a, city_b)
    except ValueError as error:
        print(f"backup: {error}", file=sys.stderr)
        return 2
    if plan is None:
        print(f"{isp} cannot connect {city_a} and {city_b}", file=sys.stderr)
        return 2
    print(
        f"primary: {len(plan.primary_conduits)} conduits, "
        f"{plan.primary_delay_ms:.2f} ms"
    )
    if not plan.protected:
        print("backup: none available (unprotected pair)")
        return 0
    print(
        f"backup:  {len(plan.backup_conduits)} conduits, "
        f"{plan.backup_delay_ms:.2f} ms"
    )
    if plan.fully_diverse:
        print("fully risk-diverse: no shared trenches")
    else:
        shared = "; ".join(f"{a} - {b}" for a, b in sorted(plan.shared_groups))
        print(f"WARNING shared trenches: {shared}")
    return 0


def _cmd_partition(scenario: Scenario) -> int:
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import UnsupportedExperimentError
    from repro.resilience import partition_report

    # The west-east cut anchors on US longitudes; only families that
    # declare the partition study get it.
    family = scenario.family
    if not family.supports("ext_partition"):
        error = UnsupportedExperimentError(
            "ext_partition", family.name,
            family.supported_experiments(EXPERIMENTS),
        )
        print(str(error), file=sys.stderr)
        return 2
    report = partition_report(scenario.constructed_map)
    print(f"minimum west-east right-of-way cuts: {report.min_cuts}")
    for a, b in report.cut_edges:
        print(f"  {a} - {b}")
    if report.partitionable_with_undersea:
        print(f"with undersea bypass: {report.min_cuts_with_undersea}")
    else:
        print("with undersea bypass: partitioning impossible")
    return 0


def _cmd_exchange(
    scenario: Scenario, num_conduits: int, as_json: bool
) -> int:
    from repro.service.schema import ExchangeRequest

    return _run_query(
        scenario, ExchangeRequest(num_conduits=num_conduits), as_json
    )


def _cmd_serve(scenario: Scenario, args: argparse.Namespace, tracer) -> int:
    from repro.service.registry import ScenarioRegistry
    from repro.service.server import ServiceApp, make_server

    registry = ScenarioRegistry()
    registry.add("default", scenario=scenario)
    base = scenario.config
    for spec in args.scenario or []:
        name, _, params = spec.partition("=")
        try:
            if not name or not params:
                raise ValueError(spec)
            parts = params.split(":")
            # Legacy NAME=SEED[:TRACES] (seed first) vs the family-
            # qualified NAME=FAMILY:SEED[:TRACES]: an integer first
            # token is always a seed.
            try:
                int(parts[0])
                family = base.family
            except ValueError:
                family = parts[0]
                parts = parts[1:]
            if not parts or len(parts) > 2 or not parts[0]:
                raise ValueError(spec)
            seed = int(parts[0])
            traces = (
                int(parts[1]) if len(parts) > 1 and parts[1]
                else base.campaign_traces
            )
            variant = ScenarioConfig(
                seed=seed,
                campaign_traces=traces,
                workers=base.workers,
                cache=base.cache,
                family=family,
                rng_contract=base.rng_contract,
            )
            registry.add(name, scenario=load_scenario(config=variant))
        except ValueError as error:
            print(
                f"bad --scenario spec {spec!r} "
                f"(want NAME=[FAMILY:]SEED[:TRACES]): {error}",
                file=sys.stderr,
            )
            return 2
    app = ServiceApp(registry, tracer=tracer)
    server = make_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    if not args.no_warm:
        registry.warm_all_async()
    print(
        f"repro what-if service on http://{host}:{port} "
        f"(scenarios: {', '.join(registry.names())})"
    )
    print(
        "endpoints: GET /healthz, GET /v1/manifest, "
        "POST /v1/query, POST /v1/batch",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _cmd_sweep(
    args: argparse.Namespace, cache: Any, as_json: bool
) -> int:
    from repro.perf.cache import resolve_cache
    from repro.sweep import expand_grid, parse_grid, run_sweep

    try:
        axes = parse_grid(args.grid or [])
        if args.driver is not None:
            axes.setdefault("driver", parse_grid([f"driver={args.driver}"])["driver"])
        axes.setdefault("seed", [args.seed])
        axes.setdefault("max_k", [args.max_k])
        axes.setdefault("family", [args.family])
        axes.setdefault(
            "rng_contract",
            [args.rng_contract if args.rng_contract is not None
             else default_rng_contract()],
        )
        if "traces" not in axes:
            from repro.sweep.grid import DEFAULT_CELL_TRACES

            explicit = args.traces != DEFAULT_CAMPAIGN_TRACES
            axes["traces"] = [args.traces if explicit else DEFAULT_CELL_TRACES]
        cells = expand_grid(axes)
    except ValueError as error:
        print(f"bad sweep grid: {error}", file=sys.stderr)
        return 2
    isps = (
        [name.strip() for name in args.isps.split(",") if name.strip()]
        if args.isps
        else None
    )
    if resolve_cache(cache) is None:
        print(
            "note: no shared cache root (--cache-dir) — cells cannot "
            "deduplicate stage builds",
            file=sys.stderr,
        )

    def progress(cell: Dict[str, Any]) -> None:
        spec = cell["cell"]
        status = "ok" if cell["ok"] else "FAILED"
        family = spec.get("family", DEFAULT_FAMILY)
        prefix = "" if family == DEFAULT_FAMILY else f"{family} "
        print(
            f"  cell {prefix}seed={spec['seed']} driver={spec['driver']}"
            f"/{spec['driver_seed']} k={spec['max_k']}: {status} "
            f"({cell['duration_s']:.2f}s, cache {cell['cache']['hits']}h/"
            f"{cell['cache']['misses']}m)",
            file=sys.stderr,
        )

    result = run_sweep(
        cells,
        isps=isps,
        cache=cache,
        workers=args.sweep_workers,
        stream=None if as_json else progress,
    )
    if args.out:
        path = result.write_manifest(args.out)
        print(f"sweep manifest written to {path}", file=sys.stderr)
    if as_json:
        _emit_json(result.to_jsonable())
        return 0 if result.ok else 1
    from repro.analysis.report import format_table

    rows = []
    for cell in result.cells:
        spec = cell["cell"]
        metrics = cell.get("metrics") or {}
        rows.append([
            spec.get("family", DEFAULT_FAMILY),
            str(spec["seed"]),
            spec["driver"],
            str(spec["driver_seed"]),
            str(spec["max_k"]),
            "ok" if cell["ok"] else "FAILED",
            f"{metrics.get('mean_gain', 0.0) or 0.0:.4f}",
            f"{metrics.get('srr_avg', 0.0) or 0.0:.3f}",
            f"{cell['cache']['hits']}/{cell['cache']['misses']}",
            f"{cell['duration_s']:.2f}",
        ])
    print(format_table(
        ["family", "seed", "driver", "dseed", "k", "status", "mean gain",
         "avg SRR", "cache h/m", "secs"],
        rows,
        title=f"Sweep: {len(result.cells)} cells, "
              f"workers={result.workers}",
    ))
    dedup = result.cache_dedup()
    print(
        f"cache dedup: {dedup['cross_cell_hits']} cross-cell hit(s), "
        f"{dedup['coalesced']} coalesced build(s), "
        f"{dedup['misses']} miss(es)"
    )
    aggregates = result.aggregates
    for driver, dist in (aggregates.get("gain_per_driver") or {}).items():
        if dist:
            print(
                f"gain[{driver}]: mean {dist['mean']:.4f}  "
                f"median {dist['median']:.4f}  max {dist['max']:.4f}  "
                f"(n={dist['n']})"
            )
    if not result.ok:
        failed = len(result.cells) - sum(1 for c in result.cells if c["ok"])
        print(f"{failed} cell(s) FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(
    action: str,
    cache_dir: Optional[str],
    as_json: bool,
    max_mb: Optional[float] = None,
) -> int:
    from repro.perf.cache import ArtifactCache

    cache = ArtifactCache(cache_dir) if cache_dir else ArtifactCache()
    if action == "info":
        if as_json:
            entries = cache.entries()
            by_stage: Dict[str, Dict[str, int]] = {}
            for entry in entries:
                bucket = by_stage.setdefault(
                    entry.stage, {"artifacts": 0, "size_bytes": 0}
                )
                bucket["artifacts"] += 1
                bucket["size_bytes"] += entry.size_bytes
            orphans = cache.orphan_tmp_files()
            quarantined = cache.quarantined_files()
            locks = cache.lock_files()
            _emit_json({
                "root": str(cache.root),
                "artifacts": len(entries),
                "size_bytes": sum(e.size_bytes for e in entries),
                "stages": by_stage,
                "orphaned_tmp_files": len(orphans),
                "quarantined_entries": len(quarantined),
                "lock_files": len(locks),
            })
            return 0
        print(cache.info_text())
        return 0
    if action == "prune":
        max_bytes = None if max_mb is None else int(max_mb * 1e6)
        result = cache.prune(max_bytes=max_bytes)
        if as_json:
            _emit_json({
                "root": str(cache.root),
                "evicted": result.evicted,
                "orphans_swept": result.orphans_swept,
                "quarantine_removed": result.quarantine_removed,
                "locks_swept": result.locks_swept,
                "bytes_freed": result.bytes_freed,
                "bytes_remaining": result.bytes_remaining,
            })
            return 0
        print(
            f"pruned {cache.root}: evicted {result.evicted} artifact(s), "
            f"swept {result.orphans_swept} orphan(s), removed "
            f"{result.quarantine_removed} quarantined file(s), swept "
            f"{result.locks_swept} stale lock(s), freed "
            f"{result.bytes_freed / 1e6:.2f} MB "
            f"({result.bytes_remaining / 1e6:.2f} MB remain)"
        )
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached artifact(s) from {cache.root}")
    return 0


def _cmd_graph(
    scenario: Scenario, action: str, stage: Optional[str], as_json: bool
) -> int:
    from repro.engine import UnknownStageError

    graph = scenario.graph
    if action in ("explain", "invalidate") and stage is None:
        print(f"graph {action} requires a stage name", file=sys.stderr)
        return 2
    if action == "show":
        rows = graph.describe()
        if as_json:
            _emit_json(rows)
            return 0
        print(f"{len(rows)} stages (topological order):")
        for row in rows:
            deps = ", ".join(row["deps"]) or "-"
            seed = (
                "-" if row["derived_seed"] is None
                else str(row["derived_seed"])
            )
            cached = ""
            if row["policy"] == "persisted":
                cached = (
                    " [cached]" if row["cache_entry"]
                    else " [not cached]" if row["cache_entry"] is not None
                    else ""
                )
            print(
                f"  {row['stage']:16s} {row['policy']:9s} "
                f"seed={seed:6s} deps: {deps}{cached}"
            )
        return 0
    if action == "validate":
        from repro.experiments import EXPERIMENTS

        problems = graph.validate()
        for experiment_id in sorted(EXPERIMENTS):
            for name in EXPERIMENTS[experiment_id].requires:
                if name not in graph:
                    problems.append(
                        f"experiment {experiment_id!r} requires "
                        f"unknown stage {name!r}"
                    )
            if not EXPERIMENTS[experiment_id].requires:
                problems.append(
                    f"experiment {experiment_id!r} declares no "
                    f"required stages"
                )
        if as_json:
            _emit_json({"ok": not problems, "problems": problems})
        elif problems:
            for problem in problems:
                print(problem, file=sys.stderr)
        else:
            print(
                f"stage graph OK: {len(graph.names())} stages, "
                f"{len(EXPERIMENTS)} experiments with declared requires"
            )
        return 1 if problems else 0
    try:
        if action == "explain":
            info = graph.explain(stage)
            if as_json:
                _emit_json(info)
                return 0
            print(f"stage: {info['stage']}")
            print(f"  {info['doc']}")
            print(f"  policy:      {info['policy']}")
            print(f"  deps:        {', '.join(info['deps']) or '-'}")
            print(f"  closure:     {', '.join(info['closure']) or '-'}")
            print(f"  dependents:  {', '.join(info['dependents']) or '-'}")
            if info["derived_seed"] is not None:
                print(
                    f"  seed:        {info['derived_seed']} "
                    f"(base {scenario.seed} + offset {info['seed_offset']})"
                )
            if info["policy"] == "persisted":
                print(f"  cache key:   {info['cache_key']}")
                state = (
                    "no cache configured" if info["cache_entry"] is None
                    else "warm" if info["cache_entry"] else "cold"
                )
                print(f"  cache entry: {state}")
            return 0
        # invalidate
        if scenario.cache is None:
            print(
                "no artifact cache configured (set --cache-dir or "
                "REPRO_CACHE)", file=sys.stderr,
            )
            return 2
        removed = graph.invalidate(stage)
        affected = [stage, *graph.dependents(stage)]
        if as_json:
            _emit_json({
                "stage": stage,
                "affected": affected,
                "artifacts_removed": removed,
            })
            return 0
        print(
            f"invalidated {', '.join(affected)}: removed {removed} "
            f"cached artifact(s)"
        )
        return 0
    except UnknownStageError:
        print(
            f"unknown stage {stage!r}; known: "
            f"{', '.join(scenario.graph.names())}",
            file=sys.stderr,
        )
        return 2


def _cmd_trace(action: str, path: str) -> int:
    from repro.obs import RunManifest

    try:
        manifest = RunManifest.load(path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"cannot read manifest {path}: {error}", file=sys.stderr)
        return 2
    if action == "summarize":
        print(manifest.summary_text())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.  Point
        # stdout at /dev/null so the interpreter's exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = get_family(args.family).default_seed
    if args.command == "experiments":
        return _cmd_experiments()
    if args.command == "families":
        return _cmd_families(args.json)
    if args.command == "cache":
        return _cmd_cache(
            args.action, args.cache_dir, args.json, args.max_mb
        )
    if args.command == "trace":
        return _cmd_trace(args.action, args.path)

    from repro.obs import RunManifest, Tracer, set_tracer

    cache = False if args.no_cache else (args.cache_dir or None)
    if args.rng_contract is None:
        args.rng_contract = default_rng_contract()
    config = ScenarioConfig(
        seed=args.seed,
        campaign_traces=args.traces,
        workers=args.workers,
        cache=cache,
        family=args.family,
        rng_contract=args.rng_contract,
    )
    tracer = Tracer() if args.trace else None
    previous = set_tracer(tracer) if tracer is not None else None
    try:
        scenario = load_scenario(config=config)
        if args.command == "run":
            return _cmd_run(scenario, args.ids, args.json)
        if args.command == "map":
            return _cmd_map(scenario, args.geojson, args.width)
        if args.command == "layers":
            return _cmd_layers(scenario)
        if args.command == "audit":
            return _cmd_audit(scenario, args.isp, args.json)
        if args.command == "campaign":
            return _cmd_campaign(scenario, args.json)
        if args.command == "cut":
            return _cmd_cut(scenario, args.city_a, args.city_b, args.json)
        if args.command == "latency":
            return _cmd_latency(
                scenario, args.city_a, args.city_b, args.json
            )
        if args.command == "serve":
            return _cmd_serve(scenario, args, tracer)
        if args.command == "sweep":
            return _cmd_sweep(args, cache, args.json)
        if args.command == "annotate":
            return _cmd_annotate(scenario, args.geojson)
        if args.command == "pareto":
            return _cmd_pareto(scenario, args.city_a, args.city_b, args.isp)
        if args.command == "backup":
            return _cmd_backup(scenario, args.isp, args.city_a, args.city_b)
        if args.command == "partition":
            return _cmd_partition(scenario)
        if args.command == "exchange":
            return _cmd_exchange(scenario, args.conduits, args.json)
        if args.command == "graph":
            return _cmd_graph(scenario, args.action, args.stage, args.json)
        raise AssertionError("unreachable")  # pragma: no cover
    finally:
        if tracer is not None:
            set_tracer(previous)
            manifest = RunManifest.from_tracer(
                tracer,
                config=config.to_dict(),
                meta={"command": args.command},
            )
            manifest.write(args.trace)
            print(f"run manifest written to {args.trace}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
