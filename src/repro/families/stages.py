"""The family-generic stage table: the paper's dataflow, declared once.

These builders were previously module-level in ``repro.scenario`` and
hardwired to the US ground truth; they are now family-generic — the only
stage that differs per family is ``ground_truth`` (each family's
``synthesize``).  Everything downstream (provider maps, the §2
construction pipeline, topology, campaign, geolocation, overlay, risk
matrix) consumes the :class:`~repro.fibermap.synthesis.GroundTruth`
contract and runs unchanged on any family.

The compiled routing substrate the §5 and resilience analyses run on is
not a stage: :func:`repro.perf.substrate.substrate_for` compiles it from
the constructed map on first use, in milliseconds, so there is nothing
worth persisting.

:func:`build_stage_table` gives every family the same stage names,
dependencies and seed offsets, and every persisted stage one cache-key
rule: ``family`` and ``seed``, plus ``traces`` and ``rng_contract`` for
the draw-dependent stages.  Two families' or two contracts' artifacts
therefore never collide.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.engine import StageContext, StageDef
from repro.families.base import MapFamily, get_family
from repro.fibermap.elements import FiberMap
from repro.fibermap.pipeline import ConstructionReport, MapConstructionPipeline
from repro.fibermap.publish import ProviderMap, publish_provider_maps
from repro.fibermap.records import RecordsCorpus, generate_records
from repro.fibermap.synthesis import GroundTruth
from repro.risk.matrix import RiskMatrix
from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.columns import TraceColumns
from repro.traceroute.geolocate import GeolocationDatabase
from repro.traceroute.overlay import TrafficOverlay
from repro.traceroute.probe import ProbeEngine
from repro.traceroute.topology import InternetTopology


def _family_of(ctx: StageContext) -> MapFamily:
    family = get_family(ctx.params["family"])
    family.ensure_ready()
    return family


def _build_ground_truth(ctx: StageContext) -> GroundTruth:
    return _family_of(ctx).synthesize(ctx.seed)


def _build_provider_maps(ctx: StageContext) -> Dict[str, ProviderMap]:
    return publish_provider_maps(ctx.dep("ground_truth"), seed=ctx.seed)


def _build_records(ctx: StageContext) -> RecordsCorpus:
    return generate_records(ctx.dep("ground_truth"), seed=ctx.seed)


def _build_constructed_map(
    ctx: StageContext,
) -> Tuple[FiberMap, ConstructionReport]:
    pipeline = MapConstructionPipeline(
        ctx.dep("ground_truth"),
        provider_maps=ctx.dep("provider_maps"),
        corpus=ctx.dep("records"),
    )
    return pipeline.run()


def _build_topology(ctx: StageContext) -> InternetTopology:
    return InternetTopology(ctx.dep("ground_truth"), seed=ctx.seed)


def _build_probe_engine(ctx: StageContext) -> ProbeEngine:
    return ProbeEngine(ctx.dep("topology"), seed=ctx.seed)


def _rng_contract_of(ctx: StageContext) -> int:
    return ctx.params["rng_contract"]


def _build_campaign(ctx: StageContext) -> TraceColumns:
    family = _family_of(ctx)
    overrides = {}
    if family.client_isps is not None:
        overrides["client_isps"] = family.client_isps
    if family.dest_isps is not None:
        overrides["dest_isps"] = family.dest_isps
    config = CampaignConfig(
        num_traces=ctx.params["traces"],
        seed=ctx.seed,
        workers=ctx.params["workers"],
        rng_contract=_rng_contract_of(ctx),
        **overrides,
    )
    return run_campaign(
        ctx.dep("topology"), config, engine=ctx.dep("probe_engine")
    )


def _build_geolocation(ctx: StageContext) -> GeolocationDatabase:
    return GeolocationDatabase(
        ctx.dep("topology"),
        seed=ctx.seed,
        rng_contract=_rng_contract_of(ctx),
    )


def _build_overlay(ctx: StageContext) -> TrafficOverlay:
    fiber_map, _ = ctx.dep("constructed_map")
    overlay = TrafficOverlay(
        fiber_map, ctx.dep("topology"), ctx.dep("geolocation")
    )
    overlay.add_traces(ctx.dep("campaign"))
    return overlay


def _build_risk_matrix(ctx: StageContext) -> RiskMatrix:
    fiber_map, _ = ctx.dep("constructed_map")
    return RiskMatrix(
        fiber_map,
        isps=[p.name for p in ctx.dep("ground_truth").profiles],
    )


#: Facade attribute -> backing stage.  Derived views (``network``,
#: ``isps``, ``construction_report``) resolve to the stage whose value
#: they project; the experiment runner uses this to enforce each
#: experiment's declared ``requires``.  Identical for every family —
#: families change what the stages *contain*, not what they are.
STAGE_OF_ATTRIBUTE: Dict[str, str] = {
    "ground_truth": "ground_truth",
    "network": "ground_truth",
    "isps": "ground_truth",
    "provider_maps": "provider_maps",
    "records": "records",
    "constructed_map": "constructed_map",
    "construction_report": "constructed_map",
    "topology": "topology",
    "probe_engine": "probe_engine",
    "campaign": "campaign",
    "geolocation": "geolocation",
    "overlay": "overlay",
    "risk_matrix": "risk_matrix",
}


def build_stage_table() -> Tuple[StageDef, ...]:
    """The declared dataflow of one scenario of any family, in paper
    order.

    Seed offsets are the per-stage derivations (previously scattered as
    ``seed + 1`` ... ``seed + 6`` literals).  Every persisted stage keys
    on ``family`` and ``seed``; the draw-dependent ones (campaign,
    overlay) add ``traces`` and ``rng_contract``.  The campaign's worker
    count shards the build without changing its records, so it stays
    out of every key.
    """
    keys = ("family", "seed")
    draw_keys = keys + ("traces", "rng_contract")
    return (
        StageDef(
            "ground_truth", _build_ground_truth, seed_offset=0,
            persist=True, cache_params=keys,
            doc="the synthesized world: actual conduits, tenancy, substrates",
        ),
        StageDef(
            "provider_maps", _build_provider_maps,
            deps=("ground_truth",), seed_offset=1,
            doc="step-1 published provider maps",
        ),
        StageDef(
            "records", _build_records,
            deps=("ground_truth",), seed_offset=2,
            doc="the public-records corpus (permits, filings)",
        ),
        StageDef(
            "constructed_map", _build_constructed_map,
            deps=("ground_truth", "provider_maps", "records"),
            persist=True, cache_params=keys,
            doc="the §2 four-step constructed map (+ construction report)",
        ),
        StageDef(
            "topology", _build_topology,
            deps=("ground_truth",), seed_offset=3,
            doc="router-level internet topology over the true world",
        ),
        StageDef(
            "probe_engine", _build_probe_engine,
            deps=("topology",), seed_offset=4,
            doc="the traceroute simulator",
        ),
        StageDef(
            "campaign", _build_campaign,
            deps=("topology", "probe_engine"), seed_offset=5,
            persist=True, cache_params=draw_keys,
            doc="the §4.3 traceroute campaign (columnar record store)",
        ),
        StageDef(
            "geolocation", _build_geolocation,
            deps=("topology",), seed_offset=6,
            doc="router-to-city geolocation database",
        ),
        StageDef(
            "overlay", _build_overlay,
            deps=("constructed_map", "topology", "geolocation", "campaign"),
            persist=True, cache_params=draw_keys,
            doc="the §4.3 traffic overlay on the constructed map",
        ),
        StageDef(
            "risk_matrix", _build_risk_matrix,
            deps=("constructed_map", "ground_truth"),
            doc="the §4.1 ISP x conduit shared-risk matrix",
        ),
    )
