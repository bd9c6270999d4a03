"""Per-trace record generators the columnar campaign replaced.

The package generates campaigns only as columns: the contract-v1
per-index writer (``campaign._columns_for_index``) and the contract-v2
vectorized batches (``rngv2.generate_columns_v2``).  The object
generators below are their references: :func:`trace_for_index` builds
one :class:`TracerouteRecord` per trace index under either contract,
draw for draw, so the parity suites can require every column to
reconstruct exactly the record it builds.  :func:`build_rows_scalar`
likewise fills a contract-v2 template store one engine template per
pair, the reference of its vectorized template builder.
"""

from __future__ import annotations

import random
from bisect import bisect
from typing import List

import numpy as np

from repro.families import get_family
from repro.traceroute.campaign import (
    CampaignConfig,
    _CampaignPlan,
    _trace_seed,
    _unreachable,
    _v1_endpoints,
)
from repro.traceroute.probe import (
    QUEUE_NOISE_MS,
    Hop,
    ProbeEngine,
    TracerouteRecord,
)
from repro.traceroute.rngv2 import (
    BLOCK_DRAWS,
    HOP_NOISE_BLOCKS,
    HOP_NOISE_BUDGET,
    MAX_ATTEMPTS_PER_TRACE,
    _PURPOSE_ENDPOINT,
    _PURPOSE_NOISE,
    _PlanTables,
    _stream,
    _TemplateStore,
)


def family_campaign_config(scenario, **kwargs) -> CampaignConfig:
    """A campaign config over *scenario*'s map family's providers (the
    family's client and destination mixes, where it names them)."""
    family = get_family(scenario.config.family)
    if family.client_isps is not None:
        kwargs.setdefault("client_isps", family.client_isps)
    if family.dest_isps is not None:
        kwargs.setdefault("dest_isps", family.dest_isps)
    return CampaignConfig(**kwargs)


def _pick_index(cum: List[float], u: float) -> int:
    """Scalar twin of ``rngv2._pick_indices`` (same float64 arithmetic)."""
    return bisect(cum, u * cum[-1], 0, len(cum) - 1)


def trace_for_index(
    engine: ProbeEngine,
    plan: _CampaignPlan,
    config: CampaignConfig,
    index: int,
) -> TracerouteRecord:
    """The record for one trace index, independent of all other traces.

    Dispatches on ``config.rng_contract``; under v1 this is the object
    path whose RNG stream ``campaign._columns_for_index`` consumes draw
    for draw, under v2 it delegates to :func:`trace_record_v2`.
    """
    if config.rng_contract == 2:
        return trace_record_v2(engine, plan, config, index)
    rng = random.Random(_trace_seed(config.seed, index))
    for endpoints in _v1_endpoints(plan, rng):
        record = engine.trace(*endpoints, rng=rng)
        if record.reached:
            return record
    raise _unreachable(index)


def trace_record_v2(
    engine: ProbeEngine,
    plan: _CampaignPlan,
    config: CampaignConfig,
    index: int,
) -> TracerouteRecord:
    """The v2 record for one trace index — the scalar reference of the
    vectorized batch path, draw-compatible by construction."""
    seed = config.seed
    for rnd in range(MAX_ATTEMPTS_PER_TRACE):
        u = _stream(seed, _PURPOSE_ENDPOINT, rnd, index).random(BLOCK_DRAWS)
        src_isp = plan.client_names[_pick_index(plan.client_cum, u[0])]
        dst_isp = plan.dest_names[_pick_index(plan.dest_cum, u[1])]
        cities, cum = plan.client_cities[src_isp]
        src_city = cities[_pick_index(cum, u[2])]
        cities, cum = plan.dest_cities[dst_isp]
        dst_city = cities[_pick_index(cum, u[3])]
        if src_city == dst_city and src_isp == dst_isp:
            continue
        template = engine._hop_template(
            (src_isp, src_city), (dst_isp, dst_city)
        )
        if template is False:
            continue
        k = len(template.router_ids)
        noise = _stream(
            seed, _PURPOSE_NOISE, 0, index * HOP_NOISE_BLOCKS
        ).random(HOP_NOISE_BUDGET)[:k]
        rtts = template.double_cum + QUEUE_NOISE_MS * noise
        schema = engine.column_schema()
        hops = tuple(
            Hop(
                ip=schema.router_ips[r],
                dns_name=schema.router_dns[r],
                rtt_ms=float(rtts[j]),
            )
            for j, r in enumerate(template.router_ids.tolist())
        )
        return TracerouteRecord(
            src_city=src_city,
            src_isp=src_isp,
            dst_city=dst_city,
            dst_isp=dst_isp,
            hops=hops,
            reached=True,
        )
    raise _unreachable(index)


def build_rows_scalar(
    store: _TemplateStore,
    engine: ProbeEngine,
    tables: _PlanTables,
    codes: np.ndarray,
) -> None:
    """Fill *store* with one engine template per pair: the scalar
    reference of ``_TemplateStore._build``."""
    counts: List[int] = []
    routers: List[np.ndarray] = [np.zeros(0, dtype=np.int32)]
    cums: List[np.ndarray] = [np.zeros(0, dtype=np.float64)]
    endpoints: List[tuple] = []
    for code in codes.tolist():
        cn, dn = divmod(code, tables.n_dest_nodes)
        template = engine._hop_template(
            tables.client_nodes[cn], tables.dest_nodes[dn]
        )
        if template is False:
            counts.append(-1)
            endpoints.append((0, 0, 0, 0))
            continue
        k = len(template.router_ids)
        store._check_budget(k)
        counts.append(k)
        routers.append(template.router_ids)
        cums.append(template.double_cum)
        endpoints.append((
            template.src_city_id,
            template.src_isp_id,
            template.dst_city_id,
            template.dst_isp_id,
        ))
    store.append(
        codes,
        np.asarray(counts, dtype=np.int64),
        np.concatenate(routers),
        np.concatenate(cums),
        np.asarray(endpoints, dtype=np.int32).reshape(-1, 4),
    )
