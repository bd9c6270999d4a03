"""Per-trace record generators the columnar campaign replaced.

The package generates campaigns only as columns, batch by batch: each
contract's draw (``campaign._v1_batch_rows`` for v1,
``rngv2._batch_rows`` for v2) resolves its endpoint pairs through
the vectorized template store and gathers the columns.  The object
generators below are their references: :func:`trace_for_index` builds
one :class:`TracerouteRecord` per trace index under either contract,
draw for draw (:func:`v1_endpoints` is v1's endpoint-draw loop), so
the parity suites can require every column to reconstruct exactly the
record it builds.  :func:`hop_template` is the scalar hop-template
builder, one endpoint pair at a time over the engine's visible-hop
walk, and :func:`build_rows_scalar` fills a template store with its
templates: the reference of the vectorized template builder.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.families import get_family
from repro.traceroute.campaign import (
    CampaignConfig,
    _CampaignPlan,
    _trace_seed,
    _unreachable,
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


def _pick(rng: random.Random, values: List[str], cum: List[float]) -> str:
    """One weighted draw; same semantics as ``rng.choices`` with
    ``cum_weights``."""
    return values[_pick_index(cum, rng.random())]


def v1_endpoints(
    plan: _CampaignPlan, rng: random.Random
) -> Iterator[Tuple[str, str, str, str]]:
    """Contract-v1 endpoint draws ``(src_city, src_isp, dst_city,
    dst_isp)`` from one trace's stream, skipping degenerate pairs, for
    at most :data:`MAX_ATTEMPTS_PER_TRACE` draws.  The caller's noise
    draws for a candidate happen before the next candidate is drawn."""
    for _ in range(MAX_ATTEMPTS_PER_TRACE):
        src_isp = _pick(rng, plan.client_names, plan.client_cum)
        dst_isp = _pick(rng, plan.dest_names, plan.dest_cum)
        cities, cum = plan.client_cities[src_isp]
        src_city = _pick(rng, cities, cum)
        cities, cum = plan.dest_cities[dst_isp]
        dst_city = _pick(rng, cities, cum)
        if src_city != dst_city or src_isp != dst_isp:
            yield src_city, src_isp, dst_city, dst_isp


@dataclass(frozen=True)
class HopTemplate:
    """The deterministic part of every trace between one endpoint pair:
    its schema endpoint ids, the router ids of its *visible* hops, and
    ``2.0 * one_way`` at each of them (float64)."""

    src_city_id: int
    src_isp_id: int
    dst_city_id: int
    dst_isp_id: int
    router_ids: np.ndarray
    double_cum: np.ndarray


def hop_template(
    engine: ProbeEngine,
    src_node: Tuple[str, str],
    dst_node: Tuple[str, str],
) -> Union[HopTemplate, bool]:
    """One endpoint pair's template (``False`` = unreachable), from
    :meth:`ProbeEngine.trace`'s visible-hop walk, so ``double_cum[j] +
    noise_j`` is bit-for-bit the scalar RTT."""
    src_isp, src_city = src_node
    dst_isp, dst_city = dst_node
    path = engine.router_path(src_city, src_isp, dst_city, dst_isp)
    if path is None:
        return False
    schema = engine.column_schema()
    visible = list(engine._visible_hops(path))
    return HopTemplate(
        src_city_id=schema.city_index[src_city],
        src_isp_id=schema.isp_index[src_isp],
        dst_city_id=schema.city_index[dst_city],
        dst_isp_id=schema.isp_index[dst_isp],
        router_ids=np.asarray(
            [schema.router_index[node] for node, _ in visible],
            dtype=np.int32,
        ),
        double_cum=np.asarray(
            [double for _, double in visible], dtype=np.float64
        ),
    )


def trace_for_index(
    engine: ProbeEngine,
    plan: _CampaignPlan,
    config: CampaignConfig,
    index: int,
) -> TracerouteRecord:
    """The record for one trace index, independent of all other traces.

    Dispatches on ``config.rng_contract``; under v1 this is the object
    path whose RNG stream ``campaign._v1_batch_rows`` consumes draw
    for draw, under v2 it delegates to :func:`trace_record_v2`.
    """
    if config.rng_contract == 2:
        return trace_record_v2(engine, plan, config, index)
    rng = random.Random(_trace_seed(config.seed, index))
    for endpoints in v1_endpoints(plan, rng):
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
        template = hop_template(
            engine, (src_isp, src_city), (dst_isp, dst_city)
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
    """Fill *store* with one :func:`hop_template` per pair: the scalar
    reference of ``_TemplateStore._build``."""
    counts: List[int] = []
    routers: List[np.ndarray] = [np.zeros(0, dtype=np.int32)]
    cums: List[np.ndarray] = [np.zeros(0, dtype=np.float64)]
    endpoints: List[tuple] = []
    for code in codes.tolist():
        cn, dn = divmod(code, tables.n_dest_nodes)
        template = hop_template(
            engine, tables.client_nodes[cn], tables.dest_nodes[dn]
        )
        if template is False:
            counts.append(-1)
            endpoints.append((0, 0, 0, 0))
            continue
        counts.append(len(template.router_ids))
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
