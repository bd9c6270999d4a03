"""Query dispatch: one handler per request kind, shared by every frontend.

:func:`handle_query` is the single code path behind the HTTP server,
the CLI verbs, and :meth:`Scenario.query`: it opens a tracer span,
dispatches on the request's kind, and returns the typed response (or
raises :class:`~repro.service.schema.QueryError`).

Distance-type queries additionally support **micro-batching**: the
substrate's multi-source Dijkstra answers every source of a batch in
one scipy call, so :func:`solve_latency_batch` takes N latency
requests, deduplicates their source cities, runs one solve, and walks
each request's path out of the shared predecessor matrix.  The
:class:`LatencyBatcher` wraps that in group commit for concurrent
server threads: a query that finds the solver free is solved at once,
and queries that arrive while a batch is being solved fold into the
next one — with answers identical to N serial solves, because Dijkstra
rows are independent.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.geo.coords import fiber_delay_ms
from repro.obs.tracer import get_tracer
from repro.perf.substrate import substrate_for
from repro.service.schema import (
    AddConduitRequest,
    AddConduitResponse,
    AuditRequest,
    AuditResponse,
    CutRequest,
    CutResponse,
    ExchangeConduitRow,
    ExchangeRequest,
    ExchangeResponse,
    ExperimentRequest,
    ExperimentResponse,
    IspCutRow,
    LatencyRequest,
    LatencyResponse,
    QueryError,
    QueryRequest,
    QueryResponse,
    RiskConduitRow,
    RiskSliceRequest,
    RiskSliceResponse,
)

#: One latency answer slot: the response, or the per-request failure.
LatencyOutcome = Union[LatencyResponse, QueryError]


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
def _handle_cut(scenario, request: CutRequest) -> CutResponse:
    from repro.resilience import assess_cut, edge_cut, traffic_shift

    if request.max_traces <= 0:
        raise QueryError(
            "invalid_field", "max_traces must be positive",
            field="max_traces",
        )
    fiber_map = scenario.constructed_map
    try:
        event = edge_cut(fiber_map, request.city_a, request.city_b)
    except KeyError as error:
        # str(KeyError) keeps the historical CLI stderr line verbatim.
        raise QueryError("unknown_edge", str(error), status=404)
    impact = assess_cut(fiber_map, event, scenario.overlay)
    shift = traffic_shift(
        scenario.topology, event, scenario.campaign,
        max_traces=request.max_traces,
    )
    return CutResponse(
        description=event.description,
        conduits_severed=event.size,
        isps_affected=impact.isps_affected,
        total_links_hit=impact.total_links_hit,
        total_pairs_disconnected=impact.total_pairs_disconnected,
        probes_affected=impact.probes_affected,
        per_isp=tuple(
            IspCutRow(
                isp=item.isp,
                links_hit=item.links_hit,
                pairs_disconnected=item.pairs_disconnected,
                mean_reroute_delay_ms=item.mean_reroute_delay_ms,
            )
            for item in impact.per_isp
            if item.links_hit > 0
        ),
        affected_fraction=shift.affected_fraction,
        mean_inflation_ms=shift.mean_inflation_ms,
        traces_blackholed=shift.traces_blackholed,
    )


def _handle_audit(scenario, request: AuditRequest) -> AuditResponse:
    from repro.mitigation.robustness import optimize_isp_around_conduits
    from repro.risk.metrics import isp_ranking

    matrix = scenario.risk_matrix
    if request.isp not in matrix.isps:
        raise QueryError(
            "unknown_isp",
            f"unknown ISP {request.isp!r}; known: "
            f"{', '.join(matrix.isps)}",
            field="isp",
            status=404,
        )
    ranking = isp_ranking(matrix)
    position = next(
        i for i, r in enumerate(ranking) if r.isp == request.isp
    )
    row = ranking[position]
    suggestion = optimize_isp_around_conduits(
        scenario.constructed_map, matrix, request.isp
    )
    return AuditResponse(
        isp=request.isp,
        average_sharing=row.average,
        rank=position + 1,
        ranked_isps=len(ranking),
        num_conduits=row.num_conduits,
        reroutes=len(suggestion.outcomes),
        avg_path_inflation=suggestion.avg_pi,
        avg_shared_risk_reduction=suggestion.avg_srr,
    )


def _require_city(fiber_map, key: str, field: str) -> None:
    if key not in fiber_map.nodes:
        raise QueryError(
            "unknown_city",
            f"unknown city {key!r}",
            field=field,
            status=404,
        )


def solve_latency_batch(
    scenario, requests: Sequence[LatencyRequest]
) -> List[LatencyOutcome]:
    """Answer N latency requests with **one** batched Dijkstra solve.

    Sources are deduplicated across the batch, solved in a single
    multi-source call against the collapsed conduit view, and each
    request's path is walked out of the shared predecessor matrix.
    Slot *i* of the result is request *i*'s response — or its
    :class:`QueryError` for per-request failures (unknown city), so one
    bad request never poisons its batch-mates.  A batch of one is
    exactly the serial answer.
    """
    fiber_map = scenario.constructed_map
    outcomes: List[Optional[LatencyOutcome]] = [None] * len(requests)
    valid: List[int] = []
    for i, request in enumerate(requests):
        try:
            _require_city(fiber_map, request.city_a, "city_a")
            _require_city(fiber_map, request.city_b, "city_b")
        except QueryError as error:
            outcomes[i] = error
            continue
        valid.append(i)
    conduits = substrate_for(fiber_map)
    view = conduits.conduit_view()
    sources = [requests[i].city_a for i in valid]
    dist, pred, row_of = view.dijkstra(sources, "length_km")
    for i in valid:
        request = requests[i]
        unreachable = LatencyResponse(
            city_a=request.city_a, city_b=request.city_b,
            reachable=False, delay_ms=None, length_km=None,
            hops=0, path=(), conduit_ids=(),
        )
        row = row_of.get(request.city_a)
        bi = view.index.get(request.city_b)
        ai = view.index.get(request.city_a)
        if row is None or ai is None or bi is None:
            outcomes[i] = unreachable
            continue
        path = view.walk(pred[row], ai, bi)
        if path is None and ai != bi:
            outcomes[i] = unreachable
            continue
        path = path or [ai]
        km = view.path_length(path, "length_km")
        conduit_ids = conduits.path_conduits(view, path)
        outcomes[i] = LatencyResponse(
            city_a=request.city_a,
            city_b=request.city_b,
            reachable=True,
            delay_ms=fiber_delay_ms(km),
            length_km=km,
            hops=len(conduit_ids),
            path=tuple(view.nodes[n] for n in path),
            conduit_ids=conduit_ids,
        )
    return outcomes  # type: ignore[return-value]


def _handle_latency(scenario, request: LatencyRequest) -> LatencyResponse:
    outcome = solve_latency_batch(scenario, [request])[0]
    if isinstance(outcome, QueryError):
        raise outcome
    return outcome


def _handle_add(scenario, request: AddConduitRequest) -> AddConduitResponse:
    fiber_map = scenario.constructed_map
    _require_city(fiber_map, request.city_a, "city_a")
    _require_city(fiber_map, request.city_b, "city_b")
    if request.city_a == request.city_b:
        raise QueryError(
            "invalid_field", "city_a and city_b must differ", field="city_b"
        )
    if request.length_km is not None and request.length_km <= 0:
        raise QueryError(
            "invalid_field", "length_km must be positive", field="length_km"
        )
    if request.length_km is not None:
        length_km = float(request.length_km)
    else:
        length_km = scenario.network.los_km(
            request.city_a, request.city_b
        )
    base = substrate_for(fiber_map).conduit_view()
    ai = base.index[request.city_a]
    dist_before, _, row_of = base.dijkstra([request.city_a], "length_km")
    before = dist_before[row_of[request.city_a]]
    bi = base.index[request.city_b]
    baseline = float(before[bi])
    patched = base.clone()
    improves = patched.upsert_edge(
        request.city_a,
        request.city_b,
        order_weight="length_km",
        weights={
            "risk": 1.0,  # a private new conduit has one tenant
            "length_km": length_km,
        },
        payload={"conduit": -1},
    )
    if improves:
        dist_after, _, row_of = patched.dijkstra(
            [request.city_a], "length_km"
        )
        after = dist_after[row_of[request.city_a]]
        cities_improved = int((after < before).sum())
    else:
        cities_improved = 0
    return AddConduitResponse(
        city_a=request.city_a,
        city_b=request.city_b,
        length_km=length_km,
        delay_ms=fiber_delay_ms(length_km),
        baseline_delay_ms=(
            fiber_delay_ms(baseline) if baseline != float("inf") else None
        ),
        improves_map=improves,
        cities_improved=cities_improved,
    )


def _handle_risk(scenario, request: RiskSliceRequest) -> RiskSliceResponse:
    from repro.risk.metrics import (
        isp_ranking,
        most_shared_conduits,
        sharing_fractions,
    )

    if request.top <= 0:
        raise QueryError(
            "invalid_field", "top must be positive", field="top"
        )
    matrix = scenario.risk_matrix
    fiber_map = scenario.constructed_map

    def conduit_rows(pairs) -> tuple:
        rows = []
        for conduit_id, tenants in pairs:
            a, b = fiber_map.conduits[conduit_id].edge
            rows.append(
                RiskConduitRow(
                    conduit_id=conduit_id,
                    tenants=int(tenants),
                    city_a=a,
                    city_b=b,
                )
            )
        return tuple(rows)

    if request.isp is None:
        return RiskSliceResponse(
            isp=None,
            num_conduits=len(matrix.conduit_ids),
            num_isps=len(matrix.isps),
            top_conduits=conduit_rows(
                most_shared_conduits(matrix, top=request.top)
            ),
            sharing_fractions=tuple(
                sorted(sharing_fractions(matrix).items())
            ),
        )
    if request.isp not in matrix.isps:
        raise QueryError(
            "unknown_isp",
            f"unknown ISP {request.isp!r}; known: "
            f"{', '.join(matrix.isps)}",
            field="isp",
            status=404,
        )
    ranking = isp_ranking(matrix)
    position = next(
        i for i, r in enumerate(ranking) if r.isp == request.isp
    )
    row = ranking[position]
    occupied = sorted(
        matrix.conduits_of(request.isp),
        key=lambda cid: (-matrix.sharing_count(cid), cid),
    )
    return RiskSliceResponse(
        isp=request.isp,
        num_conduits=row.num_conduits,
        num_isps=len(matrix.isps),
        top_conduits=conduit_rows(
            (cid, matrix.sharing_count(cid))
            for cid in occupied[: request.top]
        ),
        average=row.average,
        std_error=row.std_error,
        p25=row.p25,
        p75=row.p75,
        rank=position + 1,
        ranked_isps=len(ranking),
    )


def _handle_exchange(scenario, request: ExchangeRequest) -> ExchangeResponse:
    from repro.mitigation.exchange import plan_exchange

    if request.num_conduits <= 0:
        raise QueryError(
            "invalid_field", "num_conduits must be positive",
            field="num_conduits",
        )
    conduits = plan_exchange(
        scenario.constructed_map,
        scenario.network,
        list(scenario.isps),
        num_conduits=request.num_conduits,
    )
    return ExchangeResponse(
        conduits=tuple(
            ExchangeConduitRow(
                city_a=conduit.edge[0],
                city_b=conduit.edge[1],
                length_km=conduit.length_km,
                num_members=conduit.num_members,
                best_savings_factor=max(
                    member.savings_factor for member in conduit.members
                ),
                total_gain=conduit.total_gain,
            )
            for conduit in conduits
        )
    )


def _handle_experiment(
    scenario, request: ExperimentRequest
) -> ExperimentResponse:
    from repro.experiments import EXPERIMENTS, run_experiment

    if request.experiment_id not in EXPERIMENTS:
        raise QueryError(
            "unknown_experiment",
            f"unknown experiment {request.experiment_id!r}; known: "
            f"{', '.join(sorted(EXPERIMENTS))}",
            field="experiment_id",
            status=404,
        )
    result = run_experiment(request.experiment_id, scenario)
    return ExperimentResponse(
        experiment_id=result.experiment_id,
        title=result.title,
        extension=result.extension,
        data=result.data,
        text=result.text,
    )


_HANDLERS: Dict[str, Callable[[Any, Any], QueryResponse]] = {
    "cut": _handle_cut,
    "add": _handle_add,
    "audit": _handle_audit,
    "latency": _handle_latency,
    "risk": _handle_risk,
    "exchange": _handle_exchange,
    "experiment": _handle_experiment,
}

#: Every dispatchable query kind (the manifest endpoint publishes this).
QUERY_KINDS = tuple(sorted(_HANDLERS))


def handle_query(scenario, request: QueryRequest) -> QueryResponse:
    """Dispatch one typed request against a scenario (any frontend).

    Raises :class:`QueryError` for validation/lookup failures; any
    other exception is a bug, not a client error.  Each query runs in a
    ``service.query.<kind>`` tracer span, so a traced run attributes
    wall time per query kind.
    """
    handler = _HANDLERS.get(request.kind)
    if handler is None:
        raise QueryError(
            "unknown_kind", f"unknown query kind {request.kind!r}",
            field="kind",
        )
    tracer = get_tracer()
    with tracer.span(f"service.query.{request.kind}"):
        return handler(scenario, request)


# ----------------------------------------------------------------------
# The micro-batcher
# ----------------------------------------------------------------------
class _Batch:
    __slots__ = ("requests", "outcomes", "error", "done")

    def __init__(self):
        self.requests: List[LatencyRequest] = []
        self.outcomes: Optional[List[LatencyOutcome]] = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()


class LatencyBatcher:
    """Group-commit batching of concurrent latency queries.

    The first thread to submit into an open batch becomes its leader.
    The leader waits only for the solver: it takes the solve lock,
    which is held while the previous batch is solved, then closes its
    batch, runs :func:`solve_latency_batch` once, and wakes every
    follower with its slot.  A lone query is therefore solved at once,
    and queries that arrive during a solve fold into the next batch.
    Because each Dijkstra row is independent, the batched answers are
    identical to serial ones — batching changes latency and
    throughput, never results.
    """

    def __init__(self, scenario):
        self._scenario = scenario
        #: Guards the open batch and the counters.
        self._lock = threading.Lock()
        #: Held while a batch is solved.  Re-entrant because a leader
        #: closes its batch under it and then calls :meth:`solve`.
        self._solve_lock = threading.RLock()
        self._open: Optional[_Batch] = None
        #: Lifetime counters (served by the manifest endpoint).
        self.batches = 0
        self.requests = 0

    def solve(
        self, requests: Sequence[LatencyRequest]
    ) -> List[LatencyOutcome]:
        """Count and solve one explicit batch, after any solve in
        progress; slot *i* is request *i*'s outcome."""
        with self._solve_lock:
            with self._lock:
                self.batches += 1
                self.requests += len(requests)
            with get_tracer().span(
                "service.latency_batch", size=len(requests)
            ):
                return solve_latency_batch(self._scenario, requests)

    def submit(self, request: LatencyRequest) -> LatencyResponse:
        """Answer one request, possibly batched with concurrent ones."""
        with self._lock:
            batch = self._open
            leader = batch is None
            if leader:
                batch = self._open = _Batch()
            slot = len(batch.requests)
            batch.requests.append(request)
        if leader:
            try:
                with self._solve_lock:
                    with self._lock:
                        self._open = None
                    batch.outcomes = self.solve(batch.requests)
            except BaseException as error:
                batch.error = error
            finally:
                batch.done.set()
        else:
            batch.done.wait()
        if batch.error is not None:
            raise batch.error
        outcome = batch.outcomes[slot]
        if isinstance(outcome, QueryError):
            raise outcome
        return outcome
