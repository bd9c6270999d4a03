"""The typed query layer: the service's single public API surface.

Requests and responses are frozen dataclasses with a versioned JSON
encoding.  Every frontend — the HTTP server, the CLI verbs, and
:meth:`Scenario.query` — speaks exactly these types, so a what-if
answered over HTTP is byte-identical to the same what-if answered from
the command line.

Encoding
--------
A request encodes as ``{"v": 1, "kind": "<kind>", ...fields}``; a
response as ``{"v": 1, "kind": "<kind>.result", ...}``.  ``v`` is the
schema version: :func:`parse_request` rejects any other version, so a
future incompatible change bumps :data:`SCHEMA_VERSION` and old clients
fail loudly instead of silently misparsing.

Validation
----------
:func:`parse_request` checks the envelope (version, kind), field
presence, field types (a float field takes only a finite number), and
rejects unknown fields; semantic checks (positive counts, known
cities/ISPs) live in the handlers.  All failures raise
:class:`QueryError`, which carries a machine-readable ``code``, the
offending ``field`` when there is one, and an HTTP status — the server
renders it as a structured 4xx payload, the CLI as a stderr line.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type

from repro.obs.serialize import to_jsonable

#: The wire-format version; bump on any incompatible encoding change.
SCHEMA_VERSION = 1


class QueryError(Exception):
    """A structured request failure (validation, lookup, dispatch).

    ``code`` is a stable machine-readable slug, ``status`` the HTTP
    status the server responds with, ``field`` the offending request
    field when the failure is tied to one.
    """

    def __init__(
        self,
        code: str,
        message: str,
        field: Optional[str] = None,
        status: int = 400,
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field
        self.status = status

    def to_json(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.field is not None:
            error["field"] = self.field
        return {"v": SCHEMA_VERSION, "kind": "error", "error": error}


def encode_json(payload: Any) -> str:
    """The one canonical JSON rendering, shared by the CLI emitter and
    the HTTP server so their bytes can be compared verbatim."""
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=False)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """Base class: every request kind declares ``kind`` and its fields."""

    kind: ClassVar[str] = ""

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"v": SCHEMA_VERSION, "kind": self.kind}
        for field in dataclasses.fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload


@dataclass(frozen=True)
class CutRequest(QueryRequest):
    """What-if: sever every conduit between two cities (§7 threat model)."""

    kind: ClassVar[str] = "cut"
    city_a: str
    city_b: str
    #: Campaign traces re-traced over the degraded topology (the CLI's
    #: historical sample size).
    max_traces: int = 800


@dataclass(frozen=True)
class AddConduitRequest(QueryRequest):
    """What-if: lay a new conduit between two cities (§5 augmentation)."""

    kind: ClassVar[str] = "add"
    city_a: str
    city_b: str
    #: Conduit length; ``None`` uses the line-of-sight distance.
    length_km: Optional[float] = None


@dataclass(frozen=True)
class AuditRequest(QueryRequest):
    """Shared-risk audit of one provider: ranking plus the §5.1
    robustness suggestion (PI / SRR)."""

    kind: ClassVar[str] = "audit"
    isp: str


@dataclass(frozen=True)
class LatencyRequest(QueryRequest):
    """Shortest-path propagation delay between two cities over the
    collapsed conduit graph.  Distance-type: concurrent requests are
    micro-batched into one Dijkstra solve."""

    kind: ClassVar[str] = "latency"
    city_a: str
    city_b: str


@dataclass(frozen=True)
class RiskSliceRequest(QueryRequest):
    """A slice of the §4 risk matrix: the most-shared conduits, or one
    provider's row statistics."""

    kind: ClassVar[str] = "risk"
    isp: Optional[str] = None
    top: int = 10


@dataclass(frozen=True)
class ExchangeRequest(QueryRequest):
    """The §6.3 jointly funded conduit-exchange plan."""

    kind: ClassVar[str] = "exchange"
    num_conduits: int = 5


@dataclass(frozen=True)
class ExperimentRequest(QueryRequest):
    """Run one registered experiment's declared stage subgraph."""

    kind: ClassVar[str] = "experiment"
    experiment_id: str


REQUEST_TYPES: Dict[str, Type[QueryRequest]] = {
    cls.kind: cls
    for cls in (
        CutRequest,
        AddConduitRequest,
        AuditRequest,
        LatencyRequest,
        RiskSliceRequest,
        ExchangeRequest,
        ExperimentRequest,
    )
}

#: Python types accepted per annotated field type (bool is checked
#: before int: ``True`` is not a valid count).
_FIELD_TYPES: Dict[str, Tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "Optional[str]": (str, type(None)),
    "Optional[float]": (int, float, type(None)),
}


def _check_field(name: str, value: Any, annotation: str) -> Any:
    accepted = _FIELD_TYPES[annotation]
    if isinstance(value, bool) and bool not in accepted:
        raise QueryError(
            "invalid_field",
            f"field {name!r} must be {annotation}, got a bool",
            field=name,
        )
    if not isinstance(value, accepted):
        raise QueryError(
            "invalid_field",
            f"field {name!r} must be {annotation}, "
            f"got {type(value).__name__}",
            field=name,
        )
    if "float" in annotation and value is not None:
        # json.loads reads NaN, Infinity and 1e400 (inf); a huge
        # integer does not fit a float at all.
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise QueryError(
                "invalid_field",
                f"field {name!r} must be a finite number",
                field=name,
            )
    return value


def parse_request(payload: Any) -> QueryRequest:
    """Decode and validate one request payload (see module doc).

    The reserved envelope keys ``v`` and ``kind`` — plus ``scenario``,
    which the server consumes for routing before dispatch — are not
    request fields.  Anything else must match the kind's declared
    fields exactly.
    """
    if not isinstance(payload, Mapping):
        raise QueryError(
            "bad_request",
            f"request must be a JSON object, got {type(payload).__name__}",
        )
    version = payload.get("v", SCHEMA_VERSION)
    # Typed like a field (:func:`_check_field`): ``true`` and ``1.0``
    # compare equal to 1 but are not the integer version.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise QueryError(
            "unsupported_version",
            f"schema version {version!r} not supported "
            f"(this server speaks v{SCHEMA_VERSION})",
            field="v",
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        raise QueryError(
            "bad_request", "request is missing the 'kind' field",
            field="kind",
        )
    request_type = REQUEST_TYPES.get(kind)
    if request_type is None:
        raise QueryError(
            "unknown_kind",
            f"unknown query kind {kind!r}; known: "
            f"{', '.join(sorted(REQUEST_TYPES))}",
            field="kind",
        )
    fields = {f.name: f for f in dataclasses.fields(request_type)}
    unknown = sorted(
        set(payload) - set(fields) - {"v", "kind", "scenario"}
    )
    if unknown:
        raise QueryError(
            "invalid_field",
            f"unknown field(s) for kind {kind!r}: {', '.join(unknown)}",
            field=unknown[0],
        )
    kwargs: Dict[str, Any] = {}
    for name, field in fields.items():
        if name in payload:
            kwargs[name] = _check_field(name, payload[name], field.type)
        elif (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ):
            raise QueryError(
                "missing_field",
                f"kind {kind!r} requires field {name!r}",
                field=name,
            )
    return request_type(**kwargs)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryResponse:
    """Base class; every response renders a versioned JSON document."""

    kind: ClassVar[str] = ""

    def to_json(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class IspCutRow:
    """Per-provider impact of a cut (only providers actually hit)."""

    isp: str
    links_hit: int
    pairs_disconnected: int
    mean_reroute_delay_ms: float


@dataclass(frozen=True)
class CutResponse(QueryResponse):
    kind: ClassVar[str] = "cut.result"

    description: str
    conduits_severed: int
    isps_affected: int
    total_links_hit: int
    total_pairs_disconnected: int
    probes_affected: int
    per_isp: Tuple[IspCutRow, ...]
    affected_fraction: float
    mean_inflation_ms: float
    traces_blackholed: int

    def to_json(self) -> Dict[str, Any]:
        # The nested shape is the CLI's historical `cut --json` body;
        # the envelope (v/kind) is additive.
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "event": {
                "description": self.description,
                "conduits_severed": self.conduits_severed,
            },
            "impact": {
                "isps_affected": self.isps_affected,
                "total_links_hit": self.total_links_hit,
                "total_pairs_disconnected": self.total_pairs_disconnected,
                "probes_affected": self.probes_affected,
                "per_isp": [
                    {
                        "isp": item.isp,
                        "links_hit": item.links_hit,
                        "pairs_disconnected": item.pairs_disconnected,
                        "mean_reroute_delay_ms": item.mean_reroute_delay_ms,
                    }
                    for item in self.per_isp
                ],
            },
            "traffic_shift": {
                "affected_fraction": self.affected_fraction,
                "mean_inflation_ms": self.mean_inflation_ms,
                "traces_blackholed": self.traces_blackholed,
            },
        }


@dataclass(frozen=True)
class AddConduitResponse(QueryResponse):
    kind: ClassVar[str] = "add.result"

    city_a: str
    city_b: str
    length_km: float
    delay_ms: float
    #: Shortest-path delay between the endpoints before the new conduit
    #: (``None`` when previously disconnected).
    baseline_delay_ms: Optional[float]
    #: False when an existing direct conduit is already at least as good.
    improves_map: bool
    #: Cities whose shortest-path distance from ``city_a`` strictly
    #: improves with the new conduit in place.
    cities_improved: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "conduit": {
                "city_a": self.city_a,
                "city_b": self.city_b,
                "length_km": self.length_km,
                "delay_ms": self.delay_ms,
            },
            "baseline_delay_ms": self.baseline_delay_ms,
            "improves_map": self.improves_map,
            "cities_improved": self.cities_improved,
        }


@dataclass(frozen=True)
class AuditResponse(QueryResponse):
    kind: ClassVar[str] = "audit.result"

    isp: str
    average_sharing: float
    rank: int
    ranked_isps: int
    num_conduits: int
    reroutes: int
    avg_path_inflation: float
    avg_shared_risk_reduction: float

    def to_json(self) -> Dict[str, Any]:
        # Historical `audit --json` body plus the envelope.
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "isp": self.isp,
            "average_sharing": self.average_sharing,
            "rank": self.rank,
            "ranked_isps": self.ranked_isps,
            "num_conduits": self.num_conduits,
            "robustness": {
                "reroutes": self.reroutes,
                "avg_path_inflation": self.avg_path_inflation,
                "avg_shared_risk_reduction": self.avg_shared_risk_reduction,
            },
        }


@dataclass(frozen=True)
class LatencyResponse(QueryResponse):
    kind: ClassVar[str] = "latency.result"

    city_a: str
    city_b: str
    reachable: bool
    delay_ms: Optional[float]
    length_km: Optional[float]
    hops: int
    path: Tuple[str, ...]
    conduit_ids: Tuple[str, ...]

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "city_a": self.city_a,
            "city_b": self.city_b,
            "reachable": self.reachable,
            "delay_ms": self.delay_ms,
            "length_km": self.length_km,
            "hops": self.hops,
            "path": list(self.path),
            "conduit_ids": list(self.conduit_ids),
        }


@dataclass(frozen=True)
class RiskConduitRow:
    conduit_id: str
    tenants: int
    city_a: str
    city_b: str


@dataclass(frozen=True)
class RiskSliceResponse(QueryResponse):
    kind: ClassVar[str] = "risk.result"

    #: ``None`` for the whole-matrix slice.
    isp: Optional[str]
    num_conduits: int
    num_isps: int
    top_conduits: Tuple[RiskConduitRow, ...]
    #: Fraction of conduits shared by >= k ISPs (whole-matrix slice).
    sharing_fractions: Tuple[Tuple[int, float], ...] = ()
    #: Provider-row statistics (ISP slice).
    average: Optional[float] = None
    std_error: Optional[float] = None
    p25: Optional[float] = None
    p75: Optional[float] = None
    rank: Optional[int] = None
    ranked_isps: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "isp": self.isp,
            "num_conduits": self.num_conduits,
            "num_isps": self.num_isps,
            "top_conduits": [
                {
                    "conduit_id": row.conduit_id,
                    "tenants": row.tenants,
                    "city_a": row.city_a,
                    "city_b": row.city_b,
                }
                for row in self.top_conduits
            ],
        }
        if self.isp is None:
            payload["sharing_fractions"] = {
                str(k): fraction for k, fraction in self.sharing_fractions
            }
        else:
            payload["row"] = {
                "average": self.average,
                "std_error": self.std_error,
                "p25": self.p25,
                "p75": self.p75,
                "rank": self.rank,
                "ranked_isps": self.ranked_isps,
            }
        return payload


@dataclass(frozen=True)
class ExchangeConduitRow:
    city_a: str
    city_b: str
    length_km: float
    num_members: int
    best_savings_factor: float
    total_gain: float


@dataclass(frozen=True)
class ExchangeResponse(QueryResponse):
    kind: ClassVar[str] = "exchange.result"

    conduits: Tuple[ExchangeConduitRow, ...]

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "conduits": [
                {
                    "city_a": row.city_a,
                    "city_b": row.city_b,
                    "length_km": row.length_km,
                    "num_members": row.num_members,
                    "best_savings_factor": row.best_savings_factor,
                    "total_gain": row.total_gain,
                }
                for row in self.conduits
            ],
        }


@dataclass(frozen=True)
class ExperimentResponse(QueryResponse):
    kind: ClassVar[str] = "experiment.result"

    experiment_id: str
    title: str
    extension: bool
    data: Any
    text: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "extension": self.extension,
            "data": to_jsonable(self.data),
            "text": self.text,
        }
