"""The always-on what-if service: one typed query API, three frontends.

This package turns the batch analyses into an interactive tool (the
Xaminer direction in PAPERS.md): a long-lived server holds warm
:class:`~repro.scenario.Scenario` objects — stage graph plus the
constructed map's :class:`~repro.perf.substrate.ConduitSubstrate`, the
one compiled copy every query kind shares (via
:func:`~repro.perf.substrate.substrate_for`) — resident in memory and
answers what-if queries in milliseconds instead of re-running a cold
script per question.

The layers, bottom-up:

* :mod:`repro.service.schema` — frozen request/response dataclasses
  with a versioned JSON encoding and structured validation errors.
  This is the single public query API: the same typed request answers
  identically whether it arrives over HTTP, from the CLI (``repro cut``
  / ``audit`` / ``latency`` / ``exchange``), or programmatically via
  :meth:`Scenario.query`.
* :mod:`repro.service.handlers` — the dispatcher mapping each request
  kind to its analysis, including the micro-batcher that folds
  concurrent city-pair latency queries into **one** batched Dijkstra
  solve against the substrate.
* :mod:`repro.service.render` — the human-readable renderings the CLI
  prints (byte-identical to the pre-service output).
* :mod:`repro.service.registry` — named scenarios (seed/config
  variants) served side by side, each with its own lock, warm-up state,
  and latency batcher.
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  frontend (``python -m repro serve``) with ``/healthz``, a manifest
  endpoint, and ``/v1/query`` / ``/v1/batch``.

The self-contained CI smoke run lives outside the package, in
``tools/smoke/service_smoke.py``.
"""

from repro.service.handlers import QUERY_KINDS, handle_query, solve_latency_batch
from repro.service.registry import ScenarioEntry, ScenarioRegistry
from repro.service.schema import (
    SCHEMA_VERSION,
    AddConduitRequest,
    AddConduitResponse,
    AuditRequest,
    AuditResponse,
    CutRequest,
    CutResponse,
    ExchangeRequest,
    ExchangeResponse,
    ExperimentRequest,
    ExperimentResponse,
    LatencyRequest,
    LatencyResponse,
    QueryError,
    RiskSliceRequest,
    RiskSliceResponse,
    encode_json,
    parse_request,
)
from repro.service.server import ServiceApp, make_server

__all__ = [
    "SCHEMA_VERSION",
    "QUERY_KINDS",
    "QueryError",
    "parse_request",
    "encode_json",
    "handle_query",
    "solve_latency_batch",
    "CutRequest",
    "CutResponse",
    "AddConduitRequest",
    "AddConduitResponse",
    "AuditRequest",
    "AuditResponse",
    "LatencyRequest",
    "LatencyResponse",
    "RiskSliceRequest",
    "RiskSliceResponse",
    "ExchangeRequest",
    "ExchangeResponse",
    "ExperimentRequest",
    "ExperimentResponse",
    "ScenarioRegistry",
    "ScenarioEntry",
    "ServiceApp",
    "make_server",
]
