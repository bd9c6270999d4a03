"""The HTTP frontend: stdlib ``ThreadingHTTPServer``, no new deps.

:class:`ServiceApp` is the transport-free application object — route
methods take parsed JSON and return ``(status, payload)`` — so tests
exercise dispatch, batching, and health without sockets.
:func:`make_server` binds it to a ``ThreadingHTTPServer``; each
connection runs on its own thread, which is exactly what lets the
latency micro-batcher observe *concurrent* queries and fold them into
one Dijkstra solve.

Routes
------
``GET  /healthz``       200 once every scenario is warm, 503 before
``GET  /v1/manifest``   service manifest: schema version, query kinds,
                        per-scenario states and counters
``GET  /v1/scenarios``  the scenario table alone
``POST /v1/query``      one typed request; ``"scenario"`` selects the
                        named scenario (default ``"default"``)
``POST /v1/batch``      ``{"requests": [...]}`` — latency requests are
                        solved as one explicit batch per scenario

Response bodies are rendered by the same canonical encoder the CLI
uses, so an HTTP answer is byte-identical to ``repro ... --json``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.tracer import Tracer
from repro.service.handlers import handle_query
from repro.service.registry import ScenarioRegistry
from repro.service.schema import (
    SCHEMA_VERSION,
    LatencyRequest,
    QueryError,
    encode_json,
    parse_request,
)

#: HTTP status -> reason used for error payloads the app itself builds.
_Result = Tuple[int, Dict[str, Any]]


def _scenario_of(payload: Mapping) -> str:
    name = payload.get("scenario", "default")
    if not isinstance(name, str) or not name:
        raise QueryError(
            "invalid_field", "field 'scenario' must be a non-empty string",
            field="scenario",
        )
    return name


class ServiceApp:
    """Transport-free application: routes over a scenario registry."""

    def __init__(
        self,
        registry: ScenarioRegistry,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry
        #: Optional service-level tracer: one recorded span per HTTP
        #: request (``record_span`` is append-only, hence thread-safe
        #: under concurrent handler threads, unlike nested spans).
        self.tracer = tracer
        self.requests = 0
        self.errors = 0
        # Handler threads share these counters (and every entry's
        # ``queries``); ``+=`` is not atomic, so all bumps take the lock.
        self._counter_lock = threading.Lock()

    def _count_queries(self, entry, n: int = 1) -> None:
        with self._counter_lock:
            entry.queries += n

    # -- routes --------------------------------------------------------
    def healthz(self) -> _Result:
        ready = self.registry.ready
        return (200 if ready else 503), {
            "v": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok" if ready else "warming",
            "scenarios": {
                entry.name: entry.state
                for entry in self.registry.entries()
            },
        }

    def manifest(self) -> _Result:
        from repro.service.handlers import QUERY_KINDS

        return 200, {
            "v": SCHEMA_VERSION,
            "kind": "manifest",
            "service": "repro",
            "schema_version": SCHEMA_VERSION,
            "query_kinds": list(QUERY_KINDS),
            "scenarios": self.registry.describe(),
            "requests": self.requests,
            "errors": self.errors,
        }

    def scenarios(self) -> _Result:
        return 200, {
            "v": SCHEMA_VERSION,
            "kind": "scenarios",
            "scenarios": self.registry.describe(),
        }

    def query(self, payload: Any) -> _Result:
        """One typed query, micro-batched when it is distance-type."""
        request = parse_request(payload)
        entry = self.registry.get(_scenario_of(payload))
        if isinstance(request, LatencyRequest):
            response = entry.batcher.submit(request)
        else:
            with entry.lock:
                response = handle_query(entry.scenario, request)
        self._count_queries(entry)
        return 200, response.to_json()

    def batch(self, payload: Any) -> _Result:
        """A client-assembled batch: one Dijkstra solve per scenario
        for its latency members, sequential dispatch for the rest.

        Always 200; each slot carries its own result or structured
        error, so one malformed member never fails the batch.
        """
        if not isinstance(payload, Mapping) or not isinstance(
            payload.get("requests"), list
        ):
            raise QueryError(
                "bad_request",
                "batch body must be {\"requests\": [...]}",
                field="requests",
            )
        items = payload["requests"]
        results: List[Optional[Dict[str, Any]]] = [None] * len(items)
        parsed: Dict[int, LatencyRequest] = {}
        latency: Dict[str, List[int]] = {}
        for i, item in enumerate(items):
            try:
                request = parse_request(item)
                name = _scenario_of(item)
                entry = self.registry.get(name)
            except QueryError as error:
                results[i] = error.to_json()
                continue
            if isinstance(request, LatencyRequest):
                parsed[i] = request
                latency.setdefault(name, []).append(i)
            else:
                try:
                    with entry.lock:
                        results[i] = handle_query(
                            entry.scenario, request
                        ).to_json()
                except QueryError as error:
                    results[i] = error.to_json()
                self._count_queries(entry)
        for name, slots in sorted(latency.items()):
            entry = self.registry.get(name)
            outcomes = entry.batcher.solve([parsed[i] for i in slots])
            for slot, outcome in zip(slots, outcomes):
                results[slot] = outcome.to_json()
            self._count_queries(entry, len(slots))
        return 200, {
            "v": SCHEMA_VERSION,
            "kind": "batch.result",
            "results": results,
        }

    # -- dispatch ------------------------------------------------------
    def handle(
        self, method: str, path: str, body: Optional[bytes]
    ) -> _Result:
        """Route one HTTP request; never raises."""
        started = time.perf_counter()
        with self._counter_lock:
            self.requests += 1
        try:
            status, payload = self._route(method, path, body)
        except QueryError as error:
            status, payload = error.status, error.to_json()
        except Exception as error:  # noqa: BLE001 - boundary
            status = 500
            payload = QueryError(
                "internal", f"{type(error).__name__}: {error}", status=500
            ).to_json()
        if status >= 400:
            with self._counter_lock:
                self.errors += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record_span(
                f"service.http.{method} {path}",
                time.perf_counter() - started,
                status=status,
            )
        return status, payload

    def _route(
        self, method: str, path: str, body: Optional[bytes]
    ) -> _Result:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                return self.healthz()
            if path in ("/manifest", "/v1/manifest"):
                return self.manifest()
            if path == "/v1/scenarios":
                return self.scenarios()
            raise QueryError(
                "not_found", f"no such endpoint: GET {path}", status=404
            )
        if method == "POST":
            try:
                payload = json.loads((body or b"").decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise QueryError(
                    "bad_request", f"request body is not JSON: {error}"
                )
            if path == "/v1/query":
                return self.query(payload)
            if path == "/v1/batch":
                return self.batch(payload)
            raise QueryError(
                "not_found", f"no such endpoint: POST {path}", status=404
            )
        raise QueryError(
            "method_not_allowed", f"method {method} not supported",
            status=405,
        )


class _Handler(BaseHTTPRequestHandler):
    """Thin byte shuffler around :meth:`ServiceApp.handle`."""

    app: ServiceApp  # injected by make_server
    quiet = True
    protocol_version = "HTTP/1.1"
    # A buffered wfile: end_headers() and the body write land in one
    # buffer that handle_one_request() flushes, so a response leaves
    # in one write instead of two.
    wbufsize = -1
    # TCP_NODELAY.  A body larger than the buffer still leaves in two
    # writes; with Nagle's algorithm on, the second waits for the ACK
    # of the first, which a keep-alive client delays by ~40 ms.
    disable_nagle_algorithm = True

    def _respond(self, status: int, payload: Dict[str, Any]) -> None:
        # Same bytes as the CLI's --json output (plus trailing newline).
        body = (encode_json(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._respond(*self.app.handle("GET", self.path, None))

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        self._respond(*self.app.handle("POST", self.path, body))

    def log_message(self, format: str, *args: Any) -> None:
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)


def make_server(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A bound (not yet serving) threading HTTP server for *app*.

    ``port=0`` binds an ephemeral port; read it back from
    ``server.server_address``.  Call ``serve_forever()`` (blocking) or
    drive it from a thread; ``shutdown()`` + ``server_close()`` stop it
    cleanly.
    """
    handler = type("ReproServiceHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
