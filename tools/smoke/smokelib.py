"""Helpers the smoke scripts share: checks, HTTP, and a served registry.

The scripts run as ``python tools/smoke/<name>.py``, which puts this
directory on ``sys.path``, so they import this module by its bare name.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Median round trip a keep-alive connection must beat.  A server that
#: leaves Nagle's algorithm on stalls every answer on the client's
#: delayed ACK (~40 ms on Linux); one that sets TCP_NODELAY answers a
#: latency query in a few ms.
KEEP_ALIVE_MEDIAN_S = 0.020


def request(url: str, payload: Any = None) -> Tuple[int, bytes]:
    req = urllib.request.Request(
        url,
        data=(
            None if payload is None
            else json.dumps(payload).encode("utf-8")
        ),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class KeepAliveClient:
    """Requests over one persistent HTTP/1.1 connection, each timed.

    :func:`request` opens a fresh connection per call and so never sees
    what a keep-alive client (a load balancer, a benchmark) sees.
    """

    def __init__(self, base: str):
        parts = urllib.parse.urlsplit(base)
        self._connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=60
        )
        #: Seconds per round trip, in request order.
        self.round_trips: List[float] = []

    def request(self, path: str, payload: Any) -> Tuple[int, bytes]:
        body = json.dumps(payload).encode("utf-8")
        started = time.perf_counter()
        self._connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self._connection.getresponse()
        data = response.read()
        self.round_trips.append(time.perf_counter() - started)
        return response.status, data

    def close(self) -> None:
        self._connection.close()


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


@contextlib.contextmanager
def serving(registry) -> Iterator[str]:
    """Serve *registry* on an ephemeral localhost port, yield its base
    URL, and require a clean shutdown afterwards."""
    from repro.service.server import ServiceApp, make_server

    server = make_server(
        ServiceApp(registry, tracer=None), host="127.0.0.1", port=0
    )
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    check(not thread.is_alive(), "server thread did not stop")
    print("smoke: clean shutdown ok")


def query(
    base: str, scenario, payload: Dict[str, Any],
    client: Optional[KeepAliveClient] = None,
) -> Dict[str, Any]:
    """POST one query (on *client*'s connection when given, else a
    fresh one); require HTTP 200 and a body byte-identical to what the
    CLI's ``--json`` path emits for the same typed request."""
    from repro.service.schema import encode_json, parse_request

    label = f"{payload.get('scenario', 'default')} {payload['kind']}"
    if client is None:
        status, body = request(f"{base}/v1/query", payload)
    else:
        status, body = client.request("/v1/query", payload)
    check(status == 200, f"{label}: HTTP {status}")
    local = scenario.query(parse_request(payload))
    expected = (encode_json(local.to_json()) + "\n").encode()
    check(body == expected, f"{label}: HTTP body differs from CLI --json")
    return json.loads(body)
