"""Helpers the smoke scripts share: checks, HTTP, and a served registry.

The scripts run as ``python tools/smoke/<name>.py``, which puts this
directory on ``sys.path``, so they import this module by its bare name.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Tuple


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


def query(base: str, scenario, payload: Dict[str, Any]) -> Dict[str, Any]:
    """POST one query; require HTTP 200 and a body byte-identical to
    what the CLI's ``--json`` path emits for the same typed request."""
    from repro.service.schema import encode_json, parse_request

    label = f"{payload.get('scenario', 'default')} {payload['kind']}"
    status, body = request(f"{base}/v1/query", payload)
    check(status == 200, f"{label}: HTTP {status}")
    local = scenario.query(parse_request(payload))
    expected = (encode_json(local.to_json()) + "\n").encode()
    check(body == expected, f"{label}: HTTP body differs from CLI --json")
    return json.loads(body)
