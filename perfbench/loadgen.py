"""Drive the what-if server: start it, generate queries, run the phases.

Load comes from this one process over at most two keep-alive
connections, each owned by one thread.  Queries are drawn by a seeded
generator from the served scenario's own tables: the cities and conduit
edges come from one ``risk`` query answered before timing starts, the
ISPs from the us2015 provider table.
"""

from __future__ import annotations

import hashlib
import http.client
import importlib.util
import json
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import poisson_offsets, run_open_loop

monotonic = time.monotonic

#: Connections (and threads) the generator uses in every phase.
CLIENTS = 2
#: Distinct latency city pairs; phases (a) and (b) draw from this pool.
LATENCY_POOL = 48
#: Phase (b): open-loop Poisson arrivals.
OPEN_RATE = 20.0
OPEN_REQUESTS = 200
#: Phase (c): the closed-loop mix, by kind.
MIXED_REQUESTS = 200
MIX = (("risk", 0.4), ("add", 0.3), ("audit", 0.2), ("cut", 0.1))

HEALTH_POLL_S = 0.02


class ServerError(RuntimeError):
    """The server did not come up, or died."""


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cmd: List[str], cwd: Path, env: Dict[str, str],
                 log: Path):
        self._log = open(log, "w")
        self.spawned = monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.port: Optional[int] = None
        #: Health polls, and the 503 answers among them (the server counts
        #: both in its request and error counters).
        self.health_polls = 0
        self.warming_polls = 0

    def wait_ready(self, timeout: float) -> float:
        """Seconds from spawn until ``/healthz`` answered 200."""
        deadline = self.spawned + timeout
        self.port = self._read_port(deadline)
        client = Client(self.port)
        try:
            while True:
                if self.proc.poll() is not None:
                    raise ServerError(f"server exited {self.proc.returncode}")
                status, _ = client.request("GET", "/healthz")
                self.health_polls += 1
                if status == 200:
                    return monotonic() - self.spawned
                self.warming_polls += status == 503
                if monotonic() > deadline:
                    raise ServerError("server not healthy in time")
                time.sleep(HEALTH_POLL_S)
        finally:
            client.close()

    def _read_port(self, deadline: float) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while monotonic() < deadline:
                if not selector.select(timeout=0.1):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise ServerError(
                        f"server exited {self.proc.wait()} before binding")
                if "http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        raise ServerError("server did not print its address in time")

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then kill if it lingers."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, timeout: float = 30.0):
        self._port = port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 when the exchange failed."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=self._timeout)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body, headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def query(self, body: bytes) -> Tuple[int, bytes]:
        return self.request("POST", "/v1/query", body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ----------------------------------------------------------------------
# The query generator
# ----------------------------------------------------------------------
def provider_names(src: Path) -> List[str]:
    """The us2015 provider names, read from the data table module alone
    (it imports nothing from the package, so the heavy package import
    stays out of the load generator)."""
    name = "_perfbench_isps"
    spec = importlib.util.spec_from_file_location(
        name, src / "repro" / "data" / "isps.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve fields through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.isp_names()


def discover(client: Client) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Every conduit endpoint city and conduit edge of the scenario."""
    status, body = client.query(canonical({"kind": "risk", "top": 1 << 20}))
    if status != 200:
        raise ServerError(f"discovery query failed with {status}")
    rows = json.loads(body)["top_conduits"]
    edges = sorted({(r["city_a"], r["city_b"]) for r in rows})
    cities = sorted({city for edge in edges for city in edge})
    return cities, edges


def canonical(payload: Dict) -> bytes:
    return json.dumps({"v": 1, **payload}, sort_keys=True).encode()


@dataclass
class Queries:
    """The seeded request lists of the three phases."""

    latency_pool: List[bytes]
    open_offsets: List[float]
    open_requests: List[bytes]
    mixed: List[bytes]


def generate(seed: int, cities: Sequence[str],
             edges: Sequence[Tuple[str, str]],
             isps: Sequence[str]) -> Queries:
    rng = random.Random(f"perfbench-whatif-{seed}")
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < LATENCY_POOL:
        pair = tuple(rng.sample(list(cities), 2))
        if pair not in pairs:
            pairs.append(pair)
    pool = [
        canonical({"kind": "latency", "city_a": a, "city_b": b})
        for a, b in pairs
    ]
    offsets = poisson_offsets(rng, OPEN_RATE, OPEN_REQUESTS)
    open_requests = [rng.choice(pool) for _ in range(OPEN_REQUESTS)]
    kinds = [
        kind for kind, share in MIX
        for _ in range(round(share * MIXED_REQUESTS))
    ]
    rng.shuffle(kinds)
    mixed = []
    for kind in kinds:
        if kind == "risk":
            isp = rng.choice(list(isps) + [None])
            payload = {"kind": "risk"} if isp is None else {
                "kind": "risk", "isp": isp}
        elif kind == "add":
            a, b = rng.sample(list(cities), 2)
            payload = {"kind": "add", "city_a": a, "city_b": b}
        elif kind == "audit":
            payload = {"kind": "audit", "isp": rng.choice(list(isps))}
        else:
            a, b = rng.choice(list(edges))
            payload = {"kind": "cut", "city_a": a, "city_b": b}
        mixed.append(canonical(payload))
    return Queries(pool, offsets, open_requests, mixed)


# ----------------------------------------------------------------------
# The phases
# ----------------------------------------------------------------------
@dataclass
class Answer:
    phase: str
    request: bytes
    status: int
    digest: str
    body: bytes
    sent: float
    done: float
    latency: float


@dataclass
class Phase:
    name: str
    start: float
    end: float
    answers: List[Answer] = field(default_factory=list)
    late: List[float] = field(default_factory=list)


def body_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:16]


def _answer(phase: str, request: bytes, reply: Tuple[int, bytes],
            sent: float, done: float, due: Optional[float] = None) -> Answer:
    status, body = reply
    return Answer(phase, request, status, body_digest(body), body, sent,
                  done, done - (sent if due is None else due))


def _threads(target: Callable[[int], None]) -> None:
    threads = [threading.Thread(target=target, args=(k,), daemon=True)
               for k in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop_for(port: int, pool: Sequence[bytes],
                    seconds: float) -> Phase:
    """Phase (a): each client sends pool queries back to back."""
    phase = Phase("a", monotonic(), 0.0)
    deadline = phase.start + seconds
    lock = threading.Lock()

    def run(k: int) -> None:
        client = Client(port)
        i = k * len(pool) // CLIENTS
        try:
            while monotonic() < deadline:
                request = pool[i % len(pool)]
                i += 1
                sent = monotonic()
                reply = client.query(request)
                answer = _answer("a", request, reply, sent, monotonic())
                with lock:
                    phase.answers.append(answer)
        finally:
            client.close()

    _threads(run)
    phase.end = max((a.done for a in phase.answers), default=monotonic())
    return phase


def open_loop(port: int, offsets: Sequence[float],
              requests: Sequence[bytes]) -> Phase:
    """Phase (b): requests sent on a Poisson schedule, timed from their
    due time."""
    clients = [Client(port) for _ in range(CLIENTS)]
    replies: Dict[int, Tuple[int, bytes]] = {}

    def send(worker: int, i: int) -> bool:
        replies[i] = clients[worker].query(requests[i])
        return replies[i][0] == 200

    start = monotonic()
    try:
        log = run_open_loop(offsets, send, monotonic, time.sleep,
                            workers=CLIENTS)
    finally:
        for client in clients:
            client.close()
    phase = Phase("b", start, max(s.done for s in log))
    for s in log:
        phase.answers.append(_answer(
            "b", requests[s.index], replies[s.index], s.sent, s.done,
            due=s.due))
        phase.late.append(s.late)
    return phase


def closed_loop_list(port: int, requests: Sequence[bytes]) -> Phase:
    """Phase (c): the mixed list, each client taking the next request."""
    phase = Phase("c", monotonic(), 0.0)
    lock = threading.Lock()
    cursor = [0]

    def run(k: int) -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                sent = monotonic()
                reply = client.query(requests[i])
                answer = _answer("c", requests[i], reply, sent, monotonic())
                with lock:
                    phase.answers.append(answer)
        finally:
            client.close()

    _threads(run)
    phase.end = max(a.done for a in phase.answers)
    return phase


def manifest_counters(port: int) -> Dict[str, float]:
    client = Client(port)
    try:
        status, body = client.request("GET", "/v1/manifest")
    finally:
        client.close()
    if status != 200:
        raise ServerError(f"manifest request failed with {status}")
    manifest = json.loads(body)
    entry = manifest["scenarios"]["default"]
    return {
        "requests": manifest["requests"],
        "errors": manifest["errors"],
        "latency_batches": entry["latency_batches"],
        "latency_batched_requests": entry["latency_batched_requests"],
    }
