"""The traceroute simulator.

Routes a probe across the router-level topology (intra-provider fiber
latencies plus peering penalties), then renders what a measurement host
would actually observe: per-hop IP, reverse-DNS name, and RTT, with MPLS
providers hiding their interior hops and per-hop queueing noise on the
timestamps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.perf.routing import RoutingCore
from repro.traceroute.columns import ColumnSchema
from repro.traceroute.topology import InternetTopology

#: Client access-network delay added to every RTT sample, milliseconds.
ACCESS_DELAY_MS = 4.0
#: Upper bound of uniform per-hop queueing noise, milliseconds.
QUEUE_NOISE_MS = 0.8


@dataclass(frozen=True)
class Hop:
    """One observed traceroute hop."""

    ip: str
    dns_name: str
    rtt_ms: float


@dataclass(frozen=True)
class TracerouteRecord:
    """One complete traceroute observation."""

    src_city: str
    src_isp: str
    dst_city: str
    dst_isp: str
    hops: Tuple[Hop, ...]
    reached: bool

    @property
    def num_hops(self) -> int:
        return len(self.hops)


class ProbeEngine:
    """Simulates traceroutes over an :class:`InternetTopology`.

    Shortest paths and edge latencies come from the topology's compiled
    routing core (:mod:`repro.perf.routing`), whose per-destination
    predecessor rows are cached, so repeated traces re-use each
    Dijkstra.  Campaigns draw their traces in batches instead
    (:mod:`repro.traceroute.campaign`); they share :meth:`column_schema`.  (The NetworkX route walk it
    replaced is the test oracle in ``tests/oracles/probe.py``.)
    """

    def __init__(self, topology: InternetTopology, seed: int = 31):
        self._topology = topology
        self._rng = random.Random(seed)
        self._schema: Optional[ColumnSchema] = None
        self._core: RoutingCore = topology.routing_core()

    # ------------------------------------------------------------------
    def _route(self, src_node: Tuple[str, str], dst_node: Tuple[str, str]):
        return self._core.path(src_node, dst_node)

    def router_path(
        self, src_city: str, src_isp: str, dst_city: str, dst_isp: str
    ) -> Optional[List[Tuple[str, str]]]:
        """The underlying router-node path, or ``None`` if unreachable."""
        if not self._topology.has_router(src_isp, src_city):
            return None
        if not self._topology.has_router(dst_isp, dst_city):
            return None
        return self._route((src_isp, src_city), (dst_isp, dst_city))

    def _visible_hops(
        self, path: Sequence[Tuple[str, str]]
    ) -> Iterator[Tuple[Tuple[str, str], float]]:
        """``(node, 2.0 * one_way)`` for every hop a measurement host sees.

        The one-way latency starts at half the access delay and adds the
        core's edge weights left to right; MPLS providers reveal only
        their ingress and egress routers.
        """
        steps = self._core.edge_weights(path, "ms")
        uses_mpls = self._topology.uses_mpls
        last = len(path) - 1
        one_way = ACCESS_DELAY_MS / 2.0
        for index, node in enumerate(path):
            if index:
                one_way += steps[index - 1]
            isp = node[0]
            if (
                0 < index < last
                and path[index - 1][0] == isp
                and path[index + 1][0] == isp
                and uses_mpls(isp)
            ):
                continue
            yield node, 2.0 * one_way

    # ------------------------------------------------------------------
    def trace(
        self,
        src_city: str,
        src_isp: str,
        dst_city: str,
        dst_isp: str,
        rng: Optional[random.Random] = None,
    ) -> TracerouteRecord:
        """Run one traceroute and render its observable hops.

        *rng* overrides the engine's own noise stream; the campaign
        engine passes a per-trace RNG so that records are independent of
        execution order (serial vs. sharded workers).
        """
        if rng is None:
            rng = self._rng
        path = self.router_path(src_city, src_isp, dst_city, dst_isp)
        hops: List[Hop] = []
        for node, double_one_way in self._visible_hops(path or ()):
            router = self._topology.router(*node)
            rtt = double_one_way + rng.uniform(0.0, QUEUE_NOISE_MS)
            hops.append(Hop(ip=router.ip, dns_name=router.dns_name, rtt_ms=rtt))
        return TracerouteRecord(
            src_city=src_city,
            src_isp=src_isp,
            dst_city=dst_city,
            dst_isp=dst_isp,
            hops=tuple(hops),
            reached=path is not None,
        )

    # ------------------------------------------------------------------
    # Columnar batch path
    # ------------------------------------------------------------------
    def column_schema(self) -> ColumnSchema:
        """The interned string tables of this engine's topology."""
        if self._schema is None:
            self._schema = ColumnSchema.from_topology(self._topology)
        return self._schema
