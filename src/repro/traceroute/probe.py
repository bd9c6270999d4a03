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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.perf.routing import RoutingCore
from repro.traceroute.columns import ColumnSchema, ColumnWriter
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


@dataclass(frozen=True)
class _HopTemplate:
    """The deterministic part of every trace between one endpoint pair.

    For a fixed (source node, destination node) the router path, MPLS
    visibility, and accumulated one-way latencies never change — only
    the per-hop queueing noise does.  Caching them as arrays turns the
    per-trace work of the columnar path into endpoint draws plus one
    noise draw per visible hop; both this and :meth:`ProbeEngine.trace`
    read the same visible-hop walk, so ``double_cum[j] + noise_j`` is
    bit-for-bit the scalar RTT.
    """

    src_city_id: int
    src_isp_id: int
    dst_city_id: int
    dst_isp_id: int
    #: Schema router ids of the *visible* hops.
    router_ids: np.ndarray
    #: ``2.0 * one_way`` at each visible hop (float64).
    double_cum: np.ndarray


class ProbeEngine:
    """Simulates traceroutes over an :class:`InternetTopology`.

    Shortest paths and edge latencies come from the topology's compiled
    routing core (:mod:`repro.perf.routing`), whose per-destination
    predecessor rows are cached, so large campaigns re-use each
    Dijkstra across thousands of traces.  (The NetworkX route walk it
    replaced is the test oracle in ``tests/oracles/probe.py``.)
    """

    def __init__(self, topology: InternetTopology, seed: int = 31):
        self._topology = topology
        self._rng = random.Random(seed)
        #: (src_node, dst_node) -> template, or False when unreachable.
        self._hop_templates: Dict[
            Tuple[Tuple[str, str], Tuple[str, str]],
            Union[_HopTemplate, bool],
        ] = {}
        self._schema: Optional[ColumnSchema] = None
        self._core: RoutingCore = topology.routing_core()

    # ------------------------------------------------------------------
    def prepare_destinations(self, dst_nodes) -> int:
        """Batch one Dijkstra over every new destination."""
        return self._core.prepare(dst_nodes)

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

    def begin_columns(self, expected_traces: int = 0) -> ColumnWriter:
        """A fresh shard writer bound to this topology's schema."""
        return ColumnWriter(
            self.column_schema(), expected_traces,
            noise_scale=QUEUE_NOISE_MS,
        )

    def _hop_template(
        self, src_node: Tuple[str, str], dst_node: Tuple[str, str]
    ) -> Union[_HopTemplate, bool]:
        """Cached per-endpoint-pair hop arrays (False = unreachable).

        Runs :meth:`trace`'s visible-hop walk once per endpoint pair and
        freezes the result as arrays.  Campaigns revisit pairs heavily
        (a 20k campaign already has fewer distinct pairs than traces),
        so at paper scale almost every trace is a cache hit.
        """
        key = (src_node, dst_node)
        template = self._hop_templates.get(key)
        if template is not None:
            return template
        src_isp, src_city = src_node
        dst_isp, dst_city = dst_node
        path = self.router_path(src_city, src_isp, dst_city, dst_isp)
        if path is None:
            self._hop_templates[key] = False
            return False
        schema = self.column_schema()
        visible = list(self._visible_hops(path))
        template = _HopTemplate(
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
        self._hop_templates[key] = template
        return template

    def trace_into(
        self,
        writer: ColumnWriter,
        src_city: str,
        src_isp: str,
        dst_city: str,
        dst_isp: str,
        rng: random.Random,
    ) -> bool:
        """Columnar :meth:`trace`: append one trace's columns to *writer*.

        Returns whether the destination was reached; an unreachable pair
        appends nothing and draws nothing, exactly like :meth:`trace`'s
        empty record.  The RNG consumption (one draw per visible hop,
        in hop order) matches :meth:`trace` draw for draw — raw
        ``random()`` values here, scaled by ``QUEUE_NOISE_MS`` in the
        writer's vectorized finish, equal ``uniform(0.0,
        QUEUE_NOISE_MS)`` bit for bit — which is what keeps columnar
        campaigns byte-identical to the object path.
        """
        template = self._hop_template(
            (src_isp, src_city), (dst_isp, dst_city)
        )
        if template is False:
            return False
        draw = rng.random
        writer.append(
            template.src_city_id,
            template.src_isp_id,
            template.dst_city_id,
            template.dst_isp_id,
            template.router_ids,
            template.double_cum,
            [draw() for _ in template.router_ids],
        )
        return True
