"""Ground-truth routers and the §2 step-3 aligner over NetworkX graphs.

Moved verbatim out of :mod:`repro.fibermap.synthesis`,
:mod:`repro.families.global2023` and :mod:`repro.fibermap.augment`:
each router built a NetworkX copy of the transport network and solved
every link with ``nx.shortest_path``; the aligner copied it per
provider and removed/restored edges to find alternates.  The package
routes every family with one router, ``synthesis._IspRouter``, on a
clone of the network's compiled right-of-way view with its own weight
array, patched in place by the reuse discount, and the aligner masks
edges instead.  The two routers here stay separate, as they were
written: ``IspRouterReference`` is the US family's weighting and
``CableRouterReference`` the global family's (no secondary-grade or
herd terms), each reading its family's :class:`DeploymentRules`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.data.isps import ISPProfile
from repro.families.global2023 import GLOBAL_RULES
from repro.fibermap.augment import (
    _DEFAULT_KIND_PENALTY,
    _EVIDENCE_CONDUIT_DISCOUNT,
    _EVIDENCE_ISP_DISCOUNT,
    _GRADE_PENALTY,
    _KIND_PENALTY,
    DEFAULT_CANDIDATES,
    AlignedPath,
    RowAligner,
)
from repro.fibermap.elements import FiberMap
from repro.fibermap.records import RecordsCorpus
from repro.fibermap.synthesis import (
    SECONDARY_FACTOR_BUILDER,
    SECONDARY_FACTOR_CABLE,
    SECONDARY_FACTOR_LESSEE,
    US_RULES,
    _stable_unit,
)
from repro.transport.network import EdgeKey, TransportationNetwork, canonical_edge


class IspRouterReference:
    """Routes one provider's links over the transport network.

    Edge weights combine geometry length, right-of-way kind preference, a
    provider-specific deterministic jitter (route diversity across
    providers), and a reuse discount that consolidates the provider onto
    its own trunks.
    """

    def __init__(
        self,
        profile: ISPProfile,
        network: TransportationNetwork,
        edges_with_conduits: Set[EdgeKey],
    ):
        self.isp = profile.name
        self.graph = nx.Graph()
        self._base: Dict[EdgeKey, float] = {}
        # Lessees are pulled hard toward edges that already host a conduit
        # (an IRU is far cheaper than trenching); facilities builders are
        # nearly indifferent and lay fiber where their own routing says.
        herd = US_RULES.herd_discount if not profile.builder else 1.0
        if profile.tier == "cable":
            secondary_factor = SECONDARY_FACTOR_CABLE
        elif profile.builder:
            secondary_factor = SECONDARY_FACTOR_BUILDER
        else:
            secondary_factor = SECONDARY_FACTOR_LESSEE
        for record in network.edges():
            kind_factor = min(
                US_RULES.kind_factors[record.kind_of[name]]
                * (secondary_factor if record.grade_of[name] == "secondary" else 1.0)
                for name in record.corridor_names
            )
            jitter = 1.0 + US_RULES.jitter_spread * _stable_unit(
                f"{profile.name}|{record.edge[0]}|{record.edge[1]}"
            )
            weight = record.length_km * kind_factor * jitter
            if record.edge in edges_with_conduits:
                weight *= herd
            self._base[record.edge] = weight
            self.graph.add_edge(record.edge[0], record.edge[1], w=weight)

    def route(self, a_key: str, b_key: str) -> List[str]:
        return nx.shortest_path(self.graph, a_key, b_key, weight="w")

    def mark_used(self, path: List[str]) -> None:
        for a, b in zip(path, path[1:]):
            edge = canonical_edge(a, b)
            base = self._base[edge]
            discounted = base * US_RULES.reuse_discount
            if self.graph[a][b]["w"] > discounted:
                self.graph[a][b]["w"] = discounted


class CableRouterReference:
    """Routes one carrier's links over the cable/backhaul network.

    Weights combine geometry length, medium preference, and a small
    per-carrier jitter; a reuse discount consolidates each carrier onto
    its own lit systems.  With few ocean paths and small jitter, all
    carriers converge on the same passages — the chokepoint effect.
    """

    def __init__(self, isp: str, network: TransportationNetwork):
        self.graph = nx.Graph()
        self._base: Dict[EdgeKey, float] = {}
        for record in network.edges():
            kind_factor = min(
                GLOBAL_RULES.kind_factors[record.kind_of[name]]
                for name in record.corridor_names
            )
            jitter = 1.0 + GLOBAL_RULES.jitter_spread * _stable_unit(
                f"{isp}|{record.edge[0]}|{record.edge[1]}"
            )
            weight = record.length_km * kind_factor * jitter
            self._base[record.edge] = weight
            self.graph.add_edge(record.edge[0], record.edge[1], w=weight)

    def route(self, a_key: str, b_key: str) -> List[str]:
        return nx.shortest_path(self.graph, a_key, b_key, weight="w")

    def mark_used(self, path: List[str]) -> None:
        for a, b in zip(path, path[1:]):
            edge = canonical_edge(a, b)
            discounted = self._base[edge] * GLOBAL_RULES.reuse_discount
            if self.graph[a][b]["w"] > discounted:
                self.graph[a][b]["w"] = discounted


def reference_router(
    profile: ISPProfile,
    network: TransportationNetwork,
    edges_with_conduits: Set[EdgeKey],
    rules,
):
    """The family's NetworkX router, called like ``synthesis._IspRouter``
    (monkeypatch it in to deploy a whole map on the references)."""
    if rules is GLOBAL_RULES:
        return CableRouterReference(profile.name, network)
    return IspRouterReference(profile, network, edges_with_conduits)


class RowAlignerReference(RowAligner):
    """The NetworkX aligner: a per-provider graph copy, and alternates
    found by removing middle edges in place and restoring them after."""

    def __init__(
        self,
        network: TransportationNetwork,
        corpus: Optional[RecordsCorpus] = None,
    ):
        self._network = network
        self._corpus = corpus
        self._base = nx.Graph()
        for record in network.edges():
            weight = record.length_km * min(
                _KIND_PENALTY.get(record.kind_of[name], _DEFAULT_KIND_PENALTY)
                * _GRADE_PENALTY[record.grade_of[name]]
                for name in record.corridor_names
            )
            self._base.add_edge(record.edge[0], record.edge[1], w=weight)
        self._per_isp_cache: Dict[str, nx.Graph] = {}

    # ------------------------------------------------------------------
    def _graph_for(self, isp: str, constructed: Optional[FiberMap]) -> nx.Graph:
        """Evidence-discounted alignment graph for one provider."""
        cached = self._per_isp_cache.get(isp)
        if cached is not None:
            return cached
        graph = self._base.copy()
        if constructed is not None:
            for conduit in constructed.conduits.values():
                a, b = conduit.edge
                if graph.has_edge(a, b):
                    graph[a][b]["w"] *= _EVIDENCE_CONDUIT_DISCOUNT
        if self._corpus is not None:
            for record in self._corpus:
                if isp not in record.tenants:
                    continue
                a, b = record.edge
                if graph.has_edge(a, b):
                    graph[a][b]["w"] *= _EVIDENCE_ISP_DISCOUNT
        self._per_isp_cache[isp] = graph
        return graph

    # ------------------------------------------------------------------
    def candidate_paths(
        self,
        isp: str,
        a_key: str,
        b_key: str,
        constructed: Optional[FiberMap] = None,
        k: int = DEFAULT_CANDIDATES,
    ) -> List[AlignedPath]:
        """Up to *k* candidate ROW paths between two POPs, best first.

        Alternates are generated by re-routing around the middle edges of
        earlier candidates (cheap and deterministic, unlike full k-shortest
        enumeration).
        """
        work = self._graph_for(isp, constructed)
        paths: List[Tuple[str, ...]] = []
        # Block middle edges in place and restore them afterwards:
        # copying the full alignment graph per POP pair dominated the
        # whole construction pipeline.
        removed: List[Tuple[str, str, Dict]] = []
        try:
            for _ in range(k):
                try:
                    path = nx.shortest_path(work, a_key, b_key, weight="w")
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    break
                key = tuple(path)
                if key not in paths:
                    paths.append(key)
                if len(path) < 3:
                    break
                # Remove the middle edge to force a different alternate.
                mid = len(path) // 2
                u, v = path[mid - 1], path[mid]
                if work.has_edge(u, v):
                    removed.append((u, v, dict(work[u][v])))
                    work.remove_edge(u, v)
        finally:
            for u, v, data in removed:
                work.add_edge(u, v, **data)
        results = []
        for city_path in paths:
            length = sum(
                self._network.edge(u, v).length_km
                for u, v in zip(city_path, city_path[1:])
            )
            evidence = 0
            if self._corpus is not None:
                for u, v in zip(city_path, city_path[1:]):
                    edge = canonical_edge(u, v)
                    if any(
                        isp in r.tenants
                        for r in self._corpus.records_for_edge(*edge)
                    ):
                        evidence += 1
            results.append(
                AlignedPath(
                    city_path=city_path,
                    length_km=length,
                    evidence_edges=evidence,
                )
            )
        # Best = most record evidence, then shortest.
        results.sort(key=lambda p: (-p.evidence_edges, p.length_km))
        return results
