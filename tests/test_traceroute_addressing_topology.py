"""Tests for the address plan and router-level topology."""

import pytest

from repro.traceroute.addressing import AddressPlan
from repro.traceroute.topology import PHANTOM_PROVIDERS, InternetTopology
from tests.oracles.graphs import topology_graph


class TestAddressPlan:
    def test_register_and_network(self):
        plan = AddressPlan()
        net = plan.register_isp("Alpha")
        assert net.prefixlen == 8
        # Idempotent.
        assert plan.register_isp("Alpha") == net

    def test_addresses_unique(self):
        plan = AddressPlan()
        seen = set()
        for isp in ("A", "B"):
            for city in ("X", "Y", "Z"):
                ip = plan.address_for(isp, city)
                assert ip not in seen
                seen.add(ip)

    def test_lookup_roundtrip(self):
        plan = AddressPlan()
        ip = plan.address_for("Alpha", "Denver, CO")
        assert plan.lookup(ip) == ("Alpha", "Denver, CO")

    def test_router_index_bounds(self):
        plan = AddressPlan()
        with pytest.raises(ValueError):
            plan.address_for("Alpha", "Denver, CO", router=300)

    def test_isps_listed(self):
        plan = AddressPlan()
        plan.register_isp("B")
        plan.register_isp("A")
        assert plan.isps() == ["A", "B"]


class TestTopology:
    def test_real_providers_have_routers(self, topology, ground_truth):
        for isp in ground_truth.fiber_map.isps():
            assert topology.routers_of(isp)

    def test_phantoms_included(self, topology):
        providers = set(topology.providers())
        assert set(PHANTOM_PROVIDERS) <= providers

    def test_router_cities_match_link_endpoints(self, topology, ground_truth):
        fiber_map = ground_truth.fiber_map
        for isp in ["AT&T", "Suddenlink"]:
            endpoints = {
                e for link in fiber_map.links_of(isp) for e in link.endpoints
            }
            assert set(topology.cities_of(isp)) == endpoints

    def test_router_lookup(self, topology):
        router = topology.routers_of("AT&T")[0]
        assert topology.router(router.isp, router.city_key) is router
        by_ip = {r.ip: r for r in topology.routers_of("AT&T")}
        assert by_ip[router.ip] is router

    def test_dns_names_have_provider_slug(self, topology):
        for router in topology.routers_of("Level 3")[:10]:
            assert router.dns_name.endswith(".level3.net")

    def test_hint_encodes_city_code(self, topology):
        from repro.data.cities import city_by_name

        hinted = [r for r in topology.routers_of("Level 3") if r.has_hint]
        assert hinted
        for router in hinted[:10]:
            code = city_by_name(router.city_key).code
            assert f".{code}." in router.dns_name

    def test_some_routers_lack_hints(self, topology):
        all_routers = [
            r for isp in topology.providers() for r in topology.routers_of(isp)
        ]
        fraction = sum(1 for r in all_routers if not r.has_hint) / len(all_routers)
        assert 0.02 < fraction < 0.3

    def test_peering_edges_exist(self, topology):
        graph = topology_graph(topology)
        peerings = [
            (u, v) for u, v, d in graph.edges(data=True)
            if d["kind"] == "peering"
        ]
        assert peerings
        # Peering endpoints share the city.
        for u, v in peerings[:50]:
            assert u[1] == v[1]
            assert u[0] != v[0]

    def test_intra_edges_have_latency(self, topology):
        graph = topology_graph(topology)
        for u, v, d in list(graph.edges(data=True))[:100]:
            assert d["ms"] > 0

    def test_conduits_for_hop(self, topology, ground_truth):
        link = next(iter(ground_truth.fiber_map.links.values()))
        conduits = topology.conduits_for_hop(link.isp, *link.endpoints)
        assert conduits
        for cid in conduits:
            assert cid in ground_truth.fiber_map.conduits

    def test_conduits_for_unknown_hop(self, topology, ground_truth):
        assert topology.conduits_for_hop("AT&T", "Miami, FL", "Seattle, WA") == ()
        # Positive control: one of the same provider's real hops.
        link = next(
            l for l in ground_truth.fiber_map.links.values() if l.isp == "AT&T"
        )
        assert topology.conduits_for_hop("AT&T", *link.endpoints)

    def test_mpls_assignment_deterministic(self, topology, ground_truth):
        again = InternetTopology(ground_truth, seed=topology._rng and 2018)
        # MPLS flags derive from a stable hash, not the seed.
        for isp in ground_truth.fiber_map.isps():
            assert topology.uses_mpls(isp) == again.uses_mpls(isp)

    def test_some_mpls_providers(self, topology):
        flags = [topology.uses_mpls(i) for i in topology.providers()]
        assert any(flags) and not all(flags)
