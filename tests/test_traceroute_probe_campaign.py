"""Tests for the probe engine and campaign generation."""

import pytest

from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.probe import ProbeEngine


@pytest.fixture(scope="module")
def engine(topology):
    return ProbeEngine(topology, seed=31)


class TestProbeEngine:
    @pytest.fixture(scope="class")
    def endpoints(self, topology):
        src_city = topology.cities_of("Comcast")[0]
        dst_city = next(
            c for c in topology.cities_of("Level 3") if c != src_city
        )
        return src_city, dst_city

    def test_trace_reaches(self, engine, endpoints):
        src_city, dst_city = endpoints
        record = engine.trace(src_city, "Comcast", dst_city, "Level 3")
        assert record.reached
        assert record.num_hops >= 2

    def test_first_and_last_hops_belong_to_endpoints(
        self, engine, topology, endpoints
    ):
        src_city, dst_city = endpoints
        record = engine.trace(src_city, "Comcast", dst_city, "Level 3")
        first = topology.router("Comcast", src_city)
        last = topology.router("Level 3", dst_city)
        assert record.hops[0].ip == first.ip
        assert record.hops[-1].ip == last.ip

    def test_rtts_nondecreasing_modulo_noise(self, engine, endpoints):
        src_city, dst_city = endpoints
        record = engine.trace(src_city, "Comcast", dst_city, "Level 3")
        for a, b in zip(record.hops, record.hops[1:]):
            assert b.rtt_ms >= a.rtt_ms - 1.0

    def test_unreachable_when_no_router(self, engine):
        record = engine.trace(
            "Pierre, SD", "Suddenlink", "Dallas, TX", "Level 3"
        )
        # Suddenlink has no POP in Pierre, SD (south-central style).
        assert not record.reached
        assert record.hops == ()

    def test_router_path_cached_and_consistent(self, engine):
        first = engine.router_path(
            "Portland, OR", "Comcast", "Dallas, TX", "Level 3"
        )
        second = engine.router_path(
            "Portland, OR", "Comcast", "Dallas, TX", "Level 3"
        )
        assert first == second

    def test_mpls_hides_interior(self, engine, topology):
        # Find an MPLS provider with a long intra path and verify fewer
        # visible hops than router-path nodes of that provider.
        mpls_isps = [i for i in topology.providers() if topology.uses_mpls(i)]
        assert mpls_isps
        isp = "Level 3" if "Level 3" in mpls_isps else mpls_isps[0]
        cities = topology.cities_of(isp)
        record = engine.trace(cities[0], isp, cities[-1], isp)
        if record.reached:
            path = engine.router_path(cities[0], isp, cities[-1], isp)
            interior = [n for n in path[1:-1] if n[0] == isp]
            visible = len(record.hops)
            assert visible <= len(path)


class TestCampaign:
    def test_count_and_determinism(self, topology):
        config = CampaignConfig(num_traces=200, seed=5)
        first = run_campaign(topology, config)
        second = run_campaign(topology, config)
        assert len(first) == 200
        assert [
            (r.src_city, r.dst_city, r.src_isp, r.dst_isp) for r in first
        ] == [
            (r.src_city, r.dst_city, r.src_isp, r.dst_isp) for r in second
        ]

    def test_all_reached(self, topology):
        records = run_campaign(topology, CampaignConfig(num_traces=100, seed=9))
        assert all(r.reached for r in records)

    def test_client_isps_respected(self, topology):
        config = CampaignConfig(num_traces=100, seed=9)
        records = run_campaign(topology, config)
        allowed = {i for i, _ in config.client_isps}
        assert {r.src_isp for r in records} <= allowed

    def test_dest_isps_respected(self, topology):
        config = CampaignConfig(num_traces=100, seed=9)
        records = run_campaign(topology, config)
        allowed = {i for i, _ in config.dest_isps}
        assert {r.dst_isp for r in records} <= allowed

    def test_level3_dominant_destination(self, topology):
        from collections import Counter

        records = run_campaign(topology, CampaignConfig(num_traces=500, seed=9))
        counts = Counter(r.dst_isp for r in records)
        assert counts.most_common(1)[0][0] == "Level 3"

    def test_invalid_providers_rejected(self, topology):
        config = CampaignConfig(
            num_traces=10,
            client_isps=(("Nonexistent", 1.0),),
            dest_isps=(("AlsoFake", 1.0),),
        )
        with pytest.raises(ValueError):
            run_campaign(topology, config)
