"""Tests for geolocation, naming-hint decoding, and the conduit overlay."""

import numpy as np
import pytest

from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.columns import TRACE_DTYPE, ColumnSchema, TraceColumns
from repro.traceroute.geolocate import (
    GeolocationDatabase,
    decode_naming_hint,
    resolve_hop_city,
)
from repro.traceroute.overlay import EAST_TO_WEST, WEST_TO_EAST, TrafficOverlay
from repro.traceroute.rngv2 import RNG_CONTRACT_V2
from repro.traceroute.topology import PHANTOM_PROVIDERS
from tests.oracles.overlay import ReferenceTrafficOverlay


class TestNamingHints:
    def test_decode_valid_hint(self):
        assert decode_naming_hint("ae-1.cr1.slc.level3.net") == "Salt Lake City, UT"
        assert decode_naming_hint("ae-3.cr2.dfw.sprint.net") == "Dallas, TX"

    def test_decode_no_hint(self):
        assert decode_naming_hint("cr7.level3.net") is None
        assert decode_naming_hint("weird-name") is None

    def test_decode_unknown_code(self):
        assert decode_naming_hint("ae-1.cr1.zzz9.level3.net") is None


class TestGeolocationDatabase:
    @pytest.fixture(scope="class")
    def database(self, topology):
        return GeolocationDatabase(topology, seed=57)

    def test_covers_all_routers(self, database, topology):
        total = sum(len(topology.routers_of(i)) for i in topology.providers())
        assert len(database) == total

    def test_accuracy_in_expected_band(self, database, topology):
        correct = 0
        total = 0
        for isp in topology.providers():
            for router in topology.routers_of(isp):
                answer = database.locate(router.ip)
                total += 1
                if answer == router.city_key:
                    correct += 1
        assert 0.75 <= correct / total <= 0.95

    def test_near_misses_are_near(self, database, topology):
        from repro.data.cities import city_by_name

        for isp in topology.providers()[:5]:
            for router in topology.routers_of(isp):
                answer = database.locate(router.ip)
                if answer is not None and answer != router.city_key:
                    d = city_by_name(router.city_key).distance_km(
                        city_by_name(answer)
                    )
                    assert d < 200.0

    def test_deterministic_per_ip(self, database, topology):
        again = GeolocationDatabase(topology, seed=57)
        for isp in topology.providers()[:3]:
            for router in topology.routers_of(isp):
                assert database.locate(router.ip) == again.locate(router.ip)

    def test_unknown_ip(self, database):
        assert database.locate("1.2.3.4") is None

    def test_parameter_validation(self, topology):
        with pytest.raises(ValueError):
            GeolocationDatabase(topology, accuracy=0.9, near_miss=0.2)

    def test_resolve_hop_prefers_hint(self, database):
        city = resolve_hop_city("ae-1.cr1.den.xo.net", "1.2.3.4", database)
        assert city == "Denver, CO"


class TestOverlay:
    def test_direction_classification(self):
        direction = ReferenceTrafficOverlay._direction
        assert direction("Seattle, WA", "Miami, FL") == WEST_TO_EAST
        assert direction("Miami, FL", "Seattle, WA") == EAST_TO_WEST

    def test_counts_accumulate(self, overlay):
        traffic = overlay.traffic()
        assert traffic
        for item in traffic.values():
            assert item.total == item.west_to_east + item.east_to_west

    def test_top_conduits_sorted(self, overlay):
        rows = overlay.top_conduits(WEST_TO_EAST, top=10)
        counts = [n for _, n in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(n > 0 for n in counts)

    def test_top_conduits_direction_validation(self, overlay):
        with pytest.raises(ValueError):
            overlay.top_conduits("north_to_south")

    def test_isp_usage_contains_level3_near_top(self, overlay):
        usage = overlay.isp_conduit_usage()
        ranks = [isp for isp, _ in usage]
        assert "Level 3" in ranks[:3]

    def test_effective_tenants_superset(self, overlay, built_map):
        for cid in list(built_map.conduits)[:100]:
            assert built_map.conduit(cid).tenants <= overlay.effective_tenants(cid)

    def test_inferred_disjoint_from_mapped(self, overlay, built_map):
        for cid in list(built_map.conduits)[:100]:
            extra = overlay.inferred_additional_isps(cid)
            assert not (extra & built_map.conduit(cid).tenants)

    def test_phantoms_get_inferred(self, overlay, built_map, topology):
        inferred = set()
        for cid in built_map.conduits:
            inferred |= overlay.inferred_additional_isps(cid)
        assert inferred & set(PHANTOM_PROVIDERS)

    def test_cdf_shifts_right(self, overlay, risk_matrix):
        from repro.risk.metrics import sharing_cdf

        physical = dict(sharing_cdf(risk_matrix))
        with_traffic = dict(overlay.sharing_cdf_with_traffic())
        # At every k, the traffic-overlaid CDF is <= the physical CDF
        # (tenant counts only grow).
        for k, fraction in physical.items():
            assert with_traffic.get(k, 1.0) <= fraction + 1e-9

    def test_unreached_trace_ignored(self, topology, overlay):
        # Two hops, so only the ``reached`` flag keeps it out.
        schema = ColumnSchema.from_topology(topology)
        traces = np.zeros(1, dtype=TRACE_DTYPE)
        traces["reached"] = False
        unreached = TraceColumns(
            schema,
            traces,
            np.array([0, 2], dtype=np.int64),
            np.array([0, 1], dtype=np.int32),
            np.array([1.0, 2.0], dtype=np.float64),
            rng_contract=RNG_CONTRACT_V2,
        )
        before = overlay.traces_processed
        overlay.add_traces(unreached)
        assert overlay.traces_processed == before
