"""Property-based fuzzing over randomly generated small fiber maps.

The scenario tests exercise one (big) map; these generate many small
arbitrary maps and check the library's structural invariants on all of
them: serialization round-trips, risk-matrix consistency, annotation
coverage, and graph-view agreement.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.cities import CITIES
from repro.fibermap.annotate import annotate_map
from repro.fibermap.elements import FiberMap
from repro.fibermap.serialization import fiber_map_from_dict, fiber_map_to_dict
from repro.geo.polyline import Polyline
from repro.perf.substrate import substrate_for
from repro.risk.matrix import RiskMatrix
from repro.risk.metrics import conduits_shared_by_at_least, sharing_cdf

_CITY_KEYS = [c.key for c in CITIES[:40]]
_ISP_NAMES = ["Alpha", "Beta", "Gamma", "Delta"]


def _build_random_map(seed: int) -> FiberMap:
    """A small deterministic-from-seed random fiber map."""
    rng = random.Random(seed)
    fiber_map = FiberMap()
    num_conduits = rng.randint(2, 10)
    cities = rng.sample(_CITY_KEYS, min(len(_CITY_KEYS), num_conduits + 2))
    conduit_ids = []
    # A chain of conduits guarantees link paths exist.
    for a, b in zip(cities, cities[1:]):
        from repro.data.cities import city_by_name

        geometry = Polyline(
            [city_by_name(a).location, city_by_name(b).location]
        )
        conduit = fiber_map.add_conduit(a, b, f"row:{a}--{b}", geometry)
        conduit_ids.append((a, b, conduit.conduit_id))
    # Random links over sub-chains.
    for _ in range(rng.randint(1, 8)):
        isp = rng.choice(_ISP_NAMES)
        start = rng.randrange(len(conduit_ids))
        end = rng.randrange(start, len(conduit_ids))
        span = conduit_ids[start:end + 1]
        path = [span[0][0]] + [s[1] for s in span]
        fiber_map.add_link(isp, path, [s[2] for s in span])
    return fiber_map


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip_fuzz(seed):
    original = _build_random_map(seed)
    restored = fiber_map_from_dict(fiber_map_to_dict(original))
    assert restored.stats() == original.stats()
    assert restored.tenancy() == original.tenancy()
    for link_id, link in original.links.items():
        assert restored.link(link_id).city_path == link.city_path


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_risk_matrix_invariants_fuzz(seed):
    fiber_map = _build_random_map(seed)
    matrix = RiskMatrix(fiber_map, isps=_ISP_NAMES)
    values = matrix.values
    for j, conduit_id in enumerate(matrix.conduit_ids):
        tenants = fiber_map.conduit(conduit_id).tenants & set(_ISP_NAMES)
        column = values[:, j]
        # Every nonzero entry equals the column's tenant count.
        assert all(v == len(tenants) for v in column[column > 0])
        assert (column > 0).sum() == len(tenants)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_sharing_series_consistency_fuzz(seed):
    fiber_map = _build_random_map(seed)
    matrix = RiskMatrix(fiber_map, isps=_ISP_NAMES)
    series = dict(conduits_shared_by_at_least(matrix))
    cdf = dict(sharing_cdf(matrix))
    total = len(matrix.conduit_ids)
    # CDF(k) + (share of conduits with > k tenants) == 1 for every k.
    for k, count_ge in series.items():
        count_gt = series.get(k + 1, 0)
        if k in cdf:
            assert cdf[k] == pytest.approx(1.0 - count_gt / total)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_annotation_coverage_fuzz(seed):
    fiber_map = _build_random_map(seed)
    annotated = annotate_map(fiber_map)
    assert len(annotated) == fiber_map.stats().num_conduits
    for annotation in annotated.annotations:
        conduit = fiber_map.conduit(annotation.conduit_id)
        assert annotation.tenants == conduit.num_tenants
        assert annotation.delay_ms >= 0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_graph_views_agree_fuzz(seed):
    fiber_map = _build_random_map(seed)
    conduits = substrate_for(fiber_map)
    view = conduits.conduit_view()
    rows = {
        tuple(sorted(pair)) for pair in zip(conduits.cu.tolist(), conduits.cv.tolist())
    }
    # Parallel conduits collapse: one edge per pair that has a conduit.
    assert set(zip(view.eu.tolist(), view.ev.tolist())) == rows
    assert view.num_edges == len(rows) <= conduits.num_conduits
    assert conduits.num_conduits == fiber_map.stats().num_conduits
    # Each pair's edge is a least-shared conduit between its endpoints.
    for edge, row in enumerate(view.payload["conduit"].tolist()):
        a, b = fiber_map.conduit(conduits.cids[row]).edge
        assert view.edge_index(a, b) == edge
        assert view.weights["risk"][edge] == min(
            c.num_tenants for c in fiber_map.conduits_between(a, b)
        )
