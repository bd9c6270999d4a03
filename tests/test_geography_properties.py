"""§3 co-location invariants as properties, on both map families.

Over drawn conduits of each family's constructed map, buffer widths and
sample spacings:

* every fraction lies in [0, 1];
* the road-or-rail union is at least each part and at most their sum;
* widening the buffer never lowers any fraction.

The Hypothesis profile is small so tier-1 stays fast.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geo.overlap import overlap_profile

#: Small profile: the session scenarios are shared, so the fixture
#: health check does not apply.
SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _fractions(profile):
    return {
        "road": profile.fraction("road"),
        "rail": profile.fraction("rail"),
        "pipeline": profile.fraction("pipeline"),
        "sea": profile.fraction("sea"),
        "road_or_rail": profile.union("road", "rail"),
        "any": profile.any_fraction,
    }


def _draw_profile(data, scenario):
    """A drawn conduit and spacing, as a function of the buffer width."""
    fiber_map = scenario.constructed_map
    conduit_id = data.draw(st.sampled_from(sorted(fiber_map.conduits)))
    spacing_km = data.draw(st.sampled_from([5.0, 10.0, 25.0]))
    return lambda buffer_km: _fractions(overlap_profile(
        fiber_map.conduit(conduit_id).geometry,
        scenario.network.corridor_index(),
        buffer_km=buffer_km,
        spacing_km=spacing_km,
    ))


@SMALL
@given(data=st.data())
def test_fractions_are_bounded_and_the_union_is_consistent(
    family_scenario, data
):
    buffer_km = data.draw(st.floats(1.0, 60.0))
    fractions = _draw_profile(data, family_scenario)(buffer_km)
    assert all(0.0 <= value <= 1.0 for value in fractions.values())
    road, rail = fractions["road"], fractions["rail"]
    assert max(road, rail) <= fractions["road_or_rail"] <= road + rail


@SMALL
@given(data=st.data())
def test_widening_the_buffer_never_lowers_a_fraction(family_scenario, data):
    narrow = data.draw(st.floats(1.0, 60.0))
    wide = narrow + data.draw(st.floats(0.0, 40.0))
    profile = _draw_profile(data, family_scenario)
    before, after = profile(narrow), profile(wide)
    assert all(after[kind] >= before[kind] for kind in before)
