"""Tests for the city dataset."""

import pytest

from repro.data.cities import (
    CITIES,
    city_by_code,
    city_by_name,
)
from tests.oracles.cities import cities_over


class TestDataset:
    def test_size(self):
        # The paper's map has 273 nodes; the city universe must exceed it.
        assert len(CITIES) >= 273

    def test_keys_unique(self):
        keys = [c.key for c in CITIES]
        assert len(set(keys)) == len(keys)

    def test_codes_unique(self):
        codes = [c.code for c in CITIES]
        assert len(set(codes)) == len(codes)

    def test_coordinates_in_conus(self):
        for city in CITIES:
            assert 24.0 <= city.lat <= 50.0, city.key
            assert -125.0 <= city.lon <= -66.0, city.key

    def test_populations_positive(self):
        assert all(c.population > 0 for c in CITIES)

    def test_paper_cities_present(self):
        # Cities named in the paper's tables and examples must exist.
        for key in (
            "Trenton, NJ", "Edison, NJ", "Kalamazoo, MI", "Battle Creek, MI",
            "Casper, WY", "Billings, MT", "Camp Verde, AZ", "Sedona, AZ",
            "Laurel, MS", "Salt Lake City, UT", "Denver, CO",
            "Wichita Falls, TX", "San Luis Obispo, CA", "Lompoc, CA",
            "Boca Raton, FL", "West Palm Beach, FL", "Charlottesville, VA",
            "Lynchburg, VA", "Gainesville, FL", "Ocala, FL",
        ):
            assert city_by_name(key).key == key


class TestLookups:
    def test_by_key(self):
        assert city_by_name("Denver, CO").state == "CO"

    def test_by_name_and_state(self):
        assert city_by_name("Springfield", "IL").state == "IL"

    def test_ambiguous_name_raises(self):
        with pytest.raises(KeyError):
            city_by_name("Springfield")

    def test_unambiguous_bare_name(self):
        assert city_by_name("Denver").state == "CO"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            city_by_name("Atlantis, XX")

    def test_by_code_roundtrip(self):
        for city in CITIES[:20]:
            assert city_by_code(city.code).key == city.key

    def test_known_codes(self):
        assert city_by_code("slc").key == "Salt Lake City, UT"
        assert city_by_code("dfw").key == "Dallas, TX"
        assert city_by_code("nyc").key == "New York, NY"


class TestQueries:
    def test_cities_over_sorted_descending(self):
        big = cities_over(500000)
        assert all(
            a.population >= b.population for a, b in zip(big, big[1:])
        )
        assert all(c.population >= 500000 for c in big)

    def test_cities_over_contains_nyc(self):
        assert any(c.key == "New York, NY" for c in cities_over(1000000))

    def test_cities_in_states(self):
        texas = [c for c in CITIES if c.state == "TX"]
        assert len(texas) >= 15

    def test_distance_between_cities(self):
        d = city_by_name("Denver, CO").distance_km(
            city_by_name("Salt Lake City, UT")
        )
        assert d == pytest.approx(600, rel=0.05)
