"""Tests for validation helpers and POP-only link alignment."""

import pytest

from repro.fibermap.augment import RowAligner
from repro.fibermap.records import generate_records
from repro.fibermap.validate import (
    choose_row_with_evidence,
    search_evidence,
    tenants_from_records,
)


@pytest.fixture(scope="module")
def corpus(ground_truth):
    return generate_records(ground_truth, seed=11)


class TestEvidence:
    def test_choose_row_prefers_named_record(self, ground_truth, corpus):
        record = next(iter(corpus))
        isp = record.tenants[0]
        row_id, backed = choose_row_with_evidence(
            record.edge, isp, ground_truth.registry, corpus
        )
        assert backed
        assert row_id == record.row_id

    def test_choose_row_without_evidence_falls_back(self, ground_truth):
        from repro.fibermap.records import RecordsCorpus

        empty = RecordsCorpus([])
        edge = next(iter(ground_truth.fiber_map.conduits.values())).edge
        row_id, backed = choose_row_with_evidence(
            edge, "AT&T", ground_truth.registry, empty
        )
        assert not backed
        candidates = ground_truth.registry.rows_for_edge(*edge)
        assert row_id == candidates[0].row_id

    def test_tenants_from_records(self, ground_truth, corpus):
        record = next(iter(corpus))
        tenants = tenants_from_records(record.edge, corpus)
        assert set(record.tenants) <= tenants

    def test_search_evidence_finds_docs(self, ground_truth, corpus):
        record = next(iter(corpus))
        docs = search_evidence(record.edge, record.tenants[0], corpus)
        assert record.doc_id in docs


class TestRowAligner:
    @pytest.fixture(scope="class")
    def aligner(self, network, corpus):
        return RowAligner(network, corpus)

    def test_best_path_connects(self, aligner):
        best = aligner.best_path("AT&T", "Denver, CO", "Chicago, IL")
        assert best is not None
        assert best.city_path[0] == "Denver, CO"
        assert best.city_path[-1] == "Chicago, IL"
        assert best.length_km > 0

    def test_candidates_are_distinct(self, aligner):
        candidates = aligner.candidate_paths(
            "AT&T", "Seattle, WA", "Miami, FL", k=3
        )
        paths = [c.city_path for c in candidates]
        assert len(set(paths)) == len(paths)
        assert 1 <= len(paths) <= 3

    def test_evidence_sorting(self, aligner):
        candidates = aligner.candidate_paths(
            "Level 3", "Denver, CO", "Salt Lake City, UT", k=3
        )
        keys = [(-c.evidence_edges, c.length_km) for c in candidates]
        assert keys == sorted(keys)

    def test_adjacent_cities_single_hop(self, aligner):
        best = aligner.best_path("AT&T", "Provo, UT", "Salt Lake City, UT")
        assert best.num_hops == 1

    def test_cache_invalidation(self, aligner, network, corpus):
        # The cached per-provider view answers as a fresh aligner does.
        warm = aligner.best_path("Sprint", "Denver, CO", "Chicago, IL")
        cold = RowAligner(network, corpus).best_path(
            "Sprint", "Denver, CO", "Chicago, IL"
        )
        assert warm is not None
        assert cold == warm
