"""Tests for the four-step map-construction pipeline (§2)."""

from repro.data.isps import STEP1_ISPS, STEP3_ISPS
from repro.fibermap.pipeline import MapConstructionPipeline


class TestTable1:
    def test_table1_matches_paper_exactly(self, construction_report):
        expected = {
            "AT&T": (25, 57), "Comcast": (26, 71), "Cogent": (69, 84),
            "EarthLink": (248, 370), "Integra": (27, 36),
            "Level 3": (240, 336), "Suddenlink": (39, 42),
            "Verizon": (116, 151), "Zayo": (98, 111),
        }
        assert len(construction_report.table1) == 9
        for row in construction_report.table1:
            nodes, links = expected[row.isp]
            assert row.num_nodes == nodes
            assert row.num_links == links

    def test_step2_map_has_1258_links(self, construction_report):
        # The paper's initial map: 1258 links across 9 providers.
        step2 = next(
            s for s in construction_report.snapshots if s.step == 2
        )
        assert step2.stats.num_links == 1258


class TestSnapshots:
    def test_four_snapshots(self, construction_report):
        assert [s.step for s in construction_report.snapshots] == [1, 2, 3, 4]

    def test_counts_monotone(self, construction_report):
        snaps = construction_report.snapshots
        for before, after in zip(snaps, snaps[1:]):
            assert after.stats.num_links >= before.stats.num_links
            assert after.stats.num_conduits >= before.stats.num_conduits
            assert after.stats.num_nodes >= before.stats.num_nodes

    def test_final_links_2411(self, construction_report):
        assert construction_report.snapshots[-1].stats.num_links == 2411


class TestConstructedMap:
    def test_all_20_providers_present(self, built_map):
        names = {p.name for p in STEP1_ISPS + STEP3_ISPS}
        assert set(built_map.isps()) == names

    def test_conduit_paths_valid(self, built_map):
        from repro.transport.network import canonical_edge

        for link in list(built_map.links.values())[:300]:
            for (a, b), cid in zip(
                zip(link.city_path, link.city_path[1:]), link.conduit_ids
            ):
                assert built_map.conduit(cid).edge == canonical_edge(a, b)

    def test_no_duplicate_conduits_per_row(self, built_map):
        seen = set()
        for conduit in built_map.conduits.values():
            key = (conduit.edge, conduit.row_id)
            assert key not in seen
            seen.add(key)


class TestAccuracy:
    def test_conduit_recall_high(self, construction_report):
        assert construction_report.accuracy.conduit_recall >= 0.9

    def test_conduit_precision_high(self, construction_report):
        assert construction_report.accuracy.conduit_precision >= 0.85

    def test_tenancy_recall_reasonable(self, construction_report):
        assert construction_report.accuracy.tenancy_recall >= 0.8

    def test_tenancy_precision_high(self, construction_report):
        assert construction_report.accuracy.tenancy_precision >= 0.85

    def test_step3_alignment_useful(self, construction_report):
        # POP-only alignment cannot be perfect, but must beat chance by far.
        assert construction_report.accuracy.step3_path_exact >= 0.4

    def test_validation_counts_positive(self, construction_report, built_map):
        assert (
            0
            < construction_report.validated_conduits
            <= built_map.stats().num_conduits
        )
        assert construction_report.inferred_tenancies > 0


class TestPipelineMechanics:
    def test_run_is_deterministic(self, ground_truth):
        first, _ = MapConstructionPipeline(ground_truth).run()
        second, _ = MapConstructionPipeline(ground_truth).run()
        assert first.stats() == second.stats()
        assert first.tenancy() == second.tenancy()

    def test_corpus_and_maps_exposed(self, ground_truth):
        pipeline = MapConstructionPipeline(ground_truth)
        assert len(pipeline.provider_maps) == 20
        assert len(pipeline.corpus) > 0
