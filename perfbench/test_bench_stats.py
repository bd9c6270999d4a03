"""Tests of the benchmark's statistics (run explicitly; not tier-1):

    python3 -m pytest perfbench/test_bench_stats.py
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from run import ROOT, pair_by_seed, seeded_order  # noqa: E402


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (240, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 45, 100, 200, 240, 1000])
def test_reported_tail_has_at_least_ten_samples_beyond(n):
    values = list(range(n))
    p = stats.tail_percentile(n)
    cut = stats.percentile(values, p)
    assert sum(v > cut for v in values) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 201)]
    random.Random(1).shuffle(values)
    assert stats.percentile(values, 50) == 100.0
    assert stats.percentile(values, 95) == 190.0
    assert stats.percentile(values, 100) == 200.0
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- quartiles ----------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [3.1, 2.9, 3.0, 3.4, 2.8, 3.2, 3.3, 3.05, 2.95, 3.15]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_sample():
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.spread([4.0]) == 0.0


# -- open loop, driven by a fake clock ----------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_open_loop_sends_on_schedule_when_the_server_keeps_up():
    clock = FakeClock()

    def send(worker, i):
        clock.now += 0.01  # service time well under the gap
        return True

    log = stats.run_open_loop([0.1, 0.2, 0.3], send, clock, clock.sleep)
    assert [s.due for s in log] == pytest.approx([100.1, 100.2, 100.3])
    assert [s.late for s in log] == pytest.approx([0.0, 0.0, 0.0])
    assert [s.latency for s in log] == pytest.approx([0.01] * 3)


def test_open_loop_charges_a_stall_to_every_request_behind_it():
    clock = FakeClock()
    service = {0: 0.35, 1: 0.01, 2: 0.01, 3: 0.01}

    def send(worker, i):
        clock.now += service[i]
        return i != 3

    log = stats.run_open_loop([0.1, 0.2, 0.3, 0.9], send, clock,
                              clock.sleep)
    # Request 0 finishes at 100.45: requests 1 and 2 go out late, and
    # their latency runs from when they were due, not when they left.
    assert [s.late for s in log] == pytest.approx([0.0, 0.25, 0.16, 0.0])
    assert [s.latency for s in log] == pytest.approx(
        [0.35, 0.26, 0.17, 0.01])
    assert [s.ok for s in log] == [True, True, True, False]


def test_poisson_offsets_are_seeded_and_increasing():
    a = stats.poisson_offsets(random.Random(7), 20.0, 200)
    b = stats.poisson_offsets(random.Random(7), 20.0, 200)
    assert a == b
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 5.0 < a[-1] < 15.0  # 200 arrivals at 20/s take about 10 s


def test_open_loop_with_two_workers_sends_everything_once():
    sent = []

    def send(worker, i):
        sent.append(i)
        return True

    log = stats.run_open_loop([0.0] * 50, send, lambda: 0.0,
                              lambda s: None, workers=2)
    assert sorted(sent) == list(range(50))
    assert [s.index for s in log] == list(range(50))


# -- compare verdicts -----------------------------------------------------
BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_identical_sides_are_unchanged():
    verdict = stats.compare(BASE, list(BASE), "lower", 0.1)
    assert verdict.verdict == stats.UNCHANGED
    assert verdict.wins == 0 and verdict.pairs == 10


def test_consistent_gain_is_improved():
    faster = [v * 0.8 for v in BASE]
    assert stats.compare(BASE, faster, "lower", 0.1).verdict == stats.IMPROVED
    higher = [v * 1.2 for v in BASE]
    assert stats.compare(BASE, higher, "higher", 0.1).verdict == \
        stats.IMPROVED


def test_gain_that_wins_too_few_pairs_is_not_improved():
    change = [v * 0.97 for v in BASE]
    change[0] = change[1] = 11.0  # loses two pairs of ten
    verdict = stats.compare(BASE, change, "lower", 0.1)
    assert verdict.wins == 8
    assert verdict.verdict == stats.UNCHANGED


def test_regression_beyond_the_bound_is_worse():
    slower = [v * 1.15 for v in BASE]
    verdict = stats.compare(BASE, slower, "lower", 0.1)
    assert verdict.verdict == stats.WORSE
    assert verdict.change == pytest.approx(0.15, abs=0.01)
    lower_rate = [v * 0.85 for v in BASE]
    assert stats.compare(BASE, lower_rate, "higher", 0.1).verdict == \
        stats.WORSE


def test_regression_within_the_bound_is_unchanged():
    slower = [v * 1.05 for v in BASE]
    assert stats.compare(BASE, slower, "lower", 0.1).verdict == \
        stats.UNCHANGED


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.5, 12.5, 10.0, 9.5, 10.5]
    verdict = stats.compare(BASE, noisy, "lower", 0.1)
    assert verdict.spread > 0.1
    assert verdict.verdict == stats.UNRESOLVED


def test_wide_spread_resolves_when_every_run_is_better():
    parent = [10.0, 12.0, 11.0, 13.0, 10.5]
    # Every run better, but the medians differ by less than the
    # parent's inter-quartile distance: no gain, yet no doubt either.
    change = [9.0, 9.5, 8.0, 9.9, 8.5]
    verdict = stats.compare(parent, change, "lower", 0.05)
    assert verdict.spread > 0.05
    assert verdict.verdict == stats.UNCHANGED
    much_better = [7.0, 7.5, 6.0, 7.9, 6.5]
    assert stats.compare(parent, much_better, "lower", 0.05).verdict == \
        stats.IMPROVED


def test_pairs_follow_seeds():
    a = [(3, 1.0), (1, 2.0), (2, 3.0)]
    b = [(1, 20.0), (2, 30.0), (4, 40.0)]
    assert pair_by_seed(sorted(a), sorted(b)) == [(2.0, 20.0), (3.0, 30.0)]


# -- inputs and the speed probe -----------------------------------------
def test_seeded_order_is_a_permutation_fixed_by_the_seed():
    ids = spec.EXPERIMENT_IDS
    assert sorted(seeded_order(ids, 3)) == sorted(ids)
    assert seeded_order(ids, 3) == seeded_order(ids, 3)
    assert seeded_order(ids, 3) != seeded_order(ids, 4)


def test_probe_takes_the_median_unit_inside_the_interval():
    samples = [(float(t), 0.002) for t in range(100)]
    samples += [(50.5 + i / 100, 0.004) for i in range(20)]
    assert probe.median_unit(samples, 50.2, 50.9) == 0.004
    assert probe.median_unit(samples, 0.0, 99.0) == 0.002


def test_probe_widens_a_short_interval_to_the_nearest_units():
    samples = [(float(t), 0.001 * t) for t in range(100)]
    # [40, 41] holds two units; the 15 nearest to 40.5 are 33 ... 47.
    assert probe.median_unit(samples, 40.0, 41.0) == pytest.approx(0.040)
    with pytest.raises(RuntimeError):
        probe.median_unit([], 0.0, 1.0)


# -- the manifest -----------------------------------------------------
def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_setup_has_the_largest_bound():
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
