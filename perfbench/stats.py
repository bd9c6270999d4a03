"""Order statistics, open-loop accounting and the compare verdict.

Pure functions (plus one clock-injected open-loop sender), so
``test_bench_stats.py`` can pin them without a server or a scenario.
"""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Candidate percentiles, highest first, for :func:`tail_percentile`.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A report needs this many samples beyond a percentile to show it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p: float, n: int) -> int:
    # Rounded first so that 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it among
    *n* samples (``None`` when even the median lacks ten)."""
    for p in _TAILS:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def poisson_offsets(rng, rate: float, count: int) -> List[float]:
    """Due times (seconds after the phase start) of *count* Poisson
    arrivals at *rate* per second, drawn from *rng* (``random.Random``)."""
    offsets, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


@dataclass
class Sent:
    """One open-loop request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Measured from the due time, so a stalled generator's wait
        counts against the system, not in its favour."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int, int], bool],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    workers: int = 1,
) -> List[Sent]:
    """Send request *i* at ``start + offsets[i]`` from *workers* senders.

    ``send(worker, i)`` performs request *i* on the worker's own
    connection and returns whether it succeeded.  A sender that is still
    busy when its next request falls due sends it late; the lateness is
    recorded, never hidden.  With one worker everything runs on the
    calling thread, which is what lets a fake clock drive it in tests.
    """
    start = clock()
    lock = threading.Lock()
    cursor = [0]
    log: List[Sent] = []

    def loop(worker: int) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(offsets):
                    return
                cursor[0] += 1
            due = start + offsets[i]
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            ok = send(worker, i)
            done = clock()
            with lock:
                log.append(Sent(i, due, sent, done, ok))

    if workers <= 1:
        loop(0)
    else:
        threads = [
            threading.Thread(target=loop, args=(w,), daemon=True)
            for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    log.sort(key=lambda s: s.index)
    return log


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
IMPROVED, UNCHANGED, WORSE, UNRESOLVED = (
    "improved", "unchanged", "worse", "unresolved"
)

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    verdict: str
    change: float  # signed share of A's median; positive means worse
    wins: int
    pairs: int
    spread: float


def compare(
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: float,
    pairs: Optional[Sequence[Tuple[float, float]]] = None,
) -> Verdict:
    """Judge side *b* (the change) against side *a* (the parent).

    * improved: *b* wins at least nine tenths of the pairs (ties count
      for neither) and the medians differ, in the better direction, by
      more than *a*'s inter-quartile distance;
    * unresolved: either side's spread exceeds *bound*, unless every
      run of *b* reads better than every run of *a*;
    * worse: *b*'s median is worse than *a*'s by more than *bound*;
    * unchanged: otherwise.

    *pairs* defaults to ``zip(a, b)``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    change = sign * (med_b - med_a) / abs(med_a) if med_a else math.inf
    pairs = list(pairs if pairs is not None else zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    widest = max(spread(a), spread(b))
    if sign > 0:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and change < 0
        and abs(med_b - med_a) > (q3a - q1a)
    ):
        outcome = IMPROVED
    elif widest > bound and not all_better:
        outcome = UNRESOLVED
    elif change > bound:
        outcome = WORSE
    else:
        outcome = UNCHANGED
    return Verdict(outcome, change, wins, len(pairs), widest)
