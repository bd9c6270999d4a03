"""The machine-speed probe, and the scaling of times to a reference speed.

The shared 2-vCPU host this benchmark was written on changes speed by a
third and more within minutes: the 10-second medians of a fixed
pure-Python loop differed by 40 %, and the measured program slows with
it.  Process CPU time slows too, so the lost time is not reported as
steal and no clock inside the guest leaves it out.

So a run starts this file as a second process that repeats one fixed
unit of pure-Python work (dict and integer operations, as the program's
graph code does) every ``PERIOD_S`` seconds and logs how much CPU time
each repetition took.  A time the benchmark measures over an interval
can then be reported at the reference speed: multiplied by
``REFERENCE_S`` over the median probe unit in that interval (``run.py``
says which times are).  The probe uses about a tenth of one CPU, the
same in every run, and measures in CPU time, so the measured processes
competing with it for a CPU do not lengthen its units.

Usage (started and stopped by ``run.py``): ``python3 probe.py LOG``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import List, Sequence, Tuple

#: Pause between two probe units.
PERIOD_S = 0.025
#: A probe unit's CPU time at the reference speed (about its time on an
#: uncontended core of the machine the bounds were set on).
REFERENCE_S = 0.002
#: An interval with fewer probe units than this borrows the nearest
#: units outside it.
MIN_UNITS = 15


def unit() -> int:
    """One fixed piece of work: integer arithmetic and dict traffic."""
    table = {}
    total = 0
    for i in range(8000):
        key = (i * 7919) % 1021
        total += table.get(key, i) ^ (i << 3)
        table[key] = total & 0xFFFF
    return total


def median_unit(samples: Sequence[Tuple[float, float]], start: float,
                end: float) -> float:
    """The median CPU time of the ``(end time, CPU seconds)`` probe units
    that ended within ``[start, end]``, or of the ``MIN_UNITS`` units
    nearest to the interval's middle when it holds fewer."""
    inside = [c for t, c in samples if start <= t <= end]
    if len(inside) < MIN_UNITS:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
        inside = [c for _, c in nearest[:MIN_UNITS]]
    if not inside:
        raise RuntimeError("the speed probe logged nothing")
    return median(inside)


def main(log: str) -> None:
    with open(log, "w") as out:
        while True:
            started = time.thread_time()
            unit()
            cpu = time.thread_time() - started
            out.write(f"{time.monotonic():.6f} {cpu:.7f}\n")
            out.flush()
            time.sleep(PERIOD_S)


class Probe:
    """The probe process of one run."""

    def __init__(self, log: Path, env: dict):
        self.log = log
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), str(log)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self._samples: List[Tuple[float, float]] = []

    def wait_started(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.samples()) < MIN_UNITS:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.05)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def samples(self) -> List[Tuple[float, float]]:
        """``(end time, CPU seconds)`` of every unit logged so far."""
        if self.log.exists():
            with open(self.log) as handle:
                lines = handle.read().splitlines()
            # The last line may be half written.
            self._samples = [
                (float(t), float(c)) for t, c in
                (line.split() for line in lines[:-1])
            ]
        return self._samples

    def unit_s(self, start: float, end: float) -> float:
        """The median probe unit over ``[start, end]``."""
        return median_unit(self.samples(), start, end)

    def scale(self, start: float, end: float) -> float:
        """What a time measured over ``[start, end]`` is multiplied by to
        read at the reference speed."""
        return REFERENCE_S / self.unit_s(start, end)


if __name__ == "__main__":
    main(sys.argv[1])
