"""Scenario multiverse: grid sweeps over scenarios × optimizer drivers.

* :mod:`repro.sweep.grid` — ``KEY=SPEC`` axis parsing and cartesian
  expansion into frozen :class:`~repro.sweep.grid.SweepCell`\\ s.
* :mod:`repro.sweep.orchestrator` — process-pool fan-out with shared
  artifact-cache dedup, per-cell manifests, a per-sweep manifest.
* :mod:`repro.sweep.summary` — streaming columnar accumulator +
  cross-scenario aggregates (sharing, SRR, gain per driver).

The CI smoke tier lives outside the package, in
``tools/smoke/sweep_smoke.py``.
"""

from repro.sweep.grid import SweepCell, expand_grid, parse_grid
from repro.sweep.orchestrator import SweepResult, run_sweep
from repro.sweep.summary import SweepSummary

__all__ = [
    "SweepCell",
    "expand_grid",
    "parse_grid",
    "run_sweep",
    "SweepResult",
    "SweepSummary",
]
