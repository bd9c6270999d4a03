"""Resilience analysis: what conduit cuts actually do.

The paper defers "different dimensions of network resilience" to future
work (§4) and motivates the threat model with backhoe cuts and natural
disasters (§7).  This subpackage provides that analysis over the
constructed map:

* :mod:`repro.resilience.cuts` — failure specifications: single conduit
  cuts, multi-conduit events (a trench cut severs every tenant at once),
  and geographically correlated disasters;
* :mod:`repro.resilience.impact` — per-provider impact of a cut:
  disconnected POP pairs, latency inflation of rerouted paths, probe
  traffic crossing the cut;
* :mod:`repro.resilience.montecarlo` — random-cut sampling vs targeted
  attacks on the most-shared conduits;
* :mod:`repro.resilience.traffic_shift` — the RTT users feel after a
  cut: the campaign re-traced on the topology's compiled routing core
  with the cut's router adjacencies masked out.
"""

from repro.resilience.cuts import (
    CutEvent,
    conduit_cut,
    disaster_cut,
    edge_cut,
)
from repro.resilience.impact import (
    CutImpact,
    IspImpact,
    assess_cut,
)
from repro.resilience.montecarlo import (
    AttackResult,
    random_cut_study,
    targeted_attack,
)
from repro.resilience.partition import (
    PartitionReport,
    isp_partition_cuts,
    partition_report,
)
from repro.resilience.traffic_shift import (
    TrafficShiftReport,
    dead_edge_mask,
    traffic_shift,
)

__all__ = [
    "CutEvent",
    "conduit_cut",
    "edge_cut",
    "disaster_cut",
    "CutImpact",
    "IspImpact",
    "assess_cut",
    "random_cut_study",
    "targeted_attack",
    "AttackResult",
    "partition_report",
    "PartitionReport",
    "isp_partition_cuts",
    "traffic_shift",
    "TrafficShiftReport",
    "dead_edge_mask",
]
