"""The default map family: the paper's US long-haul fiber map.

A thin registration around :func:`repro.fibermap.synthesis.
synthesize_ground_truth` — the synthesis, datasets, and stage behavior
are exactly the pre-registry code path, so the goldens are
byte-identical through the registry.
"""

from __future__ import annotations

from repro.families.base import MapFamily, register_family
from repro.fibermap.synthesis import synthesize_ground_truth

US2015 = register_family(MapFamily(
    name="us2015",
    title="US long-haul fiber map (InterTubes, SIGCOMM 2015)",
    description=(
        "The paper's universe: 20 providers deploying fiber along US "
        "road/rail/pipeline rights-of-way, reverse-engineered via the "
        "§2 construction pipeline."
    ),
    geographic_model="corridor-right-of-way",
    risk_semantics="shared-conduit",
    synthesize=synthesize_ground_truth,
    row_kinds=(("road", "rail"),),
    experiments=None,  # the paper's own map supports every experiment
    default_seed=2015,
))
