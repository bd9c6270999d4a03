"""Risk-aware routing: SRLG-disjoint primary/backup path planning.

§6.1 points out that "widespread and sometimes significant conduit
sharing complicates the task of identifying and configuring backup
paths since these critical details are often opaque to higher layers".
With the conduit map those details stop being opaque: this subpackage
treats each right-of-way as a shared-risk link group (SRLG) and plans
backup paths that avoid the primary's risk groups.
"""

from repro.routing.backup import BackupPlan, plan_backup, protection_report
from repro.routing.opacity import OpacityCase, OpacityStudy, check_pair, opacity_study
from repro.routing.pareto import ParetoPath, pareto_paths
from repro.routing.srlg import (
    path_srlgs,
    shared_srlgs,
    srlg_of_conduit,
)

__all__ = [
    "srlg_of_conduit",
    "path_srlgs",
    "shared_srlgs",
    "plan_backup",
    "protection_report",
    "BackupPlan",
    "pareto_paths",
    "ParetoPath",
    "check_pair",
    "opacity_study",
    "OpacityCase",
    "OpacityStudy",
]
