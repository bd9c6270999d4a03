"""Connectivity-only risk metrics (§4.2).

These drive Figure 6 (number of conduits shared by at least k ISPs and
the 89.67% / 63.28% / 53.50% statistics), Figure 7 (ISPs ranked by the
average number of tenants on their conduits, with standard error and
25th/75th percentiles), and the identification of the most heavily
shared conduits that §5.1 optimizes around.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.risk.matrix import RiskMatrix


def conduits_shared_by_at_least(
    matrix: RiskMatrix, max_k: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Figure 6 series: ``(k, number of conduits shared by >= k ISPs)``.

    ``k`` runs from 1 to the number of ISPs (or *max_k*).
    """
    counts = matrix.sharing_counts()
    top = max_k if max_k is not None else len(matrix.isps)
    return [(k, int((counts >= k).sum())) for k in range(1, top + 1)]


def sharing_fractions(matrix: RiskMatrix, ks: Tuple[int, ...] = (2, 3, 4)) -> Dict[int, float]:
    """Fraction of conduits shared by at least each k (the §4.2 numbers)."""
    counts = matrix.sharing_counts()
    total = max(1, counts.size)
    return {k: float((counts >= k).sum()) / total for k in ks}


def sharing_cdf(matrix: RiskMatrix) -> List[Tuple[int, float]]:
    """CDF of the number of ISPs sharing a conduit (Figure 9, solid line).

    A conduit-free map yields the vacuous single-point CDF ``[(0, 1.0)]``
    rather than crashing on ``counts.max()`` of an empty array.
    """
    counts = np.sort(matrix.sharing_counts())
    if counts.size == 0:
        return [(0, 1.0)]
    total = counts.size
    return [
        (int(k), float((counts <= k).sum()) / total)
        for k in range(0, int(counts.max()) + 1)
    ]


@dataclass(frozen=True)
class IspRankRow:
    """One bar of Figure 7."""

    isp: str
    average: float
    std_error: float
    p25: float
    p75: float
    num_conduits: int


#: One ranking per matrix: a :class:`RiskMatrix` never changes.
_RANKINGS: "weakref.WeakKeyDictionary[RiskMatrix, Tuple[IspRankRow, ...]]" = (
    weakref.WeakKeyDictionary()
)
_RANKINGS_LOCK = threading.Lock()


def isp_ranking(matrix: RiskMatrix) -> Tuple[IspRankRow, ...]:
    """ISPs ranked by increasing average shared risk (Figure 7).

    Computed once per matrix; every caller shares the one (immutable)
    tuple.
    """
    with _RANKINGS_LOCK:
        ranking = _RANKINGS.get(matrix)
    if ranking is None:
        ranking = _rank(matrix)
        with _RANKINGS_LOCK:
            ranking = _RANKINGS.setdefault(matrix, ranking)
    return ranking


def _rank(matrix: RiskMatrix) -> Tuple[IspRankRow, ...]:
    rows = []
    for isp in matrix.isps:
        occupied = matrix.row(isp)
        occupied = occupied[occupied > 0]
        if occupied.size == 0:
            rows.append(IspRankRow(isp, 0.0, 0.0, 0.0, 0.0, 0))
            continue
        average = float(occupied.mean())
        std_error = float(occupied.std(ddof=1) / math.sqrt(occupied.size)) if occupied.size > 1 else 0.0
        p25, p75 = (float(v) for v in np.percentile(occupied, [25, 75]))
        rows.append(
            IspRankRow(
                isp=isp,
                average=average,
                std_error=std_error,
                p25=p25,
                p75=p75,
                num_conduits=int(occupied.size),
            )
        )
    rows.sort(key=lambda r: (r.average, r.isp))
    return tuple(rows)


def most_shared_conduits(matrix: RiskMatrix, top: int = 12) -> List[Tuple[str, int]]:
    """The *top* most heavily shared conduits, ``(conduit_id, tenants)``.

    §5.1 found "12 out of 542 conduits that are shared by more than 17
    out of the 20 ISPs" and optimized around exactly this set.
    """
    counts = matrix.sharing_counts()
    order = np.argsort(-counts, kind="stable")
    return [
        (matrix.conduit_ids[j], int(counts[j])) for j in order[:top]
    ]
