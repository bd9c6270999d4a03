"""The risk matrix of §4.1.

Rows are ISPs and columns are physical conduits; the entry for
(ISP, conduit) is the number of ISPs sharing that conduit when the ISP
is a tenant, and 0 otherwise — exactly the counting scheme the paper
walks through with its Level 3 / Sprint example.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.fibermap.elements import FiberMap


class RiskMatrix:
    """ISP × conduit shared-risk matrix.

    Built from a fiber map's tenancy; immutable once constructed.  The
    provider order defaults to the map's sorted provider list so that
    heat maps and rankings are stable across runs.
    """

    def __init__(self, fiber_map: FiberMap, isps: Optional[Sequence[str]] = None):
        self._isps: Tuple[str, ...] = (
            tuple(isps) if isps is not None else tuple(fiber_map.isps())
        )
        self._conduit_ids: Tuple[str, ...] = tuple(sorted(fiber_map.conduits))
        self._isp_index: Dict[str, int] = {
            name: i for i, name in enumerate(self._isps)
        }
        self._conduit_index: Dict[str, int] = {
            cid: j for j, cid in enumerate(self._conduit_ids)
        }
        tenancy = fiber_map.tenancy()
        self._tenants: Tuple[FrozenSet[str], ...] = tuple(
            frozenset(t for t in tenancy[cid] if t in self._isp_index)
            for cid in self._conduit_ids
        )
        # Vectorized scatter: one (row, col) index pair per tenancy
        # entry, assigned in a single fancy-indexed store.  Produces the
        # same bytes as the original per-cell double loop (golden-hash
        # pinned) at a fraction of the cost on paper-scale maps.
        matrix = np.zeros((len(self._isps), len(self._conduit_ids)), dtype=int)
        rows: List[int] = []
        cols: List[int] = []
        counts: List[int] = []
        for j, tenants in enumerate(self._tenants):
            count = len(tenants)
            for isp in tenants:
                rows.append(self._isp_index[isp])
                cols.append(j)
                counts.append(count)
        if rows:
            matrix[rows, cols] = counts
        self._matrix = matrix
        self._matrix.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def isps(self) -> Tuple[str, ...]:
        return self._isps

    @property
    def conduit_ids(self) -> Tuple[str, ...]:
        return self._conduit_ids

    @property
    def values(self) -> np.ndarray:
        """The underlying (read-only) integer matrix."""
        return self._matrix

    @property
    def shape(self) -> Tuple[int, int]:
        return self._matrix.shape

    # ------------------------------------------------------------------
    def sharing_count(self, conduit_id: str) -> int:
        """Number of (tracked) ISPs sharing one conduit."""
        return len(self._tenants[self._conduit_index[conduit_id]])

    def sharing_counts(self) -> np.ndarray:
        """Vector of tenant counts per conduit (column order)."""
        return np.array([len(t) for t in self._tenants], dtype=int)

    def row(self, isp: str) -> np.ndarray:
        """One ISP's row of shared-risk values."""
        return self._matrix[self._isp_index[isp]]

    def conduits_of(self, isp: str) -> List[str]:
        """Conduit ids where *isp* is a tenant."""
        row = self.row(isp)
        return [
            self._conduit_ids[j] for j in np.nonzero(row)[0]
        ]
