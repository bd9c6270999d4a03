"""Risk-profile similarity via Hamming distance (§4.2, Figure 8).

"Using the risk matrix we calculate the Hamming distance similarity
metric among ISPs, i.e., by comparing every row in the risk matrix to
every other row ... if two ISPs are physically similar (in terms of
fiber deployments and the level of infrastructure sharing), their risk
profiles are also similar."  Smaller distance = greater shared risk
between the pair.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.risk.matrix import RiskMatrix


def hamming_distance(matrix: RiskMatrix, isp_a: str, isp_b: str) -> int:
    """Hamming distance between two ISPs' risk-matrix rows."""
    return int((matrix.row(isp_a) != matrix.row(isp_b)).sum())


def hamming_distance_matrix(matrix: RiskMatrix) -> np.ndarray:
    """Pairwise Hamming distances (Figure 8 heat map), ISP order preserved."""
    rows = np.stack([matrix.row(isp) for isp in matrix.isps])
    return (rows[:, None, :] != rows[None, :, :]).sum(axis=-1).astype(int)


def risk_profile_similarity(matrix: RiskMatrix) -> List[Tuple[str, float]]:
    """ISPs ranked by mean Hamming distance to every other ISP.

    A *large* mean distance means the ISP's physical profile is unlike
    everyone else's (low mutual shared risk); the paper singles out
    EarthLink and Level 3 as exhibiting "fairly low risk profiles".
    """
    distances = hamming_distance_matrix(matrix)
    n = len(matrix.isps)
    result = []
    for i, isp in enumerate(matrix.isps):
        others = [distances[i, j] for j in range(n) if j != i]
        mean = float(np.mean(others)) if others else 0.0
        result.append((isp, mean))
    result.sort(key=lambda pair: (-pair[1], pair[0]))
    return result


def most_similar_pairs(matrix: RiskMatrix, top: int = 5) -> List[Tuple[str, str, int]]:
    """Provider pairs with the smallest Hamming distance (highest mutual risk)."""
    distances = hamming_distance_matrix(matrix)
    pairs = []
    names = matrix.isps
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            pairs.append((names[i], names[j], int(distances[i, j])))
    pairs.sort(key=lambda p: (p[2], p[0], p[1]))
    return pairs[:top]
