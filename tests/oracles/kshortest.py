"""The array-walk Yen the compiled ``yen`` call replaced.

Moved out of :class:`repro.perf.substrate.GraphView`: K shortest simple
paths enumerated in Python, one masked scipy Dijkstra per spur node
over the view's cached solver matrix.  The package asks
:meth:`~repro.perf.substrate.GraphView.k_shortest_paths` for one
:func:`scipy.sparse.csgraph.yen` call instead; the parity suite
(``tests/test_k_shortest.py``) requires the two, and
``networkx.shortest_simple_paths``, to give the same lengths.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Tuple

import numpy as np

from repro.perf.substrate import GraphView


def shortest_simple_paths(
    view: GraphView, a_key: str, b_key: str, weight: str
) -> Iterator[Tuple[List[int], float]]:
    """Simple paths in non-decreasing length, like
    ``networkx.shortest_simple_paths``.

    Yields ``(node_index_path, length)`` with the length recomputed
    edge-by-edge in path order by :meth:`GraphView.path_length`.
    """
    first = view.shortest_path(a_key, b_key, weight)
    if first is None:
        raise KeyError(f"no path between {a_key} and {b_key}")
    accepted: List[List[int]] = []
    candidates: List[Tuple[float, int, Tuple[int, ...]]] = []
    seen: set = set()
    counter = 0
    heapq.heappush(
        candidates,
        (view.path_length(first, weight), counter, tuple(first)),
    )
    seen.add(tuple(first))
    while candidates:
        length, _, path_t = heapq.heappop(candidates)
        path = list(path_t)
        accepted.append(path)
        yield path, length
        # Spur from every node of the just-accepted path.
        for i in range(len(path) - 1):
            root = path[: i + 1]
            masked = np.ones(view.num_edges, dtype=bool)
            # Edges used by accepted paths sharing this root prefix.
            for prev in accepted:
                if prev[: i + 1] == root and len(prev) > i + 1:
                    idx = view.edge_index(
                        view.nodes[prev[i]], view.nodes[prev[i + 1]]
                    )
                    if idx is not None:
                        masked[idx] = False
            # Nodes of the root (except the spur node) are off-limits.
            if i > 0:
                banned = np.zeros(view.num_nodes, dtype=bool)
                banned[root[:-1]] = True
                masked &= ~(banned[view.eu] | banned[view.ev])
            spur = view.shortest_path(
                view.nodes[root[-1]], b_key, weight, edge_mask=masked
            )
            if spur is None:
                continue
            candidate = tuple(root[:-1] + spur)
            if candidate in seen:
                continue
            seen.add(candidate)
            counter += 1
            heapq.heappush(
                candidates,
                (view.path_length(candidate, weight), counter, candidate),
            )


def alternative_paths_mean_km_reference(
    view: GraphView,
    a: str,
    b: str,
    best_km: float,
    max_paths: int,
    slack: float,
) -> float:
    """``mitigation.latency._alternative_paths_mean_km`` on the
    array-walk enumeration, stopping it lazily as the package once did."""
    lengths: List[float] = []
    for _path, km in shortest_simple_paths(view, a, b, "length_km"):
        if km > best_km * slack and lengths:
            break
        lengths.append(km)
        if len(lengths) >= max_paths:
            break
    return sum(lengths) / len(lengths)
