"""Validation and inference helpers for the map-construction pipeline.

These implement the evidence logic of §2.2 and §2.4: ruling out
candidate ROWs ("it may be that we simply need to rule out one or more
ROWs in order to establish sufficient evidence for the path that a fiber
link follows"), and accumulating conduit-sharing evidence from public
records.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from repro.fibermap.records import RecordsCorpus
from repro.transport.network import EdgeKey
from repro.transport.rightofway import RowRegistry


def choose_row_with_evidence(
    edge: EdgeKey,
    isp: str,
    registry: RowRegistry,
    corpus: RecordsCorpus,
) -> Tuple[str, bool]:
    """Pick the right-of-way for an inferred (non-geocoded) link leg.

    Prefers a ROW that a public record documents for this edge — ideally
    one naming *isp* — and falls back to the default candidate ordering
    (road first) when the records are silent.  Returns ``(row_id,
    evidence_backed)``.
    """
    candidates = registry.rows_for_edge(*edge)
    if not candidates:
        raise KeyError(f"no rights-of-way between {edge[0]} and {edge[1]}")
    evidenced_rows = corpus.rows_evidenced(*edge)
    named = [
        r
        for r in corpus.records_for_edge(*edge)
        if isp in r.tenants
    ]
    if named:
        # A record placing this ISP's fiber on a specific ROW is decisive.
        return named[0].row_id, True
    for row in candidates:
        if row.row_id in evidenced_rows:
            return row.row_id, True
    return candidates[0].row_id, False


def tenants_from_records(
    edge: EdgeKey, corpus: RecordsCorpus
) -> FrozenSet[str]:
    """All providers that public records place in conduits on *edge*."""
    return corpus.tenants_evidenced(*edge)


def search_evidence(
    edge: EdgeKey, isp: str, corpus: RecordsCorpus, limit: int = 5
) -> List[str]:
    """Run the paper-style keyword search for one (edge, ISP) question.

    Returns the doc ids of records that both match the query and actually
    concern the edge — the systematic search §2.2 describes, e.g.
    ``"los angeles to san francisco fiber iru at&t sprint"``.
    """
    a, b = edge
    query = f"{a} {b} fiber iru right-of-way {isp}"
    hits = corpus.search(query, limit=limit * 4)
    relevant = [r.doc_id for r, _ in hits if r.edge == edge]
    return relevant[:limit]
