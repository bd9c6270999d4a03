"""The public-records corpus: the paper's under-utilized data sources.

§2.2 enumerates the document taxonomy the authors mined: government
agency filings, environmental impact statements, indefeasible-right-of-
use (IRU) agreements, franchise agreements, press releases, class-action
settlements over railroad rights-of-way, and state DOT project
documents.  We synthesize a corpus of such documents about the ground
truth — each document reveals a conduit's location (its right-of-way)
and *some* of its tenants — plus a keyword search engine over it, since
the paper's method is literally web search ("los angeles to san
francisco fiber iru at&t sprint").
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.data.cities import city_by_name
from repro.fibermap.synthesis import GroundTruth
from repro.transport.network import EdgeKey, canonical_edge

#: Document kinds, mirroring §2.2's source taxonomy.
RECORD_KINDS = (
    "agency_filing",
    "environmental_impact",
    "iru_agreement",
    "franchise_agreement",
    "press_release",
    "row_settlement",
    "dot_project",
)

#: Probability that a conduit is covered by at least one public record.
DEFAULT_COVERAGE = 0.88
#: Probability that a covered conduit's record mentions each tenant.
DEFAULT_TENANT_RECALL = 0.6
#: Maximum records generated per conduit.
MAX_RECORDS_PER_CONDUIT = 3

_TEMPLATES: Dict[str, str] = {
    "agency_filing": (
        "Filing before the {state} public utilities commission regarding "
        "the fiber-optic conduit installed along the {corridor} right-of-way "
        "between {a} and {b}. Carriers with facilities in the conduit "
        "include {tenants}."
    ),
    "environmental_impact": (
        "Final environmental impact statement, {corridor} corridor project, "
        "{a} to {b}. Section 4 (utilities) notes existing buried "
        "telecommunications conduit occupied by {tenants} within the "
        "{kind} right-of-way."
    ),
    "iru_agreement": (
        "Indefeasible right of use agreement covering dark fiber between "
        "{a} and {b} along the {corridor} route. Parties purchasing or "
        "leasing fiber in the conduit: {tenants}."
    ),
    "franchise_agreement": (
        "Franchise agreement with {state} county authorities permitting "
        "fiber deployment along {corridor} from {a} to {b}; co-located "
        "facilities of {tenants} are noted in the utilities exhibit."
    ),
    "press_release": (
        "Press release: network expansion completes new long-haul segment "
        "between {a} and {b} following the {corridor} {kind} corridor. "
        "The build is shared with {tenants}."
    ),
    "row_settlement": (
        "Class action settlement involving land adjacent to the {corridor} "
        "railroad right-of-way between {a} and {b} where {tenants} have "
        "installed telecommunications facilities such as fiber-optic cables."
    ),
    "dot_project": (
        "{state} DOT project documentation for the {corridor} corridor "
        "({a} - {b}): existing conduit with fiber of {tenants} to be "
        "protected during construction."
    ),
}


@dataclass(frozen=True)
class PublicRecord:
    """One public document about one conduit."""

    doc_id: str
    kind: str
    state: str
    edge: EdgeKey
    row_id: str
    conduit_id: str
    tenants: Tuple[str, ...]
    text: str

    @property
    def title(self) -> str:
        a, b = self.edge
        return f"{self.kind}: {a} - {b}"


def _tokenize(text: str) -> List[str]:
    return re.findall(r"[a-z0-9&]+", text.lower())


class RecordsCorpus:
    """A searchable corpus of public records.

    Search mirrors the paper's workflow: a bag-of-terms query scores
    documents by matched-token count (ties broken by doc id for
    determinism).
    """

    def __init__(self, records: Iterable[PublicRecord]):
        self._records: List[PublicRecord] = sorted(
            records, key=lambda r: r.doc_id
        )
        self._by_edge: Dict[EdgeKey, List[PublicRecord]] = {}
        self._tokens: Dict[str, FrozenSet[str]] = {}
        for record in self._records:
            self._by_edge.setdefault(record.edge, []).append(record)
            self._tokens[record.doc_id] = frozenset(_tokenize(record.text))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records_for_edge(self, a_key: str, b_key: str) -> List[PublicRecord]:
        """All records about conduits between two adjacent cities."""
        return list(self._by_edge.get(canonical_edge(a_key, b_key), []))

    def search(self, query: str, limit: int = 10) -> List[Tuple[PublicRecord, int]]:
        """Keyword search; returns ``(record, score)`` sorted best-first.

        Score is the number of distinct query tokens present in the
        document.  Zero-score documents are never returned.
        """
        terms = set(_tokenize(query))
        if not terms:
            return []
        scored = []
        for record in self._records:
            score = len(terms & self._tokens[record.doc_id])
            if score > 0:
                scored.append((record, score))
        scored.sort(key=lambda rs: (-rs[1], rs[0].doc_id))
        return scored[:limit]

    def tenants_evidenced(self, a_key: str, b_key: str) -> FrozenSet[str]:
        """Union of tenants mentioned by any record about this edge."""
        tenants = set()
        for record in self.records_for_edge(a_key, b_key):
            tenants.update(record.tenants)
        return frozenset(tenants)

    def rows_evidenced(self, a_key: str, b_key: str) -> FrozenSet[str]:
        """Right-of-way ids documented for this edge."""
        return frozenset(
            r.row_id for r in self.records_for_edge(a_key, b_key)
        )


def generate_records(
    ground_truth: GroundTruth,
    seed: int = 11,
    coverage: float = DEFAULT_COVERAGE,
    tenant_recall: float = DEFAULT_TENANT_RECALL,
) -> RecordsCorpus:
    """Synthesize the public-records corpus for a ground-truth world.

    Each conduit is covered with probability *coverage*; covered conduits
    get one to three documents, each revealing the conduit's right-of-way
    and a random subset of its tenants (each tenant with probability
    *tenant_recall* per document).
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage out of [0,1]: {coverage}")
    if not 0.0 <= tenant_recall <= 1.0:
        raise ValueError(f"tenant_recall out of [0,1]: {tenant_recall}")
    rng = random.Random(seed)
    registry = ground_truth.registry
    records: List[PublicRecord] = []
    seq = 0
    for conduit_id, conduit in sorted(ground_truth.fiber_map.conduits.items()):
        if rng.random() >= coverage:
            continue
        n_docs = rng.randint(1, MAX_RECORDS_PER_CONDUIT)
        row = registry.row(conduit.row_id)
        a_key, b_key = conduit.edge
        for _ in range(n_docs):
            kind = rng.choice(RECORD_KINDS)
            # Rail settlements only make sense for rail ROWs.
            if kind == "row_settlement" and row.kind != "rail":
                kind = "agency_filing"
            # Iterate tenants in sorted order: pairing the RNG stream
            # with set-iteration order would make the selection depend
            # on PYTHONHASHSEED (observed as cross-process divergence
            # of the constructed map before PR 4's golden-hash tests).
            tenants = tuple(
                t for t in sorted(conduit.tenants)
                if rng.random() < tenant_recall
            )
            if not tenants:
                # A document always names at least one carrier.
                tenants = (sorted(conduit.tenants)[rng.randrange(conduit.num_tenants)],)
            state = city_by_name(a_key).state
            text = _TEMPLATES[kind].format(
                state=state,
                corridor=row.corridor_name,
                a=a_key,
                b=b_key,
                kind=row.kind,
                tenants=", ".join(tenants),
            )
            seq += 1
            records.append(
                PublicRecord(
                    doc_id=f"D{seq:05d}",
                    kind=kind,
                    state=state,
                    edge=conduit.edge,
                    row_id=conduit.row_id,
                    conduit_id=conduit_id,
                    tenants=tenants,
                    text=text,
                )
            )
    return RecordsCorpus(records)
