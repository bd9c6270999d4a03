"""Columnar record store for traceroute campaigns.

The paper's §4.3 overlay consumed ~4.9M Edgescope traceroutes.  At that
scale the frozen :class:`~repro.traceroute.probe.TracerouteRecord` /
``Hop`` dataclasses stop being a storage format and become the
bottleneck: millions of small Python objects dominate memory, and
pickling them through the worker pool dominates IPC.  This module keeps
the *records* as the public contract but stores a campaign as columns:

* per-trace fields live in one numpy **structured array**
  (:data:`TRACE_DTYPE`): endpoint city/ISP ids and the reached flag;
* hops live in **CSR layout** — ``hop_offsets`` (``N+1`` int64) indexes
  flat per-hop columns ``hop_router`` (int32 router ids) and ``hop_rtt``
  (float64 milliseconds);
* strings are interned once in a :class:`ColumnSchema` — arena-style
  tables for city keys, provider names, and per-router IP/DNS strings —
  so no string is stored per trace.

A 4.9M-trace campaign is ~25 bytes of trace columns plus ~12 bytes per
hop, i.e. a few hundred MB instead of tens of GB of objects.

Everything downstream keeps working because :class:`TraceColumns` *is*
a sequence of :class:`TracerouteRecord`: indexing, slicing, and
iteration reconstruct records lazily (:meth:`TraceColumns.record`).
Columnar consumers (the §4.3 overlay, benchmarks) instead stream
:meth:`TraceColumns.iter_batches` and never materialize objects.

The layout is deliberately pickle-free on disk: :meth:`to_npz_bytes` /
:func:`columns_from_npz_bytes` round-trip through ``np.savez`` with
``allow_pickle=False``, and :meth:`pack_into` / :func:`unpack_shard`
move shards through ``multiprocessing.shared_memory`` segments as raw
array bytes (see :mod:`repro.traceroute.campaign`).
"""

from __future__ import annotations

import hashlib
import io
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.traceroute.probe import TracerouteRecord
    from repro.traceroute.topology import InternetTopology

#: Per-trace structured layout.  City/ISP fields are indices into the
#: schema's string tables; int32 leaves headroom far past any realistic
#: city or provider count while keeping a trace at 17 bytes.
TRACE_DTYPE = np.dtype(
    [
        ("src_city", np.int32),
        ("src_isp", np.int32),
        ("dst_city", np.int32),
        ("dst_isp", np.int32),
        ("reached", np.bool_),
    ]
)

#: Serialization format version (stored in npz payloads; a payload of any
#: other version is rejected).
COLUMNS_FORMAT_VERSION = 2


def _as_str_tuple(values) -> Tuple[str, ...]:
    """Plain-``str`` tuple (numpy ``str_`` reprs would poison golden
    hashes of reconstructed records)."""
    return tuple(str(v) for v in values)


class ColumnSchema:
    """Interned string tables shared by every trace of one topology.

    Built deterministically (sorted providers, each provider's sorted
    router cities), so the parent process and every pool worker derive
    byte-identical tables from the same topology — the property that
    lets shards ship pure numeric arrays.
    """

    def __init__(
        self,
        cities: Sequence[str],
        isps: Sequence[str],
        router_ips: Sequence[str],
        router_dns: Sequence[str],
        router_nodes: Sequence[Tuple[str, str]],
    ):
        self.cities = _as_str_tuple(cities)
        self.isps = _as_str_tuple(isps)
        self.router_ips = _as_str_tuple(router_ips)
        self.router_dns = _as_str_tuple(router_dns)
        self.router_nodes = tuple(
            (str(isp), str(city)) for isp, city in router_nodes
        )
        self.city_index: Dict[str, int] = {
            c: i for i, c in enumerate(self.cities)
        }
        self.isp_index: Dict[str, int] = {
            p: i for i, p in enumerate(self.isps)
        }
        self.router_index: Dict[Tuple[str, str], int] = {
            node: i for i, node in enumerate(self.router_nodes)
        }
        self._digests: Dict[int, str] = {}

    @classmethod
    def from_topology(cls, topology: "InternetTopology") -> "ColumnSchema":
        """The canonical schema of one router-level topology."""
        isps = topology.providers()  # sorted
        nodes: List[Tuple[str, str]] = []
        ips: List[str] = []
        dns: List[str] = []
        cities = set()
        for isp in isps:
            for router in topology.routers_of(isp):  # sorted by city
                nodes.append((router.isp, router.city_key))
                ips.append(router.ip)
                dns.append(router.dns_name)
                cities.add(router.city_key)
        return cls(
            cities=sorted(cities),
            isps=isps,
            router_ips=ips,
            router_dns=dns,
            router_nodes=nodes,
        )

    def digest(self, rng_contract: int) -> str:
        """Content hash used to cross-check worker/parent agreement.

        *rng_contract* mixes the campaign's RNG contract version into
        the hash so v1 and v2 shard manifests can never be confused for
        one another; contract 1 hashes the string tables alone.
        Memoized per contract: every shard a campaign packs and unpacks
        asks for it.
        """
        digest = self._digests.get(rng_contract)
        if digest is None:
            digest = self._digests[rng_contract] = self._digest(rng_contract)
        return digest

    def _digest(self, rng_contract: int) -> str:
        h = hashlib.blake2b(digest_size=8)
        for table in (self.cities, self.isps, self.router_ips,
                      self.router_dns):
            for item in table:
                h.update(item.encode())
                h.update(b"\0")
            h.update(b"\1")
        if rng_contract != 1:
            h.update(b"rng%d" % rng_contract)
        return h.hexdigest()


class TraceBatch:
    """One bounded window of a :class:`TraceColumns` (a streaming unit).

    Column slices are views, not copies; ``hop_offsets`` is rebased so
    ``hop_offsets[i] .. hop_offsets[i+1]`` indexes the batch-local hop
    columns directly.
    """

    __slots__ = ("schema", "start", "traces", "hop_offsets", "hop_router",
                 "hop_rtt")

    def __init__(self, schema, start, traces, hop_offsets, hop_router,
                 hop_rtt):
        self.schema = schema
        self.start = start
        self.traces = traces
        self.hop_offsets = hop_offsets
        self.hop_router = hop_router
        self.hop_rtt = hop_rtt

    def __len__(self) -> int:
        return len(self.traces)


class TraceColumns:
    """A whole campaign as columns; also a lazy sequence of records."""

    def __init__(
        self,
        schema: ColumnSchema,
        traces: np.ndarray,
        hop_offsets: np.ndarray,
        hop_router: np.ndarray,
        hop_rtt: np.ndarray,
        *,
        rng_contract: int,
    ):
        if traces.dtype != TRACE_DTYPE:
            raise ValueError(f"traces dtype must be {TRACE_DTYPE}")
        if len(hop_offsets) != len(traces) + 1:
            raise ValueError("hop_offsets must have num_traces + 1 entries")
        self.schema = schema
        self.traces = traces
        self.hop_offsets = hop_offsets
        self.hop_router = hop_router
        self.hop_rtt = hop_rtt
        #: The RNG contract the campaign was drawn under (provenance;
        #: threaded through shard manifests and npz payloads so v1 and
        #: v2 columns can never be silently mixed or mislabeled).
        self.rng_contract = int(rng_contract)
        #: Frees the storage the arrays view (see :meth:`release`);
        #: ``None`` while the columns own their arrays.
        self._release: Optional[Callable[[], None]] = None

    # -- sizing --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.traces)

    @property
    def num_hops(self) -> int:
        return len(self.hop_router)

    @property
    def nbytes(self) -> int:
        """Bytes held by the numeric columns (string tables excluded)."""
        return (
            self.traces.nbytes + self.hop_offsets.nbytes
            + self.hop_router.nbytes + self.hop_rtt.nbytes
        )

    def release(self) -> None:
        """Free the storage these columns view, leaving them empty.

        Only shard columns mapped by :func:`unpack_shard` view storage
        they do not own (a shared-memory segment): their views are
        dropped first, then the segment is closed and unlinked.  Columns
        that own their arrays are left as they are.
        """
        release, self._release = self._release, None
        if release is None:
            return
        self.traces = np.zeros(0, dtype=TRACE_DTYPE)
        self.hop_offsets = np.zeros(1, dtype=np.int64)
        self.hop_router = np.zeros(0, dtype=np.int32)
        self.hop_rtt = np.zeros(0, dtype=np.float64)
        release()

    # -- the legacy record view ----------------------------------------
    def record(self, index: int) -> "TracerouteRecord":
        """Reconstruct one :class:`TracerouteRecord` (lazily, on demand)."""
        from repro.traceroute.probe import Hop, TracerouteRecord

        schema = self.schema
        row = self.traces[index]
        lo = int(self.hop_offsets[index])
        hi = int(self.hop_offsets[index + 1])
        ips = schema.router_ips
        dns = schema.router_dns
        routers = self.hop_router
        rtts = self.hop_rtt
        hops = tuple(
            Hop(
                ip=ips[routers[h]],
                dns_name=dns[routers[h]],
                rtt_ms=float(rtts[h]),
            )
            for h in range(lo, hi)
        )
        return TracerouteRecord(
            src_city=schema.cities[row["src_city"]],
            src_isp=schema.isps[row["src_isp"]],
            dst_city=schema.cities[row["dst_city"]],
            dst_isp=schema.isps[row["dst_isp"]],
            hops=hops,
            reached=bool(row["reached"]),
        )

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self.record(i) for i in range(*item.indices(len(self)))]
        index = item if item >= 0 else len(self) + item
        if not 0 <= index < len(self):
            raise IndexError(item)
        return self.record(index)

    def __iter__(self) -> Iterator["TracerouteRecord"]:
        for i in range(len(self)):
            yield self.record(i)

    # -- streaming -----------------------------------------------------
    def iter_batches(self, batch_size: int = 8192) -> Iterator[TraceBatch]:
        """Stream the campaign as bounded column windows.

        This is how large-scale consumers (the §4.3 overlay) walk a
        campaign: memory per step is one batch of column views, never a
        materialized record list.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        offsets = self.hop_offsets
        for start in range(0, len(self), batch_size):
            stop = min(start + batch_size, len(self))
            lo = int(offsets[start])
            hi = int(offsets[stop])
            yield TraceBatch(
                schema=self.schema,
                start=start,
                traces=self.traces[start:stop],
                hop_offsets=offsets[start:stop + 1] - lo,
                hop_router=self.hop_router[lo:hi],
                hop_rtt=self.hop_rtt[lo:hi],
            )

    # -- equality (used by the chaos/byte-identity tests) --------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (
            self.schema.cities == other.schema.cities
            and self.schema.isps == other.schema.isps
            and self.schema.router_ips == other.schema.router_ips
            and self.schema.router_dns == other.schema.router_dns
            and np.array_equal(self.traces, other.traces)
            and np.array_equal(self.hop_offsets, other.hop_offsets)
            and np.array_equal(self.hop_router, other.hop_router)
            and np.array_equal(self.hop_rtt, other.hop_rtt)
        )

    __hash__ = None  # type: ignore[assignment]

    # -- concatenation (shard stitching) -------------------------------
    @classmethod
    def concatenate(
        cls, schema: ColumnSchema, parts: Sequence["TraceColumns"]
    ) -> "TraceColumns":
        """Stitch shard columns (in shard order) into one campaign.

        The parts must all carry one RNG contract, the result's.  The
        output is sized from the parts' lengths up front, and each part
        is released (:meth:`release`) as soon as it is copied: a shard
        that views a shared-memory segment frees it before the next
        part is read, so the stitch holds the output plus one shard
        rather than every shard twice."""
        contracts = {p.rng_contract for p in parts}
        if len(contracts) != 1:
            raise ValueError(
                f"cannot concatenate columns of RNG contracts "
                f"{sorted(contracts)}: need parts of exactly one"
            )
        (rng_contract,) = contracts
        n = sum(len(p) for p in parts)
        h = sum(p.num_hops for p in parts)
        traces = np.empty(n, dtype=TRACE_DTYPE)
        hop_offsets = np.empty(n + 1, dtype=np.int64)
        hop_router = np.empty(h, dtype=np.int32)
        hop_rtt = np.empty(h, dtype=np.float64)
        hop_offsets[0] = 0
        t = 0
        k = 0
        for part in parts:
            pn, ph = len(part), part.num_hops
            traces[t:t + pn] = part.traces
            hop_offsets[t + 1:t + pn + 1] = part.hop_offsets[1:] + k
            hop_router[k:k + ph] = part.hop_router
            hop_rtt[k:k + ph] = part.hop_rtt
            part.release()
            t += pn
            k += ph
        return cls(
            schema, traces, hop_offsets, hop_router, hop_rtt,
            rng_contract=rng_contract,
        )

    # -- flat-buffer transport (shared-memory shards) ------------------
    def _transport_arrays(self) -> Tuple[Tuple[str, np.ndarray], ...]:
        return (
            ("traces", self.traces),
            ("hop_offsets", self.hop_offsets),
            ("hop_router", self.hop_router),
            ("hop_rtt", self.hop_rtt),
        )

    def transport_size(self) -> int:
        """Bytes a shared-memory segment needs to hold these columns."""
        return max(1, sum(a.nbytes for _, a in self._transport_arrays()))

    def pack_into(self, buffer) -> Dict[str, Any]:
        """Write the numeric columns into *buffer* (a shm view), back to
        back, and return the manifest the parent needs to map them."""
        layout = []
        offset = 0
        for name, array in self._transport_arrays():
            flat = np.frombuffer(
                buffer, dtype=np.uint8, count=array.nbytes, offset=offset
            )
            flat[:] = np.frombuffer(
                np.ascontiguousarray(array), dtype=np.uint8
            )
            layout.append(
                {
                    "name": name,
                    "dtype": array.dtype.str if array.dtype.names is None
                    else TRACE_DTYPE.str,
                    "structured": array.dtype.names is not None,
                    "count": len(array),
                    "offset": offset,
                }
            )
            offset += array.nbytes
        return {
            "num_traces": len(self),
            "num_hops": self.num_hops,
            "rng_contract": self.rng_contract,
            "schema_digest": self.schema.digest(
                rng_contract=self.rng_contract
            ),
            "arrays": layout,
        }


def unpack_shard(
    schema: ColumnSchema,
    buffer,
    manifest: Dict[str, Any],
    expect_rng_contract: int,
    release: Callable[[], None],
) -> TraceColumns:
    """Map a shard's columns out of a shared-memory *buffer*.

    The returned arrays are **views into the segment** (zero-copy), so
    mapping a shard reads none of its pages.  *release* closes and
    unlinks the segment: the columns' :meth:`~TraceColumns.release`
    calls it once their views are dropped, which
    :meth:`TraceColumns.concatenate` does as soon as it has copied the
    shard.  *expect_rng_contract* rejects a shard drawn under a
    different RNG contract than the campaign that is stitching it (a
    worker/parent disagreement that must never be silently absorbed).
    """
    shard_contract = int(manifest["rng_contract"])
    if shard_contract != expect_rng_contract:
        raise ValueError(
            f"shard was drawn under RNG contract {shard_contract}, "
            f"campaign expects contract {expect_rng_contract}"
        )
    expected_digest = schema.digest(rng_contract=shard_contract)
    if manifest.get("schema_digest") != expected_digest:
        raise ValueError(
            "shard schema digest does not match the parent topology"
        )
    arrays: Dict[str, np.ndarray] = {}
    for spec in manifest["arrays"]:
        dtype = TRACE_DTYPE if spec["structured"] else np.dtype(spec["dtype"])
        arrays[spec["name"]] = np.frombuffer(
            buffer, dtype=dtype, count=spec["count"], offset=spec["offset"]
        )
    columns = TraceColumns(
        schema,
        traces=arrays["traces"],
        hop_offsets=arrays["hop_offsets"],
        hop_router=arrays["hop_router"],
        hop_rtt=arrays["hop_rtt"],
        rng_contract=shard_contract,
    )
    columns._release = release
    return columns


# ----------------------------------------------------------------------
# Pickle-free disk serialization (np.save-style, used by the artifact
# cache: a campaign artifact must never round-trip through pickle).
# ----------------------------------------------------------------------
def columns_to_npz_bytes(columns: TraceColumns) -> bytes:
    """Serialize columns (their RNG contract and string tables
    included) as an npz payload."""
    buf = io.BytesIO()
    np.savez(
        buf,
        version=np.array([COLUMNS_FORMAT_VERSION], dtype=np.int64),
        rng_contract=np.array([columns.rng_contract], dtype=np.int64),
        traces=columns.traces,
        hop_offsets=columns.hop_offsets,
        hop_router=columns.hop_router,
        hop_rtt=columns.hop_rtt,
        cities=np.array(columns.schema.cities, dtype=np.str_),
        isps=np.array(columns.schema.isps, dtype=np.str_),
        router_ips=np.array(columns.schema.router_ips, dtype=np.str_),
        router_dns=np.array(columns.schema.router_dns, dtype=np.str_),
        router_isps=np.array(
            [isp for isp, _ in columns.schema.router_nodes], dtype=np.str_
        ),
        router_cities=np.array(
            [city for _, city in columns.schema.router_nodes], dtype=np.str_
        ),
    )
    return buf.getvalue()


def columns_from_npz_bytes(payload: bytes) -> TraceColumns:
    """Inverse of :func:`columns_to_npz_bytes` (``allow_pickle=False``)."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != COLUMNS_FORMAT_VERSION:
            raise ValueError(f"unsupported columns format {version}")
        schema = ColumnSchema(
            cities=data["cities"].tolist(),
            isps=data["isps"].tolist(),
            router_ips=data["router_ips"].tolist(),
            router_dns=data["router_dns"].tolist(),
            router_nodes=list(
                zip(data["router_isps"].tolist(),
                    data["router_cities"].tolist())
            ),
        )
        return TraceColumns(
            schema,
            traces=data["traces"],
            hop_offsets=data["hop_offsets"],
            hop_router=data["hop_router"],
            hop_rtt=data["hop_rtt"],
            rng_contract=int(data["rng_contract"][0]),
        )
