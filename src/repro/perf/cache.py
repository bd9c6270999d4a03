"""Persistent on-disk cache for expensive scenario artifacts.

A full US2015 scenario build costs double-digit seconds; repeated
experiment and benchmark runs rebuild the same deterministic artifacts
every time.  This store memoizes whole stages — ground truth,
constructed map, campaign, overlay — keyed by

    (stage, parameters, code version)

where the code version is a hash over the ``repro`` package's own
source files.  Editing any module therefore invalidates every cached
artifact automatically; stale entries are never served.

Layout: one ``<stage>-<digest>.pkl`` per artifact directly under the
cache root (default ``~/.cache/repro``, overridable via
``REPRO_CACHE_DIR``).  Columnar campaign artifacts
(:class:`~repro.traceroute.columns.TraceColumns`) are the exception:
they persist as ``<stage>-<digest>.npz`` — a pure-array archive loaded
with ``allow_pickle=False``, so campaign entries carry no
code-execution surface.  ``python -m repro cache {info,clear,prune}``
inspects, empties, and size-bounds it.

The store is hardened against the failure modes a shared on-disk cache
actually sees:

* **Concurrent writers** — writes go to a temp file and ``os.replace``
  into place under a cross-process ``flock`` on ``<root>/.lock``, so
  two processes storing into one root can never interleave an entry.
* **Corrupt entries** — a ``fetch`` that finds bytes it cannot load
  moves the file into ``<root>/quarantine/`` (a ``cache.quarantine``
  tracer event), so the next run rebuilds instead of re-failing on the
  same poisoned entry forever.
* **Orphaned temp files** — ``*.tmp`` files left by an interrupted
  ``store`` are reported by ``info``, removed by ``clear``, and swept
  by ``prune`` once they are old enough to be provably dead.
* **Stale lock files** — single-flight build locks under
  ``<root>/locks/`` accumulate across code versions; ``clear`` and
  ``prune`` sweep the ones no process holds (a non-blocking ``flock``
  probe distinguishes dead locks from in-flight builds).
* **Unbounded growth** — ``prune(max_bytes)`` evicts least-recently
  used entries (fetch hits refresh an entry's mtime) until the root
  fits the budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

try:
    import fcntl

    HAVE_FCNTL = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    HAVE_FCNTL = False

#: Truthy/falsy spellings accepted in ``REPRO_CACHE``.
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")

_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of the installed ``repro`` sources (memoized per process)."""
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()[:16]
    return _code_version


def default_cache_root() -> Path:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact."""

    stage: str
    path: Path
    size_bytes: int


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one maintenance pass (``prune`` / ``cache prune``)."""

    evicted: int
    orphans_swept: int
    quarantine_removed: int
    bytes_freed: int
    bytes_remaining: int
    locks_swept: int = 0


#: Age beyond which a ``*.tmp`` file cannot belong to an in-flight
#: ``store`` and is safe to sweep.
ORPHAN_TMP_AGE_S = 3600.0

#: Subdirectory corrupt entries are moved into on a failed ``fetch``.
QUARANTINE_DIR = "quarantine"

#: Subdirectory holding single-flight build-lock files.
LOCKS_DIR = "locks"


class ArtifactCache:
    """Pickle store for scenario stages, with hit/miss accounting."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.quarantined_count = 0

    # ------------------------------------------------------------------
    def _path_for(self, stage: str, params: Dict[str, Any]) -> Path:
        key = json.dumps(
            {"stage": stage, "params": params, "code": code_version()},
            sort_keys=True,
        )
        digest = hashlib.sha256(key.encode()).hexdigest()[:20]
        return self.root / f"{stage}-{digest}.pkl"

    @contextlib.contextmanager
    def _lock(self) -> Iterator[None]:
        """Cross-process exclusive lock on this cache root.

        Serializes writers (store, clear, prune) through ``flock`` on
        ``<root>/.lock``.  Readers stay lock-free: ``os.replace`` keeps
        every entry either absent or complete.  On platforms without
        ``fcntl`` the lock degrades to a no-op and atomic renames remain
        the only (still safe for single-writer) guarantee.
        """
        if not HAVE_FCNTL:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    @contextlib.contextmanager
    def single_flight(
        self, stage: str, params: Dict[str, Any]
    ) -> Iterator[bool]:
        """Cross-process build lock for one ``(stage, params)`` key.

        Sweep cells (and any other processes sharing a cache root)
        race to build identical stage artifacts; holding this lock
        around the miss→build→store window collapses the duplicates:
        one process builds while the rest block, then find the stored
        entry on re-fetch.  Yields ``True`` when the lock was contended
        — i.e. another process may have built the artifact while we
        waited and the caller should re-fetch before building.

        Lock files live under ``<root>/locks/`` (outside the entry
        glob, so ``clear``/``prune`` never sweep an active lock) and
        ``flock`` releases them even if the holder dies mid-build.  On
        platforms without ``fcntl`` this degrades to a no-op: builds
        may duplicate, but ``store``'s atomic rename keeps the cache
        consistent.
        """
        if not HAVE_FCNTL:
            yield False
            return
        lock_path = (
            self.root
            / LOCKS_DIR
            / (self._path_for(stage, params).stem + ".lock")
        )
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        try:
            contended = False
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                fcntl.flock(fd, fcntl.LOCK_EX)
                contended = True
            yield contended
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _quarantine(self, path: Path, stage: str) -> None:
        """Move a corrupt entry out of the lookup path, never to be
        re-read; deleted outright if the move itself fails."""
        from repro.obs.tracer import get_tracer

        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()
        self.quarantined_count += 1
        get_tracer().event("cache.quarantine", stage=stage, file=path.name)

    def fetch(self, stage: str, params: Dict[str, Any]) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` otherwise.

        Unreadable or corrupt entries count as misses, are quarantined
        on first failure (so no later run re-reads the same poisoned
        bytes), and get rebuilt.  A hit refreshes the entry's mtime,
        which is the recency signal ``prune`` evicts by.
        """
        from repro.obs.tracer import get_tracer

        path = self._path_for(stage, params)
        npz_path = path.with_suffix(".npz")
        if npz_path.is_file():
            path = npz_path
        try:
            value = self._load(path)
        except FileNotFoundError:
            self.misses += 1
            get_tracer().event("cache.fetch", stage=stage, hit=False)
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, KeyError,
                zipfile.BadZipFile):
            self._quarantine(path, stage)
            self.misses += 1
            get_tracer().event(
                "cache.fetch", stage=stage, hit=False, quarantined=True
            )
            return False, None
        self.hits += 1
        with contextlib.suppress(OSError):
            os.utime(path)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "cache.fetch", stage=stage, hit=True,
                bytes=path.stat().st_size,
            )
        return True, value

    @staticmethod
    def _load(path: Path) -> Any:
        """Deserialize one entry by extension: ``.npz`` columnar
        artifacts load pickle-free, everything else unpickles."""
        data = path.read_bytes()
        if path.suffix == ".npz":
            from repro.traceroute.columns import columns_from_npz_bytes

            return columns_from_npz_bytes(data)
        return pickle.loads(data)

    @staticmethod
    def _serialize(value: Any, path: Path) -> Tuple[bytes, Path]:
        """``(payload, final path)`` for one artifact.

        Columnar campaigns (:class:`TraceColumns`) persist as ``.npz``
        archives — a pure-array format loadable with
        ``allow_pickle=False``, so a poisoned cache entry can corrupt a
        campaign but never execute code.  Everything else pickles as
        before.
        """
        from repro.traceroute.columns import TraceColumns, columns_to_npz_bytes

        if isinstance(value, TraceColumns):
            return columns_to_npz_bytes(value), path.with_suffix(".npz")
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), path

    def store(self, stage: str, params: Dict[str, Any], value: Any) -> Path:
        """Atomically persist one artifact (write to temp, then rename).

        Concurrent writers on one root are serialized by the cache
        lock; an active fault injector may corrupt the payload or fail
        the write here — both recovered elsewhere (quarantine on fetch,
        degraded-store in the scenario layer).
        """
        from repro.obs.faults import get_fault_injector
        from repro.obs.tracer import get_tracer

        injector = get_fault_injector()
        if injector is not None:
            injector.maybe_fail_write(stage)
        path = self._path_for(stage, params)
        self.root.mkdir(parents=True, exist_ok=True)
        payload, path = self._serialize(value, path)
        if injector is not None:
            payload = injector.corrupt_payload(stage, payload)
        get_tracer().event("cache.store", stage=stage, bytes=len(payload))
        with self._lock():
            fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        return path

    def contains(self, stage: str, params: Dict[str, Any]) -> bool:
        """Whether an entry exists for ``(stage, params)`` — no load,
        no hit/miss accounting (used by ``graph show``/``explain``)."""
        path = self._path_for(stage, params)
        return path.is_file() or path.with_suffix(".npz").is_file()

    def evict_stage(self, stage: str) -> int:
        """Delete every stored artifact belonging to *stage*.

        The targeted counterpart of :meth:`clear`: ``graph invalidate``
        uses it to drop one stage (and its dependents) while the rest
        of the warm cache survives.  Returns how many entries went.
        """
        from repro.obs.tracer import get_tracer

        removed = 0
        with self._lock():
            for entry in self.entries():
                if entry.stage != stage:
                    continue
                with contextlib.suppress(OSError):
                    entry.path.unlink()
                    removed += 1
        get_tracer().event("cache.evict", stage=stage, removed=removed)
        return removed

    # ------------------------------------------------------------------
    def entries(self) -> List[CacheEntry]:
        if not self.root.is_dir():
            return []
        found = []
        paths = list(self.root.glob("*.pkl")) + list(self.root.glob("*.npz"))
        for path in sorted(paths):
            stage = path.stem.rsplit("-", 1)[0]
            found.append(
                CacheEntry(
                    stage=stage, path=path, size_bytes=path.stat().st_size
                )
            )
        return found

    def orphan_tmp_files(self) -> List[Path]:
        """``*.tmp`` files left behind by interrupted ``store`` calls."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.tmp"))

    def quarantined_files(self) -> List[Path]:
        """Corrupt entries parked by failed ``fetch`` calls."""
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(p for p in quarantine.iterdir() if p.is_file())

    def lock_files(self) -> List[Path]:
        """Single-flight lock files under ``<root>/locks/``.

        Lock files outlive their build (``single_flight`` never unlinks
        — a racing process may hold an fd to the same path), so over
        many code versions the directory accretes dead entries; the
        sweepers below reclaim them.
        """
        locks = self.root / LOCKS_DIR
        if not locks.is_dir():
            return []
        return sorted(locks.glob("*.lock"))

    def sweep_stale_locks(self, max_age_s: float = 0.0) -> int:
        """Delete single-flight lock files no process currently holds.

        Each candidate older than *max_age_s* is probed with a
        non-blocking ``flock``: a held lock (an in-flight build) fails
        the probe and is skipped, an acquirable one is provably unheld
        and unlinked.  The unlink-after-probe ordering means a process
        racing to open the same path can at worst recreate the file —
        never lose a held lock.  Without ``fcntl`` there is no probe
        (or any locks to begin with) and the sweep is age-only.
        """
        cutoff = time.time() - max_age_s
        removed = 0
        for path in self.lock_files():
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                if HAVE_FCNTL:
                    fd = os.open(path, os.O_RDWR)
                    try:
                        try:
                            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        except OSError:
                            continue  # held: a build is in flight
                        path.unlink()  # while holding — can't race a holder
                    finally:
                        os.close(fd)
                else:
                    path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def info_text(self) -> str:
        entries = self.entries()
        orphans = self.orphan_tmp_files()
        quarantined = self.quarantined_files()
        locks = self.lock_files()
        lines = [f"cache root: {self.root}"]
        if not entries and not orphans and not quarantined and not locks:
            lines.append("empty")
            return "\n".join(lines)
        total = sum(e.size_bytes for e in entries)
        by_stage: Dict[str, List[CacheEntry]] = {}
        for entry in entries:
            by_stage.setdefault(entry.stage, []).append(entry)
        for stage in sorted(by_stage):
            group = by_stage[stage]
            size = sum(e.size_bytes for e in group)
            lines.append(
                f"  {stage:16s} {len(group):3d} artifact(s)  "
                f"{size / 1e6:8.2f} MB"
            )
        lines.append(
            f"total: {len(entries)} artifact(s), {total / 1e6:.2f} MB"
        )
        if orphans:
            size = sum(p.stat().st_size for p in orphans)
            lines.append(
                f"orphaned temp files: {len(orphans)} "
                f"({size / 1e6:.2f} MB) — run `cache clear` or "
                f"`cache prune` to sweep"
            )
        if quarantined:
            size = sum(p.stat().st_size for p in quarantined)
            lines.append(
                f"quarantined corrupt entries: {len(quarantined)} "
                f"({size / 1e6:.2f} MB)"
            )
        if locks:
            lines.append(
                f"single-flight lock files: {len(locks)} — stale ones "
                f"are swept by `cache clear` / `cache prune`"
            )
        return "\n".join(lines)

    def clear(self) -> int:
        """Delete every stored artifact, orphaned temp file, quarantined
        entry, and unheld lock file; returns how many files went.

        Lock files get the unconditional (age-zero) sweep: anything a
        live build still holds survives, everything else goes with the
        entries it guarded.
        """
        removed = 0
        with self._lock():
            targets = (
                [e.path for e in self.entries()]
                + self.orphan_tmp_files()
                + self.quarantined_files()
            )
            for path in targets:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            removed += self.sweep_stale_locks(0.0)
        return removed

    def prune(
        self,
        max_bytes: Optional[int] = None,
        orphan_age_s: float = ORPHAN_TMP_AGE_S,
    ) -> PruneResult:
        """Bound the cache: sweep dead files, then evict LRU entries.

        Quarantined entries (already useless), stale orphans, and
        stale single-flight lock files go first; live entries are then
        evicted oldest-mtime-first until the root fits *max_bytes*
        (``None`` bounds nothing and only sweeps).  Lock files share
        the orphan age gate and are additionally probed for holders,
        so an in-flight build's lock is never touched.  Returns a
        :class:`PruneResult` accounting.
        """
        from repro.obs.tracer import get_tracer

        with self._lock():
            freed = 0
            quarantine_removed = 0
            for path in self.quarantined_files():
                with contextlib.suppress(OSError):
                    size = path.stat().st_size
                    path.unlink()
                    quarantine_removed += 1
                    freed += size
            orphans_swept = 0
            cutoff = time.time() - orphan_age_s
            for path in self.orphan_tmp_files():
                try:
                    stat = path.stat()
                    if stat.st_mtime <= cutoff:
                        path.unlink()
                        orphans_swept += 1
                        freed += stat.st_size
                except OSError:
                    continue
            locks_swept = self.sweep_stale_locks(orphan_age_s)
            evicted = 0
            entries = self.entries()
            remaining = sum(e.size_bytes for e in entries)
            if max_bytes is not None and remaining > max_bytes:
                by_age = sorted(
                    entries, key=lambda e: e.path.stat().st_mtime
                )
                for entry in by_age:
                    if remaining <= max_bytes:
                        break
                    with contextlib.suppress(OSError):
                        entry.path.unlink()
                        evicted += 1
                        freed += entry.size_bytes
                        remaining -= entry.size_bytes
        result = PruneResult(
            evicted=evicted,
            orphans_swept=orphans_swept,
            quarantine_removed=quarantine_removed,
            bytes_freed=freed,
            bytes_remaining=remaining,
            locks_swept=locks_swept,
        )
        get_tracer().event(
            "cache.prune", evicted=evicted, orphans=orphans_swept,
            quarantine=quarantine_removed, locks=locks_swept, freed=freed,
        )
        return result


CacheLike = Union[None, bool, str, Path, ArtifactCache]


def normalize_cache_setting(
    cache: CacheLike,
) -> Union[None, bool, str, ArtifactCache]:
    """Canonicalize a cache setting without resolving the environment.

    ``Path('/x')``, ``'/x'``, and (when ``/x`` is the default root)
    ``True`` all select the same cache, but as distinct argument values
    they would occupy separate ``us2015`` memoization slots.  This maps
    every spelling onto one canonical, hashable form: ``None`` (defer to
    the environment) and ``False`` (off) pass through, ``True`` becomes
    the default root as a string, and paths become expanded strings.
    """
    if isinstance(cache, ArtifactCache) or cache is None or cache is False:
        return cache
    if cache is True:
        return str(default_cache_root())
    return str(Path(cache).expanduser())


def describe_cache_setting(cache: CacheLike) -> Union[None, bool, str]:
    """JSON-safe rendering of a cache setting (for run manifests)."""
    if isinstance(cache, ArtifactCache):
        return str(cache.root)
    normalized = normalize_cache_setting(cache)
    if isinstance(normalized, ArtifactCache):  # pragma: no cover
        return str(normalized.root)
    return normalized


def resolve_cache(cache: CacheLike) -> Optional[ArtifactCache]:
    """Map a user-facing cache setting onto an :class:`ArtifactCache`.

    ``None`` defers to the environment: caching turns on when
    ``REPRO_CACHE_DIR`` is set or ``REPRO_CACHE`` is truthy, and an
    explicit falsy ``REPRO_CACHE`` wins over both.  ``True``/``False``
    force it; a path selects a specific root; an existing cache object
    passes through.
    """
    if isinstance(cache, ArtifactCache):
        return cache
    if cache is True:
        return ArtifactCache()
    if cache is False:
        return None
    if cache is None:
        flag = os.environ.get("REPRO_CACHE")
        if flag is not None and flag.strip().lower() in _FALSE:
            return None
        if os.environ.get("REPRO_CACHE_DIR"):
            return ArtifactCache()
        if flag is not None and flag.strip().lower() in _TRUE:
            return ArtifactCache()
        return None
    return ArtifactCache(cache)
