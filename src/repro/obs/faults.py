"""Deterministic fault injection: chaos-testing the execution layer.

The paper's thesis is that shared infrastructure must survive component
failure; this module lets the toolkit hold itself to the same standard.
A :class:`FaultPlan` describes *which* faults to inject — worker-process
crashes inside campaign shards or destination-row tasks, corrupted
cache payloads, failed cache writes — and a :class:`FaultInjector`
carries that plan across process boundaries and decides,
deterministically, when each fault fires.

Determinism has two parts:

* **Selection** is pure: whether a fault targets a given key (a shard's
  start index, a rows task's part, a cache stage name) is a hash of
  ``(seed, kind, key)``, so the same plan always picks the same
  victims.
* **Repetition** is bounded: every selected fault fires at most
  ``repeats`` times per key, tracked by ``O_CREAT | O_EXCL`` marker
  files under a state directory that survives worker-pool respawns.
  A shard killed once is killed exactly once; its retry runs clean.

Because the campaign's per-trace RNG streams make shard replay free,
an injected crash is *invisible in the output*: the recovered campaign
is byte-identical to a fault-free run — which is exactly what the chaos
tests assert.

Activation: install an injector explicitly (``set_fault_injector`` /
``fault_injection``), or set ``REPRO_FAULTS`` in the environment, e.g.
``REPRO_FAULTS="seed=7,crash_rate=0.4"`` — the spec the CI chaos job
uses to run the regular campaign/cache test subset under fire.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Tuple, Union

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectedWriteError",
    "get_fault_injector",
    "set_fault_injector",
    "fault_injection",
]


class InjectedWriteError(OSError):
    """The injected cache-write failure (an ``OSError`` subclass, so
    production code handles it exactly like a real disk error)."""


def _chance(seed: int, kind: str, key: str) -> float:
    """Stable uniform draw in ``[0, 1)`` for one ``(seed, kind, key)``."""
    digest = hashlib.blake2b(
        f"{seed}:{kind}:{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how often, and with which seed.

    Rate fields select victims probabilistically (but deterministically:
    the draw hashes the seed and the target key); the explicit tuple
    fields name victims outright.  ``repeats`` bounds how many times any
    selected fault fires per key — the default of 1 models a transient
    failure that a single retry clears.
    """

    seed: int = 0
    #: Shard start indices whose worker is killed (``os._exit``).
    crash_shards: Tuple[int, ...] = ()
    #: Rows-task parts (``k`` of a pool's ``k::n_workers`` destination
    #: split) whose worker is killed.
    crash_rows: Tuple[int, ...] = ()
    #: Probability any shard's or rows task's worker is killed.
    crash_rate: float = 0.0
    #: Cache stages whose stored payload is corrupted on disk.
    corrupt_stages: Tuple[str, ...] = ()
    #: Probability any cache store writes a corrupted payload.
    corrupt_rate: float = 0.0
    #: Cache stages whose ``store()`` raises :class:`InjectedWriteError`.
    write_fail_stages: Tuple[str, ...] = ()
    #: Probability any cache store raises.
    write_fail_rate: float = 0.0
    #: Times each selected fault fires per key before going quiet.
    repeats: int = 1

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` spec: ``k=v`` pairs, comma-separated.

        Tuple fields take ``:``-separated values, e.g.
        ``"seed=7,crash_rate=0.4,corrupt_stages=campaign:overlay"``.
        """
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, raw = item.partition("=")
            name = name.strip()
            if name not in types:
                raise ValueError(f"unknown fault field {name!r} in {spec!r}")
            raw = raw.strip()
            if name in ("seed", "repeats"):
                kwargs[name] = int(raw)
            elif name.endswith("_rate"):
                kwargs[name] = float(raw)
            elif name in ("crash_shards", "crash_rows"):
                kwargs[name] = tuple(
                    int(v) for v in raw.split(":") if v
                )
            else:
                kwargs[name] = tuple(v for v in raw.split(":") if v)
        return cls(**kwargs)

    def any_faults(self) -> bool:
        return bool(
            self.crash_shards or self.crash_rows or self.crash_rate
            or self.corrupt_stages or self.corrupt_rate
            or self.write_fail_stages or self.write_fail_rate
        )


class FaultInjector:
    """Executes a :class:`FaultPlan`; safe to pickle into worker pools.

    The once-per-key bookkeeping lives in marker files under
    ``state_dir`` (a fresh temp directory by default), so decisions stay
    consistent across forked workers, respawned pools, and concurrent
    processes sharing one injector.
    """

    def __init__(
        self, plan: FaultPlan, state_dir: Union[str, Path, None] = None
    ):
        self.plan = plan
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _attempt(self, kind: str, key: str) -> int:
        """Claim and return this call's attempt number for ``(kind, key)``.

        Attempt ``n`` is claimed by exclusively creating marker file
        ``<kind>-<key>.<n>``; ``O_EXCL`` makes the claim race-free
        across processes.
        """
        safe = str(key).replace(os.sep, "_")
        for attempt in range(10_000):
            marker = self.state_dir / f"{kind}-{safe}.{attempt}"
            try:
                fd = os.open(
                    marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue
            os.close(fd)
            return attempt
        return 10_000  # pathological; treat as exhausted

    def _fires(
        self,
        kind: str,
        key: str,
        named: Tuple[object, ...],
        rate: float,
    ) -> bool:
        selected = key in {str(v) for v in named} or (
            rate > 0.0 and _chance(self.plan.seed, kind, key) < rate
        )
        if not selected:
            return False
        return self._attempt(kind, key) < self.plan.repeats

    # ------------------------------------------------------------------
    def maybe_crash_worker(self, shard_start: int) -> None:
        """Kill this process if the plan targets the given shard.

        ``os._exit`` models a hard worker death (OOM kill, segfault):
        no exception propagates, no cleanup runs, and the parent's
        ``ProcessPoolExecutor`` surfaces it as ``BrokenProcessPool``.
        """
        if self._fires(
            "crash", str(shard_start),
            self.plan.crash_shards, self.plan.crash_rate,
        ):
            os._exit(13)

    def maybe_crash_rows(self, part: int) -> None:
        """Kill this process if the plan targets rows task *part*.

        Keyed apart from shard starts (rows part 0 is not shard 0), so
        ``crash_shards`` keeps naming shards only, while ``crash_rate``
        reaches both kinds of task.
        """
        if self._fires(
            "crash_rows", str(part),
            self.plan.crash_rows, self.plan.crash_rate,
        ):
            os._exit(13)

    def corrupt_payload(self, stage: str, payload: bytes) -> bytes:
        """Return *payload*, possibly deterministically mangled."""
        if self._fires(
            "corrupt", stage,
            self.plan.corrupt_stages, self.plan.corrupt_rate,
        ):
            from repro.obs.tracer import get_tracer

            get_tracer().event("faults.corrupt_store", stage=stage)
            # Truncate and scramble the head: guaranteed to fail
            # ``pickle.loads`` whatever the original protocol.
            return b"\x80corrupt" + payload[: max(1, len(payload) // 2)]
        return payload

    def maybe_fail_write(self, stage: str) -> None:
        """Raise :class:`InjectedWriteError` if the plan targets *stage*."""
        if self._fires(
            "write_fail", stage,
            self.plan.write_fail_stages, self.plan.write_fail_rate,
        ):
            from repro.obs.tracer import get_tracer

            get_tracer().event("faults.write_fail", stage=stage)
            raise InjectedWriteError(
                f"injected cache write failure for stage {stage!r}"
            )


# ----------------------------------------------------------------------
# Process-global injector.  ``None`` means "not yet resolved": the first
# ``get_fault_injector`` call consults ``REPRO_FAULTS`` once and caches
# the outcome (possibly "no faults").  Forked campaign workers inherit
# the resolved injector; spawn-based pools receive it via initargs.
_FAULT_INJECTOR: Optional[FaultInjector] = None
_RESOLVED = False


def get_fault_injector() -> Optional[FaultInjector]:
    """The active injector, or ``None`` when no faults are configured."""
    global _FAULT_INJECTOR, _RESOLVED
    if not _RESOLVED:
        _RESOLVED = True
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        if spec:
            plan = FaultPlan.from_spec(spec)
            if plan.any_faults():
                _FAULT_INJECTOR = FaultInjector(plan)
    return _FAULT_INJECTOR


def set_fault_injector(
    injector: Optional[FaultInjector],
) -> Optional[FaultInjector]:
    """Install *injector* globally; returns the previous one.

    Passing ``None`` disables injection (and suppresses any
    ``REPRO_FAULTS`` environment spec until re-resolved).
    """
    global _FAULT_INJECTOR, _RESOLVED
    previous = _FAULT_INJECTOR if _RESOLVED else get_fault_injector()
    _FAULT_INJECTOR = injector
    _RESOLVED = True
    return previous


class fault_injection:
    """``with fault_injection(FaultPlan(...)):`` — scoped chaos."""

    def __init__(
        self,
        plan: FaultPlan,
        state_dir: Union[str, Path, None] = None,
    ):
        self.injector = FaultInjector(plan, state_dir=state_dir)
        self._previous: Optional[FaultInjector] = None

    def __enter__(self) -> FaultInjector:
        self._previous = set_fault_injector(self.injector)
        return self.injector

    def __exit__(self, *exc: object) -> bool:
        set_fault_injector(self._previous)
        return False
