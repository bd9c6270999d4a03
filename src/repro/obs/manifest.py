"""JSON run manifests: the replayable record of one analysis run.

A manifest captures everything needed to understand (and re-run) an
analysis: the scenario configuration, the package-source hash the
artifact cache keys on, the full span tree from the tracer, and a flat
``timings`` map compatible with the ``BENCH_*.json`` benchmark records.

Schema (version 1)::

    {
      "schema": 1,
      "code_version": "<16-hex hash of the repro sources>",
      "config": {"seed": ..., "campaign_traces": ..., "workers": ...,
                 "cache": null | false | "<root path>"},
      "meta": {...},                      # free-form (argv, bench name)
      "spans": [ {"name", "duration_s", "attrs"?, "counters"?,
                  "children"?: [...]}, ... ],
      "timings": {"<span path>": seconds, ...}   # BENCH-compatible
    }

``python -m repro ... --trace PATH`` writes one;
``python -m repro trace summarize PATH`` renders it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.serialize import to_jsonable
from repro.obs.tracer import Tracer

SCHEMA_VERSION = 1


def _walk(
    spans: List[Dict[str, Any]], prefix: str = "", depth: int = 0
) -> Iterator[Tuple[str, int, Dict[str, Any]]]:
    """Depth-first ``(path, depth, span_dict)`` over serialized spans."""
    for span in spans:
        path = f"{prefix}/{span['name']}" if prefix else span["name"]
        yield path, depth, span
        yield from _walk(span.get("children", []), path, depth + 1)


class RunManifest:
    """Spans + configuration + code version for one traced run."""

    def __init__(
        self,
        spans: List[Dict[str, Any]],
        config: Optional[Dict[str, Any]] = None,
        code_version: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.spans = spans
        self.config = dict(config) if config else {}
        if code_version is None:
            from repro.perf.cache import code_version as _code_version

            code_version = _code_version()
        self.code_version = code_version
        self.meta = dict(meta) if meta else {}

    # ------------------------------------------------------------------
    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        config: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        return cls(spans=tracer.to_dicts(), config=config, meta=meta)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {schema!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        return cls(
            spans=payload.get("spans", []),
            config=payload.get("config"),
            code_version=payload.get("code_version", "unknown"),
            meta=payload.get("meta"),
        )

    # ------------------------------------------------------------------
    def timings(self) -> Dict[str, float]:
        """Flat ``{span path: seconds}`` map (the BENCH-compatible view)."""
        flat: Dict[str, float] = {}
        for path, _, span in _walk(self.spans):
            flat[path] = flat.get(path, 0.0) + float(
                span.get("duration_s", 0.0)
            )
        return flat

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "code_version": self.code_version,
            "config": to_jsonable(self.config),
            "meta": to_jsonable(self.meta),
            "spans": self.spans,
            "timings": self.timings(),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Atomically write the manifest (temp file, then ``os.replace``).

        A crash mid-write must not leave a truncated manifest that
        ``trace summarize`` then chokes on — the same guarantee
        ``ArtifactCache.store`` makes for cache entries.
        """
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent) or ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def summary_text(self, max_spans: int = 400) -> str:
        """Human-readable tree: one line per span, durations and attrs."""
        lines = [f"run manifest (schema {SCHEMA_VERSION}, "
                 f"code {self.code_version})"]
        if self.config:
            rendered = " ".join(
                f"{k}={v}" for k, v in sorted(self.config.items())
            )
            lines.append(f"config: {rendered}")
        if self.meta:
            rendered = " ".join(
                f"{k}={v}" for k, v in sorted(self.meta.items())
            )
            lines.append(f"meta: {rendered}")
        lines.append(f"{'span':48s} {'time':>9s}  details")
        shown = 0
        total = 0
        for _, depth, span in _walk(self.spans):
            total += 1
            if shown >= max_spans:
                continue
            shown += 1
            label = ("  " * depth) + span["name"]
            details = []
            for key, value in span.get("attrs", {}).items():
                details.append(f"{key}={value}")
            for key, value in span.get("counters", {}).items():
                details.append(f"{key}+{value}")
            lines.append(
                f"{label:48s} {span.get('duration_s', 0.0):8.3f}s  "
                f"{' '.join(details)}".rstrip()
            )
        if total > shown:
            lines.append(f"... {total - shown} more span(s) elided")
        top_level = sum(
            float(s.get("duration_s", 0.0)) for s in self.spans
        )
        lines.append(
            f"{total} span(s), {top_level:.3f}s across top-level stages"
        )
        return "\n".join(lines)
