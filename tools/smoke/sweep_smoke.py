"""Sweep orchestrator CI smoke.

Run from the repository root:
``PYTHONPATH=src python tools/smoke/sweep_smoke.py``.

Runs a tiny 2×2 grid (two seeds × greedy/random) over a process pool
with a temporary shared cache root and asserts the properties the
sweep layer guarantees:

* every cell completes ``ok`` and carries its own RunManifest;
* shared-cache dedup is observable — cells reuse stage artifacts that
  other cells (possibly concurrently, via the single-flight key lock)
  built, yielding at least one cross-cell hit;
* the columnar summary aggregates gain per driver across cells;
* the per-sweep manifest round-trips through ``RunManifest.write``.

Exit code 0 on success; any failed assertion prints and exits 1.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path


def main() -> int:
    from repro.obs.manifest import RunManifest
    from repro.sweep import expand_grid, parse_grid, run_sweep

    axes = parse_grid(
        ["seed=2015..2016", "driver=greedy,random", "max_k=2"]
    )
    cells = expand_grid(axes)
    assert len(cells) == 4, f"expected a 2x2 grid, got {len(cells)} cells"
    with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as root:
        result = run_sweep(
            cells,
            isps=["Telia", "Tata"],
            cache=root,
            workers=2,
        )
        failures = []
        for cell in result.cells:
            label = (
                f"seed={cell['cell']['seed']} driver={cell['cell']['driver']}"
            )
            if not cell["ok"]:
                failures.append(f"cell {label} failed:\n{cell['error']}")
                continue
            manifest = cell.get("manifest")
            if not manifest or not manifest.get("spans"):
                failures.append(f"cell {label} has no per-cell manifest spans")
            metrics = cell["metrics"]
            if set(metrics["gains"]) != {"Telia", "Tata"}:
                failures.append(f"cell {label} gains missing ISPs: {metrics['gains']}")
        dedup = result.cache_dedup()
        if dedup["cross_cell_hits"] < 1:
            failures.append(f"no cross-cell cache dedup observed: {dedup}")
        aggregates = result.aggregates
        per_driver = aggregates.get("gain_per_driver") or {}
        if set(per_driver) != {"greedy", "random"}:
            failures.append(f"missing per-driver aggregates: {sorted(per_driver)}")
        manifest_path = Path(root) / "sweep_manifest.json"
        result.write_manifest(manifest_path)
        loaded = RunManifest.load(manifest_path)
        cell_spans = [s for s in loaded.spans if s["name"] == "sweep.cell"]
        if len(cell_spans) != 4:
            failures.append(
                f"sweep manifest should carry 4 sweep.cell spans, "
                f"got {len(cell_spans)}"
            )
        if "cache_dedup" not in loaded.meta:
            failures.append("sweep manifest meta lacks cache_dedup accounting")
        if len(loaded.meta.get("cell_manifests") or []) != 4:
            failures.append("sweep manifest should embed 4 cell manifests")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"sweep smoke ok: {len(result.cells)} cells in "
            f"{result.total_s:.1f}s (workers=2), dedup "
            f"{dedup['cross_cell_hits']} hit(s) / "
            f"{dedup['coalesced']} coalesced"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
