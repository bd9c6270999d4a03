"""The package imports and runs every experiment without NetworkX.

NetworkX is a test-only dependency: only the oracles in
``tests/oracles/`` use it.  A subprocess with ``networkx`` blocked in
``sys.modules`` imports every ``repro`` module and runs ``repro run all``
on both map families.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import pkgutil, importlib, sys
sys.modules["networkx"] = None
try:
    import networkx
except ImportError:
    pass
else:
    raise SystemExit("networkx was importable")
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
from repro.cli import main
for family in ("us2015", "global2023"):
    code = main(["--family", family, "--traces", "2000", "--no-cache",
                 "run", "all"])
    if code:
        raise SystemExit(f"run all failed on {family}: exit {code}")
"""


def test_run_all_without_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-4000:]
