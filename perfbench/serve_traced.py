"""The what-if server with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py OUT STAGE_PREFIX -- <repro
CLI arguments>``.  Runs ``repro.cli.main`` on the arguments (a ``serve``
command) and, when it returns after SIGINT, writes the layer records
to OUT as JSON.
"""

from __future__ import annotations

import json
import sys

import layers


def main(argv) -> int:
    out, stage_prefix, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    recorder = layers.Recorder()
    layers.install(recorder, stage_prefix=stage_prefix)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        with open(out, "w") as handle:
            json.dump(recorder.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
