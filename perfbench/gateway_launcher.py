"""Run the ``repro`` CLI with the benchmark's layer timers installed.

Usage::

    python3 perfbench/gateway_launcher.py SPANS_OUT gateway MODEL.npz [...]

Installs :mod:`tracer`'s wrappers before the CLI builds its service (so
shard workers forked from this process inherit them), runs
``repro.cli.main`` with the remaining arguments, and writes every span to
``SPANS_OUT`` once the CLI returns (SIGTERM takes the CLI's graceful
path).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


def main() -> int:
    spans_out, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = tracer.Recorder(first_id=tracer.SUBPROCESS_FIRST_ID)
    tracer.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
