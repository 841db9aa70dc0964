"""Run one workload of the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http-window --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's entry points with timers and reports the
per-layer metrics instead.  Every output is checked against a reference
computed by another path.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric
with its value and unit); the lines before it are the run's provenance
and workload census.  The exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bootstrap() -> None:
    """Put the benchmark, the shared bench helpers and the package source
    on the import path; refuse to run outside a repository checkout."""
    src, benches = ROOT / "src", ROOT / "benchmarks"
    if not (src / "repro").is_dir() or not (benches / "bench_threads.py").is_file():
        raise SystemExit(
            "error: src/repro or benchmarks/ not found; run from a checkout "
            "of the repository"
        )
    for path in (src, benches, HERE):
        sys.path.insert(0, str(path))


def _cpu_times() -> list[int]:
    """Aggregate CPU tick counters (user .. steal) from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:9]]
    except OSError:
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine meanwhile."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    # Pins BLAS/OpenMP to one thread before numpy loads (env is inherited
    # by the gateway subprocess too).
    import bench_threads  # noqa: F401
    from common import bench_host_metadata

    import config
    import workloads
    from repro import api

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def terminate(signum, frame):
        # Unwinding through an in-process service holding its lock could
        # hang, so a terminated run kills what it started and leaves now.
        for proc in list(workloads.Gateway.live):
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    cpu_before = _cpu_times()
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    missing = [name for name in wanted if name not in result.metrics]
    if missing:
        raise SystemExit(f"error: workload did not produce {missing}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": api.kernel_backend(),
        "rates": vars(config.RATES[args.workload]),
        "host": bench_host_metadata(),
        "cpu_steal_share": _steal_share(cpu_before, _cpu_times()),
        "census": result.info,
    }
    print(json.dumps(provenance, default=str))
    for name in wanted:
        print(f"  {name:32s} {result.metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": units[name]}
            for name in wanted
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
