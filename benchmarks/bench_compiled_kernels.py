"""Compiled kernel backend vs numpy — PR 10 (ROADMAP item 3, final leg).

Not a paper table: this bench pins the ``compiled`` kernel backend
(:mod:`repro.hmm.backends.compiled` — C via the host toolchain +
``ctypes``) against the numpy hot paths it replaces, at the service's
reference shape (N=32 states, M=64 symbols, W=15 windows):

* **per-event streaming** — ``streaming_step`` through the compiled
  backend versus the numpy incremental filter — target >= 2x events/s;
* **batch scoring** — ``score_sequences`` under a compiled
  ``backend_scope`` versus the numpy tiled kernel over a 4096-window
  batch — target >= 1.5x rows/s;
* **fleet scoring** — ``log_likelihood_fleet`` (the service's fused
  drain kernel, 100 detectors x 32 half-duplicate windows) under either
  backend — target >= 1.5x windows/s.

The speedups are only meaningful because of the bit-identity gates
(exit code 1 on any divergence — perf floors are held separately by the
committed deflated baseline via ``check_bench_regression.py``):

* compiled ≡ numpy exactly, for all three kernels, on the same inputs;
* compiled streaming ≡ the verbatim **legacy** filter
  (``tests.oracles.LegacyStreamingScorer``), through a mid-stream reset
  and a warm-swap rebind, so the whole oracle chain legacy ≡
  incremental-numpy ≡ compiled is pinned;
* compiled batch scoring keeps **batch-invariance** (scoring a subset
  of rows ≡ the same rows inside the full batch — what
  ``log_likelihood_unique``'s dedup scatter relies on);
* compiled fleet scoring ≡ per-model ``log_likelihood_unique``;
* a single-shard ``DetectionService`` resolves bit-identical outcomes
  under ``ServiceConfig(kernel_backend="compiled")`` and the default.

A host without a C toolchain cannot run the comparison: the bench
reports the fallback and exits 1 (CI's ``bench-compiled`` stage provides
a compiler; the separate no-compiler job asserts the *product* degrades
gracefully — that is tier-1's and ``tests/test_backends.py``'s job, not
this bench's).

Usage::

    python benchmarks/bench_compiled_kernels.py [--smoke] [--out BENCH_compiled.json]

``--smoke`` shrinks repetitions and stream length (not shapes) for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.api import load_pretrained
from repro.core.streaming import StreamingScorer
from repro.hmm import random_model
from repro.hmm.backends import backend_scope, resolve_backend
from repro.hmm.kernels import (
    StreamingState,
    log_likelihood_fleet,
    log_likelihood_unique,
    score_fleet,
    score_sequences,
    streaming_reset,
    streaming_step,
)
from repro.service import DetectionService
from repro.service.config import ServiceConfig

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from common import (  # noqa: E402
    bench_host_metadata,
    bench_output_path,
    best_of,
    print_block,
    shape_line,
)
from tests.oracles import LegacyStreamingScorer  # noqa: E402

# Reference shape: the service's mid-sized models at the paper's window.
N_STATES = 32
N_SYMBOLS = 64
WINDOW = 15
STREAM_EVENTS = 4000
BATCH_ROWS = 4096
FLEET_DETECTORS = 100
WINDOWS_PER_DETECTOR = 32
DUPLICATE_FRACTION = 0.5

STREAMING_TARGET = 2.0
BATCH_TARGET = 1.5
FLEET_TARGET = 1.5


# ---------------------------------------------------------------------------
# Bit-identity gates
# ---------------------------------------------------------------------------


def _gate_batch(model, obs) -> tuple[bool, bool]:
    """compiled ≡ numpy, and compiled keeps batch-invariance."""
    with backend_scope("numpy"):
        expected = score_sequences(model, obs)
    with backend_scope("compiled"):
        got = score_sequences(model, obs)
        subset = score_sequences(model, obs[31:74])
    identical = expected.tobytes() == got.tobytes()
    invariant = got[31:74].tobytes() == subset.tobytes()
    return identical, invariant


def _gate_fleet(models, obs_list) -> tuple[bool, bool]:
    """compiled fleet ≡ numpy fleet ≡ per-model unique scoring."""
    with backend_scope("numpy"):
        expected = log_likelihood_fleet(models, obs_list)
    with backend_scope("compiled"):
        got = log_likelihood_fleet(models, obs_list)
        per_model = [
            log_likelihood_unique(model, obs)
            for model, obs in zip(models, obs_list)
        ]
    identical = all(e.tobytes() == g.tobytes() for e, g in zip(expected, got))
    vs_unique = all(
        g.tobytes() == u.tobytes() for g, u in zip(got, per_model)
    )
    return identical, vs_unique


def _gate_streaming(model, swap_model, symbols) -> bool:
    """compiled ≡ numpy ≡ verbatim legacy filter, through reset+rebind."""
    compiled = StreamingScorer(model, window=WINDOW)
    numpy_fast = StreamingScorer(model, window=WINDOW)
    legacy = LegacyStreamingScorer(model, window=WINDOW)
    scorers = (compiled, numpy_fast, legacy)
    third = len(symbols) // 3
    for position, symbol in enumerate(symbols):
        if position == third:
            for scorer in scorers:
                scorer.reset()
        if position == 2 * third:
            for scorer in scorers:
                scorer.rebind(swap_model)
        with backend_scope("compiled"):
            surprises = {compiled.observe(symbol)}
        with backend_scope("numpy"):
            surprises.add(numpy_fast.observe(symbol))
        surprises.add(legacy.observe(symbol))
        if len(surprises) != 1:
            return False
        fulls = {scorer.window_full for scorer in scorers}
        if len(fulls) != 1:
            return False
        if compiled.window_full:
            scores = {scorer.windowed_score for scorer in scorers}
            if len(scores) != 1:
                return False
    return True


def _service_outcomes(backend_name, models, batches):
    service = DetectionService(
        ServiceConfig(kernel_backend=backend_name), clock=lambda: 0.0
    )
    for index, model in enumerate(models):
        service.register(
            f"det{index}",
            load_pretrained(model, name=f"det{index}"),
            threshold=-3.5,
        )
    tickets = []
    for index, windows in enumerate(batches):
        for tenant, window in enumerate(windows):
            tickets.append(
                service.submit(
                    f"det{index}", f"tenant-{tenant % 8}", window=window
                )
            )
    service.drain_pending()
    return [ticket.result() for ticket in tickets]


def _gate_service(models, symbol_batches) -> bool:
    """Single-shard service outcomes are backend-independent, bit for bit."""
    baseline = _service_outcomes(None, models, symbol_batches)
    compiled = _service_outcomes("compiled", models, symbol_batches)
    return len(baseline) == len(compiled) and all(
        type(a) is type(b)
        and a.score == b.score
        and a.anomalous == b.anomalous
        and a.batch_size == b.batch_size
        for a, b in zip(baseline, compiled)
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _fleet_windows(rng):
    """Per-detector (B, W) index batches with the service's duplicate mix."""
    batches = []
    unique_rows = int(WINDOWS_PER_DETECTOR * (1 - DUPLICATE_FRACTION))
    for _ in range(FLEET_DETECTORS):
        unique = rng.integers(0, N_SYMBOLS, size=(unique_rows, WINDOW))
        rows = np.concatenate([unique, unique])[
            rng.permutation(WINDOWS_PER_DETECTOR)
        ]
        batches.append(rows)
    return batches


def run(smoke: bool, out_path: Path) -> int:
    symbols = [f"sym{i}" for i in range(N_SYMBOLS)]
    model = random_model(symbols, n_states=N_STATES, seed=3)
    swap_model = random_model(symbols, n_states=N_STATES, seed=4)
    rng = np.random.default_rng(11)
    events = 1000 if smoke else STREAM_EVENTS
    # The timed loops are milliseconds; the gates dominate either way.
    # best_of needs several observations to shed scheduler contention,
    # so even smoke keeps real repetition counts.
    reps = 3 if smoke else 5
    score_reps = 5 if smoke else 9

    backend = resolve_backend("compiled")
    available = backend.name == "compiled"
    payload_backend = {"requested": "compiled", "effective": backend.name,
                       "available": available}
    if not available:
        payload = {
            "bench": "compiled_kernels",
            "host": bench_host_metadata(),
            "smoke": smoke,
            "backend": payload_backend,
        }
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print_block(
            "Compiled kernel backend — UNAVAILABLE",
            "  no C toolchain (or build/probe failure); compiled-vs-numpy "
            "comparison impossible on this host\n"
            f"  -> {out_path}",
        )
        return 1

    indices = [int(s) for s in rng.integers(0, N_SYMBOLS, size=events)]
    stream = [symbols[index] for index in indices]
    batch_obs = rng.integers(0, N_SYMBOLS, size=(BATCH_ROWS, WINDOW))
    fleet_models = [
        random_model(symbols, n_states=N_STATES, seed=100 + index)
        for index in range(FLEET_DETECTORS)
    ]
    fleet_obs = _fleet_windows(rng)
    service_models = fleet_models[:8]
    service_batches = [
        [[symbols[int(s)] for s in row] for row in rows[:8]]
        for rows in fleet_obs[:8]
    ]

    # -- bit-identity gates first: a fast backend that computes the wrong
    # bits is a regression, not a win.
    batch_identical, batch_invariant = _gate_batch(model, batch_obs)
    fleet_identical, fleet_vs_unique = _gate_fleet(fleet_models, fleet_obs)
    streaming_identical = _gate_streaming(model, swap_model, stream)
    service_identical = _gate_service(service_models, service_batches)

    # -- per-event streaming_step throughput: the kernel itself, on one
    # persistent StreamingState (how a long-lived monitor session pays for
    # it), not StreamingScorer.observe — the scorer's symbol lookup and
    # bookkeeping are backend-independent and would dilute both sides
    # equally.
    state = StreamingState(model, WINDOW)

    def run_stream(backend_name):
        resolved = resolve_backend(backend_name)

        def body():
            streaming_reset(model, state)
            if resolved.dispatches:
                # The held backend instance, as streaming_step reaches it
                # under a scope, minus the per-event scope lookup; a step
                # the backend declines (None) runs on the default path.
                for index in indices:
                    if resolved.streaming_step(model, state, index) is None:
                        streaming_step(model, state, index)
            else:
                for index in indices:
                    streaming_step(model, state, index)

        return body

    run_stream("compiled")()  # warm-up (build, probes, ctx binding)
    numpy_stream_s = best_of(reps, run_stream("numpy"))
    compiled_stream_s = best_of(reps, run_stream("compiled"))
    streaming_speedup = numpy_stream_s / compiled_stream_s

    # -- batch scoring throughput (dedup-free: pure kernel comparison).
    def run_batch(backend_name):
        def body():
            with backend_scope(backend_name):
                score_sequences(model, batch_obs)
        return body

    numpy_batch_s = best_of(score_reps, run_batch("numpy"))
    compiled_batch_s = best_of(score_reps, run_batch("compiled"))
    batch_speedup = numpy_batch_s / compiled_batch_s

    # -- fleet contraction throughput: score_fleet over each detector's
    # *distinct* rows — the kernel the fused drain dispatches after its
    # (backend-independent) hash-dedup, measured the same way the
    # streaming section measures streaming_step.  The full
    # dedup-and-scatter path is held bit-identical by _gate_fleet above.
    fleet_unique = [
        np.unique(rows, axis=0) for rows in fleet_obs
    ]

    def run_fleet(backend_name):
        def body():
            with backend_scope(backend_name):
                score_fleet(fleet_models, fleet_unique)
        return body

    numpy_fleet_s = best_of(score_reps, run_fleet("numpy"))
    compiled_fleet_s = best_of(score_reps, run_fleet("compiled"))
    fleet_speedup = numpy_fleet_s / compiled_fleet_s

    n_fleet_windows = sum(rows.shape[0] for rows in fleet_unique)
    payload = {
        "bench": "compiled_kernels",
        "host": bench_host_metadata(),
        "smoke": smoke,
        "backend": payload_backend,
        "shape": {
            "n_states": N_STATES,
            "n_symbols": N_SYMBOLS,
            "window": WINDOW,
            "stream_events": events,
            "batch_rows": BATCH_ROWS,
            "fleet_detectors": FLEET_DETECTORS,
            "windows_per_detector": WINDOWS_PER_DETECTOR,
            "duplicate_fraction": DUPLICATE_FRACTION,
        },
        "streaming": {
            "numpy_events_per_s": round(events / numpy_stream_s, 1),
            "compiled_events_per_s": round(events / compiled_stream_s, 1),
            "speedup": round(streaming_speedup, 3),
            "target": STREAMING_TARGET,
            "met": streaming_speedup >= STREAMING_TARGET,
        },
        "batch": {
            "numpy_rows_per_s": round(BATCH_ROWS / numpy_batch_s, 1),
            "compiled_rows_per_s": round(BATCH_ROWS / compiled_batch_s, 1),
            "speedup": round(batch_speedup, 3),
            "target": BATCH_TARGET,
            "met": batch_speedup >= BATCH_TARGET,
        },
        "fleet": {
            "numpy_windows_per_s": round(n_fleet_windows / numpy_fleet_s, 1),
            "compiled_windows_per_s": round(n_fleet_windows / compiled_fleet_s, 1),
            "speedup": round(fleet_speedup, 3),
            "target": FLEET_TARGET,
            "met": fleet_speedup >= FLEET_TARGET,
        },
        "bit_identity": {
            "batch_compiled_vs_numpy": bool(batch_identical),
            "batch_subset_invariance": bool(batch_invariant),
            "fleet_compiled_vs_numpy": bool(fleet_identical),
            "fleet_compiled_vs_per_model_unique": bool(fleet_vs_unique),
            "streaming_compiled_vs_numpy_vs_legacy": bool(streaming_identical),
            "service_outcomes_backend_independent": bool(service_identical),
        },
        "env": {
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    body = "\n".join(
        [
            f"  shape: N={N_STATES} M={N_SYMBOLS} W={WINDOW} events={events} "
            f"batch={BATCH_ROWS} fleet={FLEET_DETECTORS}x{WINDOWS_PER_DETECTOR}"
            + ("  (smoke)" if smoke else ""),
            f"  streaming  numpy {events / numpy_stream_s:10.0f} ev/s   "
            f"compiled {events / compiled_stream_s:10.0f} ev/s   "
            f"{streaming_speedup:.2f}x",
            f"  batch      numpy {BATCH_ROWS / numpy_batch_s:10.0f} row/s  "
            f"compiled {BATCH_ROWS / compiled_batch_s:10.0f} row/s  "
            f"{batch_speedup:.2f}x",
            f"  fleet      numpy {n_fleet_windows / numpy_fleet_s:10.0f} win/s  "
            f"compiled {n_fleet_windows / compiled_fleet_s:10.0f} win/s  "
            f"{fleet_speedup:.2f}x",
            f"  -> {out_path}",
            shape_line(
                "compiled batch scorer is bit-identical to numpy",
                batch_identical,
            ),
            shape_line(
                "compiled batch scorer keeps batch-invariance",
                batch_invariant,
            ),
            shape_line(
                "compiled fleet scoring is bit-identical to numpy",
                fleet_identical,
            ),
            shape_line(
                "compiled fleet ≡ per-model unique scoring",
                fleet_vs_unique,
            ),
            shape_line(
                "compiled streaming ≡ numpy ≡ verbatim legacy filter",
                streaming_identical,
            ),
            shape_line(
                "service outcomes are backend-independent",
                service_identical,
            ),
            shape_line(
                f"per-event streaming >= {STREAMING_TARGET}x",
                streaming_speedup >= STREAMING_TARGET,
            ),
            shape_line(
                f"batch scoring >= {BATCH_TARGET}x",
                batch_speedup >= BATCH_TARGET,
            ),
            shape_line(
                f"fleet scoring >= {FLEET_TARGET}x",
                fleet_speedup >= FLEET_TARGET,
            ),
        ]
    )
    print_block("Compiled kernel backend vs numpy", body)

    gates_ok = (
        batch_identical
        and batch_invariant
        and fleet_identical
        and fleet_vs_unique
        and streaming_identical
        and service_identical
    )
    if not gates_ok:
        print("bit-identity gate FAILED", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer repetitions and a shorter stream (same shapes) for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_compiled.json at the repo "
        "root; see common.bench_output_path)",
    )
    args = parser.parse_args(argv)
    return run(args.smoke, args.out or bench_output_path("BENCH_compiled.json"))


if __name__ == "__main__":
    raise SystemExit(main())
