"""Models and inputs of the benchmark workloads.

Models are trained on a fixed corpus (the workload suite's own seed), so a
run's training cost does not depend on ``--seed``; the seed draws what is
sent: held-out normal traces, attack windows, their order and the arrival
times.  Everything is built through the public surfaces — ``repro.api``,
``repro.program``, ``repro.tracing`` and ``repro.attacks`` — and looked up
at call time, so traced runs see the wrapped entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import api, attacks, program, telemetry, tracing
from repro.core.detector import DetectorConfig
from repro.hmm.baumwelch import TrainingConfig

WINDOW = 15
TRAINING_SEED = 7
#: held-out traces come from another run of the workload suite
HELD_OUT_SEED_BASE = 10_000


class TimedExecutor(tracing.TraceExecutor):
    """The default trace executor, timing each test case it runs."""

    def __init__(self, prog) -> None:
        super().__init__(prog)
        self.case_s: list[float] = []

    def run(self, case_id: str, seed: int):
        started = time.perf_counter()
        result = super().run(case_id, seed)
        self.case_s.append(time.perf_counter() - started)
        return result


#: Telemetry spans inside ``api.fit`` that time its units (none nests
#: inside another): the static-analysis phases and each EM iteration.
FIT_SPANS = frozenset({
    "analysis.context_identification",
    "analysis.probability_estimation",
    "analysis.aggregation",
    "hmm.train.iteration",
})


class SpanClock(telemetry.ProfilerHook):
    """Collects the wall time of each ``FIT_SPANS`` span, in order."""

    def __init__(self) -> None:
        self.span_s: list[float] = []

    def on_span_end(self, span) -> None:
        if span.name in FIT_SPANS:
            self.span_s.append(span.wall_s)


@dataclass
class Fitted:
    """A fitted detector and how long program-to-model took, in total
    and per timed unit: each test case of the trace run, the rest of the
    trace run, segments, building the detector, each ``FIT_SPANS`` span
    of ``api.fit`` (static analysis, Baum-Welch iterations) and the rest
    of ``api.fit``."""

    name: str
    detector: object
    seconds: float
    iterations: int
    units: tuple[float, ...] = ()

    @property
    def shape(self) -> tuple[int, int]:
        model = self.detector.model
        return model.n_states, model.n_symbols


def fit_cmarkov(
    name: str,
    kind: str,
    n_cases: int,
    config: DetectorConfig | None = None,
    label: str | None = None,
) -> Fitted:
    """Program -> traces -> segments -> static analysis + init -> Baum-Welch."""
    marks = [time.perf_counter()]
    prog = program.load_program(name)
    executor = TimedExecutor(prog)
    workload = tracing.run_workload(
        prog, n_cases=n_cases, seed=TRAINING_SEED, executor=executor
    )
    marks.append(time.perf_counter())
    segments = tracing.build_segment_set(
        workload.traces, program.CallKind(kind), True, length=WINDOW
    )
    marks.append(time.perf_counter())
    detector = api.build_detector("cmarkov", prog, kind, config=config)
    marks.append(time.perf_counter())
    clock = SpanClock()
    # Telemetry is on only inside api.fit, to time its phases and EM
    # iterations, at the cost of a few counter writes per span.
    with telemetry.session():
        telemetry.add_profiler(clock)
        result = api.fit(detector, segments)
    marks.append(time.perf_counter())
    return Fitted(
        name=label or name,
        detector=detector,
        seconds=marks[-1] - marks[0],
        iterations=result.report.iterations,
        units=(
            *executor.case_s,
            marks[1] - marks[0] - sum(executor.case_s),
            marks[2] - marks[1],
            marks[3] - marks[2],
            *clock.span_s,
            marks[4] - marks[3] - sum(clock.span_s),
        ),
    )


def serving_config(seed: int) -> DetectorConfig:
    """Serving fixtures: a capped, short training (the state count, not
    the training budget, sets the serving cost)."""
    return DetectorConfig(
        training=TrainingConfig(max_iterations=8),
        seed=seed,
        max_training_segments=1500,
    )


def held_out_windows(
    name: str, kind: program.CallKind, n_cases: int, seed: int
) -> list[tuple[str, ...]]:
    """Sliding windows over fresh traces, natural duplicates kept."""
    prog = program.load_program(name)
    workload = tracing.run_workload(
        prog, n_cases=n_cases, seed=HELD_OUT_SEED_BASE + seed
    )
    windows: list[tuple[str, ...]] = []
    for trace in workload.traces:
        windows.extend(
            tracing.segment_symbols(trace.symbols(kind, True), length=WINDOW)
        )
    return windows


def code_reuse_windows(
    name: str, normal: list[tuple[str, ...]], n: int, seed: int
) -> list[tuple[str, ...]]:
    """Syscall exploit windows: normal call order re-sourced through ROP
    gadgets, so only the calling contexts are wrong (the paper's S2)."""
    prog = program.load_program(name)
    image = program.layout_program(prog)
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        host = normal[int(rng.integers(len(normal)))]
        events = attacks.code_reuse_from_normal(host, image, seed=seed * 1000 + k)
        out.append(tuple(event.symbol(True) for event in events))
    return out


def abnormal_windows(
    normal: list[tuple[str, ...]], n: int, seed: int
) -> list[tuple[str, ...]]:
    """The paper's Abnormal-S windows: a normal prefix with a random
    legitimate-call suffix, disjoint from the normal windows."""
    pool = sorted(set(normal))
    calls = sorted({symbol for window in pool for symbol in window})
    known = tracing.SegmentSet(length=WINDOW)
    known.update(pool)
    return attacks.abnormal_s_segments(pool, calls, n, seed=seed, exclude=known)


def mix(
    normal: list, attack: list, rng: np.random.Generator
) -> tuple[list, np.ndarray]:
    """Shuffle normal and attack windows together; returns the windows and
    a boolean attack mask."""
    windows = list(normal) + list(attack)
    is_attack = np.array([False] * len(normal) + [True] * len(attack))
    order = rng.permutation(len(windows))
    return [windows[i] for i in order], is_attack[order]


def duplicate_share(windows: list) -> float:
    """Share of windows that repeat an earlier one."""
    return 1.0 - len(set(windows)) / len(windows) if windows else 0.0
