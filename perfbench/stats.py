"""Measurement helpers of the benchmark: percentiles, due-time latency,
backlog detection, the maximum-rate search and span self time.

Pure numpy, no import of the system under test, so the helpers are
unit-tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample too small to support it."""


def required_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample size whose ``q``-th percentile has ``beyond``
    samples above it (p99 -> 1000, p90 -> 100)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(round(beyond * 100 / (100 - q), 6))


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    values = np.asarray(values, dtype=float)
    if values.size < required_samples(q):
        raise TooFewSamples(
            f"p{q:g} needs >= {required_samples(q)} samples, got {values.size}"
        )
    return float(np.percentile(values, q))


def median(values: Sequence[float]) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise TooFewSamples("median of an empty sample")
    return float(np.median(values))


def due_latency(due: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Latency of each request measured from when it was *due* to be sent.

    A generator that sends late (``sent > due``) does not hide the wait it
    imposed: the latency still starts at ``due``.
    """
    return np.asarray(done, dtype=float) - np.asarray(due, dtype=float)


def lateness(due: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """How late the generator sent each request (never negative)."""
    return np.maximum(np.asarray(sent, dtype=float) - np.asarray(due, dtype=float), 0.0)


def count_misses(latency_s: np.ndarray, ok: np.ndarray, limit_s: float) -> int:
    """Requests that missed the latency limit; a failed, shed or non-200
    request always counts as a miss."""
    latency_s = np.asarray(latency_s, dtype=float)
    ok = np.asarray(ok, dtype=bool)
    late = ~(latency_s <= limit_s)  # NaN (never completed) is late too
    return int(np.count_nonzero(~ok | late))


def allowed_misses(n: int, q: float = 99.0) -> int:
    """Misses a step of ``n`` requests may have while its p``q`` stays
    under the limit."""
    return int(math.floor(n * (100 - q) / 100 + 1e-9))


def outstanding_at_due(due: np.ndarray, done: np.ndarray) -> np.ndarray:
    """For each request, how many earlier requests were still unfinished
    when it fell due (the generator's backlog).

    ``due`` is ascending and no request is sent before it is due, so no
    later request can have finished by an earlier due time: counting all
    finished requests is counting the earlier ones.
    """
    due = np.asarray(due, dtype=float)
    done = np.asarray(done, dtype=float)
    finished = np.sort(np.where(np.isnan(done), np.inf, done))
    return np.arange(due.size) - np.searchsorted(finished, due, side="right")


def backlog_growing(due: np.ndarray, done: np.ndarray, slack: int = 2) -> bool:
    """True when the backlog at the end of a step exceeds the backlog at
    its start by more than ``slack`` requests (medians of the first and
    last quarter)."""
    backlog = outstanding_at_due(due, done)
    if backlog.size < 8:
        return False
    quarter = backlog.size // 4
    head = float(np.median(backlog[:quarter]))
    tail = float(np.median(backlog[-quarter:]))
    return tail > head + slack


@dataclass
class SearchResult:
    """Outcome of :func:`search_max_rate`: the rate and every step tried."""

    max_rate: float
    steps: list[tuple[float, bool]] = field(default_factory=list)


def search_max_rate(
    probe: Callable[[float], bool],
    start: float,
    ratio: float,
    max_steps: int,
    budget_s: float = float("inf"),
    clock: Callable[[], float] = time.monotonic,
) -> SearchResult:
    """Highest rung ``start * ratio**k`` whose ``probe`` passes.

    Climbs from ``start`` while steps pass and stops at the first failing
    step (a p99 over the limit or a growing backlog).  If ``start`` itself
    fails, descends until a step passes.  Every probe is one measured
    step; at most ``max_steps`` are taken, and no step starts once
    ``budget_s`` seconds have passed.  The rungs are fixed by ``start``
    and ``ratio``, so the answer is a rung, never an interpolation;
    ``0.0`` means no step passed.
    """
    if ratio <= 1.0 or start <= 0 or max_steps < 1:
        raise ValueError("search needs start > 0, ratio > 1 and max_steps >= 1")
    deadline = clock() + budget_s

    def more() -> bool:
        return len(result.steps) < max_steps and clock() < deadline

    result = SearchResult(max_rate=0.0)
    rate = start
    passed = probe(rate)
    result.steps.append((rate, passed))
    if passed:
        result.max_rate = rate
        while more():
            rate *= ratio
            passed = probe(rate)
            result.steps.append((rate, passed))
            if not passed:
                break
            result.max_rate = rate
        return result
    while more():
        rate /= ratio
        passed = probe(rate)
        result.steps.append((rate, passed))
        if passed:
            result.max_rate = rate
            break
    return result


@dataclass(frozen=True)
class Span:
    """One recorded call at a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    info: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover.

    Children may overlap each other (concurrent calls) or spill past the
    parent's end; only the union of their intervals inside the parent is
    subtracted, so self time is never negative and never double-counted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }
