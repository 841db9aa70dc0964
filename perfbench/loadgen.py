"""Open-loop load generation: requests are sent on a schedule, whatever
the system's speed, and each is timed from when it was due.

Two drivers share one :class:`Phase` record, each within the
generator's budget of two threads:

* :func:`http_phase` — two keep-alive HTTP/1.1 connections, one thread
  each;
* :func:`service_phase` — the calling thread submits to an in-process
  service and one collector thread waits for the tickets in order.

A phase can stop early once more requests have missed the latency limit
than a passing p99 allows; the maximum-rate search uses that so a failing
step costs little.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

import stats


@dataclass
class Phase:
    """Per-request timings and results of one open-loop phase."""

    name: str
    rate: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    value: list
    queued_s: np.ndarray
    shed: int = 0
    failed: int = 0
    stopped_early: bool = False

    @property
    def issued(self) -> int:
        """Requests actually sent (a phase stopped early sends fewer)."""
        return int(np.count_nonzero(~np.isnan(self.sent)))

    def _sent_mask(self) -> np.ndarray:
        return ~np.isnan(self.sent)

    @property
    def latency_s(self) -> np.ndarray:
        mask = self._sent_mask()
        return stats.due_latency(self.due[mask], self.done[mask])

    @property
    def lag_s(self) -> np.ndarray:
        mask = self._sent_mask()
        return stats.lateness(self.due[mask], self.sent[mask])

    def misses(self, limit_s: float) -> int:
        mask = self._sent_mask()
        return stats.count_misses(self.latency_s, self.ok[mask], limit_s)

    def passes(self, limit_s: float) -> bool:
        """p99 under the limit and no growing backlog (one search step)."""
        if self.stopped_early:
            return False
        if self.misses(limit_s) > stats.allowed_misses(self.issued):
            return False
        return not stats.backlog_growing(self.due, self.done)


def schedule(rate: float, n: int, rng: np.random.Generator | None) -> np.ndarray:
    """Offsets (s) of ``n`` due times at ``rate``/s: evenly spaced without
    ``rng`` (requests never overlap by construction), Poisson arrivals
    with it."""
    if rng is None:
        return np.arange(n) / rate
    gaps = rng.exponential(1.0 / rate, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def _new_phase(name: str, rate: float, offsets: np.ndarray) -> Phase:
    n = offsets.size
    nan = np.full(n, np.nan)
    return Phase(
        name=name,
        rate=rate,
        due=offsets + time.perf_counter() + 0.005,
        sent=nan.copy(),
        done=nan.copy(),
        ok=np.zeros(n, dtype=bool),
        value=[None] * n,
        queued_s=nan.copy(),
    )


def _wait_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


class _MissBudget:
    """Shared miss counter that trips once a step can no longer pass."""

    def __init__(self, limit_s: float | None, allowed: int | None) -> None:
        self.limit_s = limit_s
        self.allowed = allowed
        self.misses = 0
        self.tripped = False
        self._lock = threading.Lock()

    def record(self, latency_s: float, ok: bool) -> None:
        if self.allowed is None:
            return
        if ok and latency_s <= self.limit_s:
            return
        with self._lock:
            self.misses += 1
            if self.misses > self.allowed:
                self.tripped = True


# ----------------------------------------------------------------------
# HTTP: two sender threads, one keep-alive connection each
# ----------------------------------------------------------------------
class _HttpSender:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int, parse) -> None:
        self.port = port
        self.parse = parse
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def __call__(self, request: tuple[str, bytes]):
        path, body = request
        try:
            self.conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self.conn.getresponse()
            return self.parse(response.status, json.loads(response.read()))
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return False, None, float("nan"), "failed"

    def close(self) -> None:
        self.conn.close()


def http_phase(
    name: str,
    port: int,
    requests: Sequence[tuple[str, bytes]],
    rate: float,
    rng: np.random.Generator | None,
    parse: Callable[[int, dict], tuple[bool, object, float, str]],
    limit_s: float | None = None,
    stop_early: bool = False,
    connections: int = 2,
) -> Phase:
    """POST ``requests`` (path, body) at ``rate`` over keep-alive
    connections, one sender thread each.

    ``parse(status, payload)`` returns ``(ok, value, queued_s, kind)``
    with ``kind`` one of ``"ok"``, ``"shed"`` or ``"failed"``.  A request
    that falls due while both connections are busy waits for one; that
    wait counts in its due-time latency.
    """
    phase = _new_phase(name, rate, schedule(rate, len(requests), rng))
    budget = _MissBudget(
        limit_s, stats.allowed_misses(len(requests)) if stop_early else None
    )
    cursor = iter(range(len(requests)))
    take = threading.Lock()
    counts = {"shed": 0, "failed": 0}

    def worker() -> None:
        send = _HttpSender(port, parse)
        try:
            while not budget.tripped:
                with take:
                    i = next(cursor, None)
                if i is None:
                    return
                _wait_until(phase.due[i])
                phase.sent[i] = time.perf_counter()
                ok, value, queued, kind = send(requests[i])
                phase.done[i] = time.perf_counter()
                phase.ok[i] = ok
                phase.value[i] = value
                phase.queued_s[i] = queued
                if kind != "ok":
                    with take:
                        counts[kind] += 1
                budget.record(phase.done[i] - phase.due[i], ok)
        finally:
            send.close()

    workers = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    phase.shed, phase.failed = counts["shed"], counts["failed"]
    phase.stopped_early = budget.tripped
    return phase


# ----------------------------------------------------------------------
# In-process service
# ----------------------------------------------------------------------
def service_phase(
    name: str,
    service,
    requests: Sequence[tuple[str, str, tuple]],
    rate: float,
    rng: np.random.Generator | None,
    parse: Callable[[object], tuple[bool, object, float, str]],
    limit_s: float | None = None,
    stop_early: bool = False,
    result_timeout_s: float = 60.0,
) -> Phase:
    """Submit ``requests`` (detector, session, window) to ``service`` at
    ``rate``; a collector thread stamps each ticket's completion."""
    phase = _new_phase(name, rate, schedule(rate, len(requests), rng))
    budget = _MissBudget(
        limit_s, stats.allowed_misses(len(requests)) if stop_early else None
    )
    tickets: queue.SimpleQueue = queue.SimpleQueue()
    counts = {"shed": 0, "failed": 0}

    def collect() -> None:
        while True:
            item = tickets.get()
            if item is None:
                return
            i, ticket = item
            if ticket is None:
                ok, value, queued, kind = False, None, float("nan"), "failed"
            else:
                try:
                    outcome = ticket.result(result_timeout_s)
                except TimeoutError:
                    outcome = None
                phase.done[i] = time.perf_counter()
                if outcome is None:
                    ok, value, queued, kind = False, None, float("nan"), "failed"
                else:
                    ok, value, queued, kind = parse(outcome)
            phase.ok[i] = ok
            phase.value[i] = value
            phase.queued_s[i] = queued
            if kind != "ok":
                counts[kind] += 1
            budget.record(phase.done[i] - phase.due[i], ok)

    collector = threading.Thread(target=collect, daemon=True)
    collector.start()
    try:
        for i, (detector, session, window) in enumerate(requests):
            if budget.tripped:
                break
            _wait_until(phase.due[i])
            phase.sent[i] = time.perf_counter()
            try:
                ticket = service.submit(detector, session, window=window)
            except Exception:  # noqa: BLE001 - a refused submit is a failed request
                phase.done[i] = time.perf_counter()
                ticket = None
            tickets.put((i, ticket))
    finally:
        tickets.put(None)
        collector.join()
    phase.shed, phase.failed = counts["shed"], counts["failed"]
    phase.stopped_early = budget.tripped
    return phase
