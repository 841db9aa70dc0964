"""Unit tests for the benchmark's measurement helpers.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import asyncio

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402
import tracer  # noqa: E402
from loadgen import Phase  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentile: at least 10 samples beyond it
# ----------------------------------------------------------------------
def test_required_samples_leaves_ten_beyond():
    assert stats.required_samples(99) == 1000
    assert stats.required_samples(90) == 100
    assert stats.required_samples(99.9) == 10000
    assert stats.required_samples(50) == 20


def test_tail_percentile_refuses_small_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(np.arange(999.0), 99)
    assert stats.tail_percentile(np.arange(1000.0), 99) == pytest.approx(
        np.percentile(np.arange(1000.0), 99)
    )


def test_tail_percentile_sample_counts_beyond():
    values = np.arange(1000.0)
    p99 = stats.tail_percentile(values, 99)
    assert np.count_nonzero(values > p99) >= stats.MIN_BEYOND


# ----------------------------------------------------------------------
# Due-time latency when the generator is late
# ----------------------------------------------------------------------
def test_latency_counts_from_due_time_not_send_time():
    due = np.array([0.0, 0.010, 0.020])
    sent = np.array([0.0, 0.030, 0.031])  # generator stalled 20 ms
    done = np.array([0.005, 0.035, 0.036])
    latency = stats.due_latency(due, done)
    np.testing.assert_allclose(latency, [0.005, 0.025, 0.016])
    np.testing.assert_allclose(stats.lateness(due, sent), [0.0, 0.020, 0.011])
    # Timed from the send, the stall would read as a 5 ms request.
    assert (done - sent)[1] == pytest.approx(0.005)


def test_lateness_is_never_negative():
    assert stats.lateness(np.array([1.0]), np.array([0.9]))[0] == 0.0


def test_failed_requests_always_miss():
    latency = np.array([0.001, 0.001, 0.100, np.nan])
    ok = np.array([True, False, True, True])
    assert stats.count_misses(latency, ok, limit_s=0.050) == 3


def _phase(due, sent, done, ok=None):
    n = len(due)
    return Phase(
        name="t", rate=1.0, due=np.asarray(due, float), sent=np.asarray(sent, float),
        done=np.asarray(done, float),
        ok=np.ones(n, bool) if ok is None else np.asarray(ok),
        value=[None] * n, queued_s=np.full(n, np.nan),
    )


def test_phase_latency_uses_due_time_and_skips_unsent():
    phase = _phase([0.0, 0.01, 0.02], [0.0, 0.03, np.nan], [0.004, 0.034, np.nan])
    assert phase.issued == 2
    np.testing.assert_allclose(phase.latency_s, [0.004, 0.024])
    np.testing.assert_allclose(phase.lag_s, [0.0, 0.02])


# ----------------------------------------------------------------------
# Backlog and the max-rate search
# ----------------------------------------------------------------------
def test_backlog_steady_when_requests_finish_before_next_is_due():
    due = np.arange(100) * 0.01
    done = due + 0.004
    assert not stats.backlog_growing(due, done)
    assert stats.outstanding_at_due(due, done).max() == 0


def test_backlog_growing_when_service_is_slower_than_arrivals():
    due = np.arange(100) * 0.01
    done = np.arange(1, 101) * 0.015  # one server, 15 ms per request
    assert stats.backlog_growing(due, done)


def test_allowed_misses_matches_p99():
    assert stats.allowed_misses(1000) == 10
    assert stats.allowed_misses(1500) == 15


def _ladder(start, ratio, k):
    return start * ratio**k


def test_search_returns_highest_passing_rung():
    capacity = 1000.0
    result = stats.search_max_rate(lambda r: r <= capacity, 500.0, 1.1, 20)
    rungs = [_ladder(500.0, 1.1, k) for k in range(20)]
    assert result.max_rate == pytest.approx(max(r for r in rungs if r <= capacity))
    # stops at the first failing step
    assert result.steps[-1][1] is False
    assert all(passed for _, passed in result.steps[:-1])


def test_search_descends_when_start_fails():
    result = stats.search_max_rate(lambda r: r <= 300.0, 500.0, 1.25, 10)
    assert result.max_rate == pytest.approx(500.0 / 1.25**3)
    assert [passed for _, passed in result.steps] == [False, False, False, True]


def test_search_is_monotone_in_capacity():
    found = [
        stats.search_max_rate(lambda r, c=c: r <= c, 400.0, 1.1, 30).max_rate
        for c in (300.0, 450.0, 600.0, 900.0, 2000.0)
    ]
    assert found == sorted(found)


def test_search_stops_on_growing_backlog():
    """A step whose p99 is fine but whose backlog grows fails the search."""

    def probe(rate):
        n = 400
        due = np.arange(n) / rate
        service_s = 1 / 700.0  # one server: capacity 700/s
        done = np.empty(n)
        free = 0.0
        for i in range(n):
            free = max(free, due[i]) + service_s
            done[i] = free
        latency = stats.due_latency(due, done)
        p99_ok = stats.count_misses(latency, np.ones(n, bool), 10.0) == 0
        return p99_ok and not stats.backlog_growing(due, done)

    result = stats.search_max_rate(probe, 400.0, 1.1, 20)
    assert 600.0 < result.max_rate <= 700.0
    assert result.steps[-1][1] is False


def test_search_takes_no_step_after_its_time_budget():
    now = [0.0]

    def probe(rate):
        now[0] += 10.0  # each step takes 10 s
        return True

    result = stats.search_max_rate(probe, 100.0, 1.1, 50, budget_s=25.0,
                                   clock=lambda: now[0])
    assert len(result.steps) == 3
    assert result.max_rate == pytest.approx(100.0 * 1.1**2)


def test_search_reports_zero_when_nothing_passes():
    result = stats.search_max_rate(lambda r: False, 100.0, 2.0, 4)
    assert result.max_rate == 0.0
    assert len(result.steps) == 4


# ----------------------------------------------------------------------
# Self time with nested and overlapping children
# ----------------------------------------------------------------------
def _span(i, start, end, parent=None):
    return stats.Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),  # grandchild: inside its parent
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_overlapping_children_count_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 6.0, parent=1),
        _span(3, 4.0, 8.0, parent=1),  # overlaps span 2 by 2 s
    ]
    assert stats.self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_that_outlive_the_parent():
    spans = [_span(1, 0.0, 4.0), _span(2, 3.0, 9.0, parent=1)]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(6.0)


def test_self_time_never_negative():
    spans = [_span(1, 0.0, 1.0)] + [
        _span(k, 0.0, 1.0, parent=1) for k in range(2, 6)
    ]
    assert stats.self_times(spans)[1] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Span recording: parents and request ids across threads
# ----------------------------------------------------------------------
def test_nested_wrapped_calls_link_to_their_parent():
    recorder = tracer.Recorder()
    inner = recorder.wrap(lambda: None, "hmm.kernel", None)
    outer = recorder.wrap(lambda: inner(), "detector.score", None)
    outer()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["hmm.kernel"].parent == by_name["detector.score"].id
    assert by_name["detector.score"].parent is None


def test_gateway_request_id_reaches_service_calls_in_threads():
    """Spans of one request share its id, also in ``to_thread`` workers
    and in the response write that follows the dispatch."""
    recorder = tracer.Recorder()

    class Ticket:
        def result(self):
            return "outcome"

    submit = recorder.wrap(lambda self: Ticket(), "service.submit", None)
    result = recorder.wrap(Ticket.result, "service.result_wait", None)
    Ticket.result = result

    async def serve(self):
        ticket = await asyncio.to_thread(submit, None)
        await asyncio.to_thread(ticket.result)
        return (200, {}, None)

    async def respond(self):
        return None

    serve = recorder.wrap(serve, "gateway.serve", "status")
    respond = recorder.wrap(respond, "gateway.respond", None)

    async def connection():
        for _ in range(2):
            await serve(None)
            await respond(None)

    asyncio.run(connection())
    serves = [s for s in recorder.spans if s.name == "gateway.serve"]
    assert len(serves) == 2 and serves[0].request != serves[1].request
    for span in recorder.spans:
        if span.name in ("service.submit", "service.result_wait"):
            assert span.parent in {s.id for s in serves}
            assert span.request == span.parent
        if span.name == "gateway.respond":
            assert span.request in {s.id for s in serves}
    assert all(s.info == 200 for s in serves)


# ----------------------------------------------------------------------
# Training and scoring metrics: the fastest sample of every unit, summed
# ----------------------------------------------------------------------
def test_samples_sum_the_fastest_sample_of_each_unit():
    from types import SimpleNamespace

    import workloads

    samples = workloads.Samples()
    samples.add_fits([SimpleNamespace(units=(3.0, 1.0)), SimpleNamespace(units=(2.0,))])
    samples.add_fits([SimpleNamespace(units=(1.0, 4.0)), SimpleNamespace(units=(5.0,))])
    # per unit minima 1.0 + 1.0 + 2.0, not the fastest whole fit (6.0)
    assert samples.train_s() == 4.0

    detector = SimpleNamespace(score=lambda windows: None)
    batches = workloads.score_batches([(detector, list(range(2500)))])
    assert [len(w) for _, w in batches] == [1024, 1024, 452]
    samples.time_scoring(batches, passes=3)
    assert len(samples.score_rows) == 3
    assert samples.score_s() == sum(min(unit) for unit in zip(*samples.score_rows))
