"""One front door for both services.

``DetectionService`` and a one-shard ``ShardedDetectionService`` make the
same checks before any work is queued: every misuse below must raise the
same exception type with the same message from both, including every call
made after ``close()``.
"""

from __future__ import annotations

import pytest

from repro.api import load_pretrained
from repro.errors import (
    NotFittedError,
    ServiceError,
    ServiceUnavailableError,
    UnknownTargetError,
)
from repro.hmm import random_model
from repro.service import (
    DetectionService,
    ServiceConfig,
    ShardConfig,
    ShardedDetectionService,
)

# Tier-2 stress selection: CI's stress-concurrency job loops `-m stress`.
pytestmark = pytest.mark.stress

SYMBOLS = ["open", "read", "write", "mmap", "close"]
WINDOW = ("open", "read", "write") * 5


@pytest.fixture(scope="module")
def detector():
    return load_pretrained(random_model(SYMBOLS, n_states=4, seed=3), name="svc")


@pytest.fixture()
def services(detector):
    """The in-process service and a one-shard sharded service, each with
    ``svc`` registered."""
    made = [
        DetectionService(ServiceConfig()),
        ShardedDetectionService(ServiceConfig(), ShardConfig(shards=1)),
    ]
    for service in made:
        service.register("svc", detector, threshold=-2.0)
    yield made
    for service in made:
        service.close(drain=False)


class _Unfitted:
    is_fitted = False


class _NotAnHMM:
    is_fitted = True
    model = object()


def _open_then(mode, call):
    def run(service, detector):
        service.open_session("svc", "s", mode)
        call(service, detector)

    return run


def _closed_then(call):
    def run(service, detector):
        service.close()
        call(service, detector)

    return run


CASES = {
    "unknown-detector": (
        lambda s, d: s.submit("ghost", "s", window=WINDOW),
        UnknownTargetError,
        "no detector 'ghost' registered",
    ),
    "not-fitted": (
        lambda s, d: s.register("raw", _Unfitted()),
        NotFittedError,
        "is not fitted",
    ),
    "non-hmm": (
        lambda s, d: s.register("raw", _NotAnHMM()),
        ServiceError,
        "exposes no HiddenMarkovModel",
    ),
    "non-hmm-swap": (
        lambda s, d: s.swap_detector("svc", _NotAnHMM()),
        ServiceError,
        "exposes no HiddenMarkovModel",
    ),
    "no-payload": (
        lambda s, d: s.submit("svc", "s"),
        ServiceError,
        "exactly one of window= or symbol=",
    ),
    "both-payloads": (
        lambda s, d: s.submit("svc", "s", window=WINDOW, symbol="read"),
        ServiceError,
        "exactly one of window= or symbol=",
    ),
    "symbol-without-session": (
        lambda s, d: s.submit("svc", "s", symbol="read"),
        UnknownTargetError,
        "is not open",
    ),
    "window-on-stream-session": (
        _open_then("stream", lambda s, d: s.submit("svc", "s", window=WINDOW)),
        ServiceError,
        "is a stream session",
    ),
    "symbol-on-window-session": (
        _open_then("window", lambda s, d: s.submit("svc", "s", symbol="read")),
        ServiceError,
        "is a window session",
    ),
    "mode-conflict-on-reopen": (
        _open_then("monitor", lambda s, d: s.open_session("svc", "s", "stream")),
        ServiceError,
        "is open in monitor mode, not stream",
    ),
    "duplicate-register": (
        lambda s, d: s.register("svc", d),
        ServiceError,
        "already registered",
    ),
    "closed-register": (
        _closed_then(lambda s, d: s.register("other", d)),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-swap": (
        _closed_then(lambda s, d: s.swap_detector("svc", d)),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-open-session": (
        _closed_then(lambda s, d: s.open_session("svc", "s", "stream")),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-close-session": (
        _closed_then(lambda s, d: s.close_session("svc", "s")),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-submit": (
        _closed_then(lambda s, d: s.submit("svc", "s", window=WINDOW)),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-pump": (
        _closed_then(lambda s, d: s.pump()),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-drain-pending": (
        _closed_then(lambda s, d: s.drain_pending()),
        ServiceUnavailableError,
        "service is closed",
    ),
    "closed-start": (
        _closed_then(lambda s, d: s.start()),
        ServiceUnavailableError,
        "service is closed",
    ),
}


class TestFrontDoorParity:
    @pytest.mark.parametrize("case", list(CASES))
    def test_same_error(self, services, detector, case):
        call, error, message = CASES[case]
        raised = []
        for service in services:
            with pytest.raises(error, match=message) as info:
                call(service, detector)
            raised.append((type(info.value), str(info.value)))
        in_process, sharded = raised
        assert in_process == sharded

    def test_reopen_in_the_same_mode_returns_the_session(self, services):
        for service in services:
            first = service.open_session("svc", "s", "monitor")
            assert service.open_session("svc", "s", "monitor") is first

    def test_close_is_idempotent_and_reports_nothing_handled(self, services):
        for service in services:
            service.close()
            assert service.close() == 0


class TestClosedInProcessOnly:
    """The in-process service's extra entry points refuse work after close
    too (a closed service used to keep serving them)."""

    def test_note_gap_after_close(self, detector):
        service = DetectionService()
        service.register("svc", detector)
        service.open_session("svc", "s", "stream")
        service.close()
        with pytest.raises(ServiceUnavailableError, match="service is closed"):
            service.note_gap("svc", "s")

    def test_queue_depth_unknown_detector(self, detector):
        service = DetectionService()
        with pytest.raises(UnknownTargetError, match="no detector 'ghost'"):
            service.queue_depth("ghost")
