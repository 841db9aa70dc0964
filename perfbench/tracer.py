"""Span recording around the public entry points of each layer.

:func:`install` wraps one function or method per layer boundary and
replaces it at every name a caller looks it up by: the defining module,
each package that re-exports it, and each module that imported it by
name (``scheduler`` does ``from ..hmm.forward import
log_likelihood_ragged``).  Spans live in memory — name, start, end,
parent span and a request id shared by every span of one ticket — and
are written out once, when the run ends.  :func:`layer_metrics` turns
them into the per-layer numbers.

Nothing here changes what the wrapped calls compute; it only times them.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

import stats

#: (module, attribute path, span name, how to size the call).  The size
#: is the work the call did: rows scored, windows, resolved requests or
#: the response status.
BOUNDARIES = (
    ("repro.gateway.server", "DetectionGateway._serve", "gateway.serve", "status"),
    ("repro.gateway.server", "DetectionGateway._respond", "gateway.respond", None),
    ("repro.service.service", "DetectionService.submit", "service.submit", None),
    ("repro.service.service", "DetectionService.pump", "service.pump", "result"),
    ("repro.service.outcomes", "Ticket.result", "service.result_wait", None),
    ("repro.core.detector", "HmmDetector.score", "detector.score", "segments"),
    ("repro.hmm.kernels", "log_likelihood_unique", "hmm.unique", "rows"),
    ("repro.hmm.kernels", "log_likelihood_fleet", "hmm.fleet", "rows_list"),
    ("repro.hmm.kernels", "score_sequences", "hmm.kernel", "rows"),
    ("repro.hmm.kernels", "score_fleet", "hmm.kernel_fleet", "rows_list"),
    ("repro.hmm.baumwelch", "train", "hmm.train", None),
    ("repro.hmm.kernels", "em_update", "hmm.em_update", None),
    ("repro.analysis.pipeline", "analyze_program", "analysis.analyze_program", None),
    ("repro.reduction.initializer", "initialize_hmm", "reduction.initialize_hmm", None),
    ("repro.tracing.workload", "run_workload", "tracing.run_workload", None),
)


#: First span id of a recorder in a subprocess (the benchmark's own
#: recorder counts from 1), so spans of both processes merge without
#: clashing ids.
SUBPROCESS_FIRST_ID = 1_000_000_000


def _size(kind: str | None, args: tuple, result) -> float | None:
    if kind is None:
        return None
    if kind == "status":
        return float(result[0])
    if kind == "result":
        return float(result)
    if kind == "segments":
        return float(len(args[1]))
    if kind == "rows":
        return float(np.shape(args[1])[0])
    if kind == "rows_list":
        return float(sum(np.shape(obs)[0] for obs in args[1]))
    raise ValueError(kind)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[stats.Span] = []
        # Recorders of different processes are merged: give each its own
        # id range.
        self._ids = itertools.count(first_id)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Set by the gateway's request span and deliberately left set: the
        # response write that follows in the same task shares the id, and
        # asyncio.to_thread copies it into the service calls.
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._ticket_request: dict[int, int] = {}

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, span: stats.Span) -> None:
        with self._lock:
            self.spans.append(span)

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(
                    [s.id, s.name, s.start, s.end, s.parent, s.request, s.info]
                ) + "\n")

    @staticmethod
    def read(path: Path) -> list[stats.Span]:
        with open(path) as source:
            return [stats.Span(*json.loads(line)) for line in source]

    def wrap(self, fn, name: str, size: str | None):
        recorder = self

        def begin(args):
            span_id = recorder.next_id()
            parent = recorder._current.get()
            request = recorder._request.get()
            if name == "gateway.serve":
                request = span_id
                recorder._request.set(request)
            elif name == "service.result_wait":
                request = recorder._ticket_request.get(id(args[0]), request)
            elif name == "service.submit" and parent is None:
                request = span_id
            token = recorder._current.set(span_id)
            return span_id, parent, request, token

        def end(state, started, args, result):
            span_id, parent, request, token = state
            ended = time.perf_counter()
            recorder._current.reset(token)
            if name == "service.submit":
                recorder._ticket_request[id(result)] = request
            recorder.add(stats.Span(
                span_id, name, started, ended, parent, request,
                _size(size, args, result),
            ))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = begin(args)
                started = time.perf_counter()
                result = await fn(*args, **kwargs)
                end(state, started, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = begin(args)
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            end(state, started, args, result)
            return result

        return wrapper


def install(recorder: Recorder):
    """Wrap every boundary in :data:`BOUNDARIES` at each name it is looked
    up by; returns a function that puts the originals back.  Call before
    any worker process forks so workers inherit the wrappers."""
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, span, size in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[leaf]
            undo.append((owner, leaf, original))
            setattr(owner, leaf, recorder.wrap(original, span, size))
            continue
        original = getattr(module, leaf)
        wrapped = recorder.wrap(original, span, size)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _pct(values, q):
    """The ``q``-th percentile; with too few samples for it, the highest
    percentile that still has ten samples beyond it (a layer can do less
    work in a run than the phases send requests)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if q == 50:
        return stats.median(values)
    if values.size < stats.required_samples(q):
        q = max(50.0, 100.0 * (1 - stats.MIN_BEYOND / values.size))
    return float(np.percentile(values, q))


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans: list[stats.Span]) -> dict[str, float]:
    """The per-layer numbers of one traced run (0 where a layer did no
    work in it).  Tail percentiles follow :func:`stats.tail_percentile`."""
    by_name: dict[str, list[stats.Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    get = lambda name: by_name.get(name, [])  # noqa: E731
    own = stats.self_times(spans)
    out: dict[str, float] = {}

    # gateway: self time per request (parse/route/respond, not service calls)
    per_request: dict[int, float] = {}
    for span in get("gateway.serve") + get("gateway.respond"):
        per_request[span.request] = per_request.get(span.request, 0.0) + own[span.id]
    self_ms = [v * 1e3 for v in per_request.values()]
    out["gateway.self_ms.p50"] = _pct(self_ms, 50)
    out["gateway.self_ms.p99"] = _pct(self_ms, 99)
    out["gateway.non2xx"] = float(sum(
        1 for s in get("gateway.serve") if not 200 <= s.info < 300
    ))

    # service: admission, pump rounds
    submit_us = [s.duration * 1e6 for s in get("service.submit")]
    out["service.submit_us.p50"] = _pct(submit_us, 50)
    out["service.submit_us.p99"] = _pct(submit_us, 99)
    pumps = get("service.pump")
    useful = [s for s in pumps if s.info and s.info >= 1]
    out["service.pump_useful_frac"] = len(useful) / len(pumps) if pumps else 0.0
    out["service.batch_size.mean"] = _mean([s.info for s in useful])
    drain_ms = [s.duration * 1e3 for s in useful]
    out["service.drain_ms.p50"] = _pct(drain_ms, 50)
    out["service.drain_ms.p99"] = _pct(drain_ms, 99)
    if pumps:
        window = max(s.end for s in pumps) - min(s.start for s in pumps)
        out["service.busy_frac"] = sum(s.duration for s in useful) / window
    else:
        out["service.busy_frac"] = 0.0

    # core
    scored = get("detector.score")
    windows = sum(s.info for s in scored)
    out["detector.score_us_per_window"] = (
        sum(s.duration for s in scored) / windows * 1e6 if windows else 0.0
    )

    # hmm: kernel cost per row, call height, dedup and fusion shares
    kernels = get("hmm.kernel") + get("hmm.kernel_fleet")
    rows = sum(s.info for s in kernels)
    out["hmm.score_us_per_row"] = (
        sum(s.duration for s in kernels) / rows * 1e6 if rows else 0.0
    )
    out["hmm.rows_per_call.mean"] = _mean([s.info for s in kernels])
    entries = get("hmm.unique") + get("hmm.fleet")
    entry_ids = {s.id for s in entries}
    requested = sum(s.info for s in entries)
    distinct = sum(s.info for s in kernels if s.parent in entry_ids)
    out["hmm.unique_frac"] = distinct / requested if requested else 0.0
    fused = sum(s.info for s in get("hmm.fleet"))
    out["hmm.fused_frac"] = fused / requested if requested else 0.0
    trains = get("hmm.train")
    iters = len(get("hmm.em_update"))
    out["hmm.em_iter_ms"] = (
        sum(s.duration for s in trains) / iters * 1e3 if iters else 0.0
    )
    out["hmm.em_iters"] = iters / len(trains) if trains else 0.0

    # offline pipeline stages, seconds per call
    for metric, name in (
        ("analysis.s", "analysis.analyze_program"),
        ("reduction.init_s", "reduction.initialize_hmm"),
        ("tracing.workload_s", "tracing.run_workload"),
    ):
        out[metric] = _mean([s.duration for s in get(name)])

    return out


def layer_self_seconds(spans: list[stats.Span]) -> dict[str, float]:
    """Total self time of each layer (the span name's first component)."""
    own = stats.self_times(spans)
    layers: dict[str, float] = {}
    for span in spans:
        layer = span.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own[span.id]
    return layers
