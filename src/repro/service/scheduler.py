"""Micro-batching scheduler: per-detector queues drained into one forward
pass.

The hot path the batched :mod:`repro.hmm.forward` recursions were written
for: instead of one ``log_likelihood`` call per request (a (1, 15) matrix
product per time step), a drain round collects every ready window across
all sessions of its lanes and scores them through one
:func:`repro.hmm.kernels.log_likelihood_grouped` call.  That groups the
round's rows by ``(n_states, n_symbols, window length)`` **across
detectors**: a group holding one lane's rows scores duplicate-aware
(:func:`repro.hmm.kernels.log_likelihood_unique` — identical windows run
the forward recursion once and share the result, which
``hmm.score.unique_ratio`` reports), and a group spanning several
same-shape lanes stacks into one batched tensor contraction
(:func:`repro.hmm.kernels.log_likelihood_fleet`), so a 100-detector
fleet drains in a handful of kernel launches instead of one GEMM
sequence per detector.  A single-lane round is just a round of one
lane, and every outcome is bit-identical to draining each lane on its
own.

Admission control lives at the two points where load sheds:

* **at the door** (:meth:`DetectorLane.admit`) — a queue at
  ``max_queue_depth`` either rejects the arrival or evicts its oldest
  pending request, per :class:`~repro.service.config.AdmissionPolicy`;
* **at the drain** (:meth:`MicroBatchScheduler.drain`) — requests older
  than ``latency_budget_s`` resolve ``Overloaded(DEADLINE)`` rather than
  being scored late.

Every shed request resolves with a typed
:class:`~repro.service.outcomes.Overloaded`; accepted requests always
resolve with a scored outcome (or a shutdown shed) — never silence.  A
request scoring *failure* (e.g. a symbol outside a no-UNK model's
alphabet) resolves that request with :class:`~repro.service.outcomes.Failed`
without poisoning the rest of the batch, and an unexpected crash mid-drain
resolves every already-popped ticket ``Failed`` before propagating — no
code path strands a ticket.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..core.detector import Detector
from ..errors import ModelError
from ..hmm import backends
from ..hmm.kernels import log_likelihood_grouped
from .config import AdmissionPolicy, ServiceConfig
from .outcomes import (
    Absorbed,
    Failed,
    Overloaded,
    Scored,
    ShedReason,
    Streamed,
    Ticket,
)
from .sessions import Session, SessionMode

#: Telemetry bucket bounds for drain batch sizes.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


@dataclass
class PendingRequest:
    """One queued submission awaiting its drain."""

    ticket: Ticket
    session: Session
    enqueued_at: float
    window: tuple[str, ...] | None = None
    symbol: str | None = None


@dataclass
class DetectorLane:
    """One registered detector: its queue, threshold, and window length."""

    name: str
    detector: Detector
    threshold: float | None
    window: int
    queue: deque = field(default_factory=deque)

    @property
    def depth(self) -> int:
        return len(self.queue)

    def admit(
        self, request: PendingRequest, config: ServiceConfig
    ) -> PendingRequest | None:
        """Enqueue ``request``, applying the depth bound.

        Returns the request that was shed (the arrival itself under
        ``REJECT_NEW``, the evicted oldest under ``SHED_OLDEST``), already
        resolved with its :class:`Overloaded` outcome — or ``None`` when
        the queue had room.
        """
        if len(self.queue) < config.max_queue_depth:
            self.queue.append(request)
            return None
        if config.admission_policy is AdmissionPolicy.REJECT_NEW:
            request.session.note_gap()
            request.ticket._resolve(
                Overloaded(
                    detector=self.name,
                    session=request.session.session_id,
                    reason=ShedReason.QUEUE_FULL,
                    depth=len(self.queue),
                )
            )
            return request
        oldest = self.queue.popleft()
        oldest.session.note_gap()
        oldest.ticket._resolve(
            Overloaded(
                detector=self.name,
                session=oldest.session.session_id,
                reason=ShedReason.SHED_OLDEST,
                depth=len(self.queue) + 1,
                queued_s=max(0.0, request.enqueued_at - oldest.enqueued_at),
            )
        )
        self.queue.append(request)
        return oldest


@dataclass
class _LaneDrain:
    """One lane's popped batch moving through the drain phases.

    ``_prepare`` fills the bookkeeping fields (and resolves sheds /
    absorbed pushes / encode failures); scoring fills ``loglik`` for the
    ``rows``; ``_finish`` resolves the scorable and streaming requests.
    Splitting the phases this way is what lets :meth:`MicroBatchScheduler.drain`
    score *many* lanes' prepared rows in one grouped pass between its
    per-lane prepare and finish sweeps.
    """

    lane: DetectorLane
    taken: list[PendingRequest]
    scorable: list[tuple[PendingRequest, tuple[str, ...], float]] = field(
        default_factory=list
    )
    rows: list[np.ndarray] = field(default_factory=list)
    streaming: list[tuple[PendingRequest, float]] = field(default_factory=list)
    loglik: np.ndarray | None = None
    resolved: int = 0


class MicroBatchScheduler:
    """Drains lanes; owns no threads (the service does).

    One drain shape serves every caller: :meth:`drain` takes a list of
    lanes — all of them for a ``pump()`` round, one for ``pump(name)``
    and the swap / gap barriers — prepares each lane, scores all
    prepared rows through one grouped call, then resolves each lane.
    Scores, outcomes, and per-lane telemetry do not depend on which
    lanes share a round; only the kernel-launch count does.
    """

    def __init__(self, config: ServiceConfig, clock) -> None:
        self.config = config
        self.clock = clock
        # Resolve the configured kernel backend eagerly: an unavailable
        # toolchain warns once at service construction, not mid-drain.
        if config.kernel_backend is not None:
            backends.resolve_backend(config.kernel_backend)

    def _backend_scope(self):
        """The kernel-backend scope every drain's scoring runs under.

        ``None`` (the default) defers to the process default without
        touching the thread-local scope stack, so per-drain overhead in
        the default configuration is one attribute check.
        """
        if self.config.kernel_backend is None:
            return nullcontext()
        return backends.backend_scope(self.config.kernel_backend)

    def drain(self, lanes, stats) -> int:
        """One drain round: up to ``max_batch`` requests per lane.

        Pops every non-empty lane's batch first, then runs the prepare
        phase per lane, scores all prepared rows together, and resolves
        each lane.  Returns the number of requests resolved (scored,
        streamed, absorbed, deadline-shed, or failed) across lanes.  A
        round issues one forward pass per ``(n_states, n_symbols, window
        length)`` group — for one lane of homogeneous 15-call windows,
        exactly one — and duplicate windows within a group are scored
        once (see the module docstring).

        Exception safety: a request that cannot be scored (unknown
        symbol, no UNK slot, empty window) or streamed resolves
        :class:`Failed` individually; any *other* exception resolves
        every popped-but-unresolved ticket of **all** popped lanes
        ``Failed`` before propagating (the grouped pass is shared state),
        so the documented "every accepted submission resolves" invariant
        holds even when a drain crashes.
        """
        drains: list[_LaneDrain] = []
        for lane in lanes:
            if not lane.queue:
                continue
            taken: list[PendingRequest] = []
            while lane.queue and len(taken) < self.config.max_batch:
                taken.append(lane.queue.popleft())
            drains.append(_LaneDrain(lane=lane, taken=taken))
        if not drains:
            return 0
        now = self.clock()
        try:
            with self._backend_scope():
                return self._process(drains, now, stats)
        except Exception as exc:
            for drain in drains:
                for request in drain.taken:
                    if not request.ticket.done():
                        request.session.note_gap()
                        request.ticket._resolve(
                            Failed(
                                detector=drain.lane.name,
                                session=request.session.session_id,
                                error=f"{type(exc).__name__}: {exc}",
                                queued_s=max(0.0, now - request.enqueued_at),
                            )
                        )
                        stats.count_failed()
            raise
        finally:
            for drain in drains:
                telemetry.gauge_set(
                    f"service.queue.depth.{drain.lane.name}", drain.lane.depth
                )

    def _process(self, drains: list[_LaneDrain], now: float, stats) -> int:
        """Resolve one popped round: per-lane prepare, grouped score,
        per-lane finish."""
        for drain in drains:
            self._prepare(drain, now, stats)
        scoring = [drain for drain in drains if drain.scorable]
        if scoring:
            models = [drain.lane.detector.model for drain in scoring]
            scored = log_likelihood_grouped(
                models, [drain.rows for drain in scoring]
            )
            for drain, loglik in zip(scoring, scored):
                drain.loglik = loglik
            if telemetry.enabled():
                # A (shape, length) group spanning two or more lanes went
                # through the fleet kernel.
                lanes_per_group = Counter(
                    key
                    for model, drain in zip(models, scoring)
                    for key in {
                        (model.n_states, model.n_symbols, row.shape[0])
                        for row in drain.rows
                    }
                )
                fused_groups = sum(n > 1 for n in lanes_per_group.values())
                if fused_groups:
                    telemetry.counter_add("service.drain.fused")
                    telemetry.counter_add(
                        "service.drain.fused_groups", fused_groups
                    )
        total = 0
        for drain in drains:
            self._finish(drain, stats)
            total += drain.resolved
        return total

    def _prepare(self, drain: _LaneDrain, now: float, stats) -> None:
        """Bookkeeping phase: deadline sheds, monitor pushes, encoding.

        Walks the popped batch in FIFO order, resolving everything that
        never reaches a forward pass (deadline sheds, absorbed monitor
        pushes, encode failures) and collecting the rest into the drain's
        ``scorable``/``rows``/``streaming`` lists.
        """
        lane = drain.lane
        budget = self.config.latency_budget_s
        resolved = 0
        scorable: list[tuple[PendingRequest, tuple[str, ...], float]] = []
        streaming: list[tuple[PendingRequest, float]] = []
        for request in drain.taken:
            queued_s = max(0.0, now - request.enqueued_at)
            if budget is not None and queued_s > budget:
                request.session.note_gap()
                request.ticket._resolve(
                    Overloaded(
                        detector=lane.name,
                        session=request.session.session_id,
                        reason=ShedReason.DEADLINE,
                        depth=lane.depth,
                        queued_s=queued_s,
                    )
                )
                stats.count_shed(ShedReason.DEADLINE)
                resolved += 1
                continue
            session = request.session
            if session.mode is SessionMode.STREAM:
                streaming.append((request, queued_s))
                continue
            if session.mode is SessionMode.MONITOR:
                window = session.monitor.push(request.symbol)
                if window is None:
                    request.ticket._resolve(
                        Absorbed(
                            detector=lane.name,
                            session=session.session_id,
                            queued_s=queued_s,
                        )
                    )
                    stats.absorbed += 1
                    resolved += 1
                    continue
            else:
                window = request.window
            scorable.append((request, window, queued_s))

        if scorable:
            model = lane.detector.model
            # Encode per request so one bad window (symbol outside a no-UNK
            # alphabet, or an empty window) fails alone instead of
            # poisoning the whole batch.
            rows: list[np.ndarray] = []
            encodable: list[tuple[PendingRequest, tuple[str, ...], float]] = []
            for request, window, queued_s in scorable:
                try:
                    if not window:
                        raise ModelError("cannot score an empty window")
                    rows.append(
                        np.fromiter(
                            (model.encode_symbol(symbol) for symbol in window),
                            dtype=np.int64,
                            count=len(window),
                        )
                    )
                except ModelError as exc:
                    request.ticket._resolve(
                        Failed(
                            detector=lane.name,
                            session=request.session.session_id,
                            error=str(exc),
                            queued_s=queued_s,
                        )
                    )
                    stats.count_failed()
                    resolved += 1
                    continue
                encodable.append((request, window, queued_s))
            scorable = encodable
            drain.rows = rows

        drain.scorable = scorable
        drain.streaming = streaming
        drain.resolved = resolved

    def _finish(self, drain: _LaneDrain, stats) -> None:
        """Resolution phase: apply scores, then walk streaming sessions.

        ``drain.loglik`` must hold the raw per-row log-likelihoods for
        ``drain.rows`` (whichever kernel produced them); outcomes carry
        the per-symbol normalization exactly as before.
        """
        lane = drain.lane
        scorable = drain.scorable
        streaming = drain.streaming
        resolved = 0

        if scorable:
            lengths = np.array(
                [row.shape[0] for row in drain.rows], dtype=float
            )
            scores = drain.loglik / lengths
            batch_size = len(scorable)
            telemetry.observe(
                "service.batch.size", batch_size, boundaries=BATCH_SIZE_BUCKETS
            )
            stats.record_batch(batch_size)
            for (request, window, queued_s), score in zip(scorable, scores):
                score = float(score)
                session = request.session
                alert = None
                if session.mode is SessionMode.MONITOR:
                    alert = session.monitor.apply_score(window, score)
                anomalous = (
                    score < lane.threshold if lane.threshold is not None else None
                )
                request.ticket._resolve(
                    Scored(
                        score=score,
                        detector=lane.name,
                        session=session.session_id,
                        batch_size=batch_size,
                        queued_s=queued_s,
                        alert=alert,
                        anomalous=anomalous,
                        gap=session.gaps > 0,
                    )
                )
                telemetry.observe(
                    "service.latency.queue_s",
                    queued_s,
                    boundaries=telemetry.DEFAULT_SECONDS_BUCKETS,
                )
                stats.scored += 1
                resolved += 1

        if streaming:
            # Sequential within a session (the belief update is order
            # dependent); the FIFO walk preserves exactly that order.
            batch_size = len(streaming)
            for request, queued_s in streaming:
                session = request.session
                try:
                    surprise = session.scorer.observe(request.symbol)
                except ModelError as exc:
                    # The symbol never updated the belief state: resolve
                    # this request alone and keep the stream going.
                    session.note_gap()
                    request.ticket._resolve(
                        Failed(
                            detector=lane.name,
                            session=session.session_id,
                            error=str(exc),
                            queued_s=queued_s,
                        )
                    )
                    stats.count_failed()
                    resolved += 1
                    continue
                windowed = (
                    session.scorer.windowed_score
                    if session.scorer.window_full
                    else None
                )
                anomalous = (
                    windowed < lane.threshold
                    if (windowed is not None and lane.threshold is not None)
                    else None
                )
                request.ticket._resolve(
                    Streamed(
                        surprise=surprise,
                        detector=lane.name,
                        session=session.session_id,
                        batch_size=batch_size,
                        queued_s=queued_s,
                        windowed_score=windowed,
                        anomalous=anomalous,
                        gap=session.gaps > 0,
                    )
                )
                telemetry.observe(
                    "service.latency.queue_s",
                    queued_s,
                    boundaries=telemetry.DEFAULT_SECONDS_BUCKETS,
                )
                stats.streamed += 1
                resolved += 1

        drain.resolved += resolved
