"""Process-sharded detection service with shared-memory model weights.

:class:`ShardedDetectionService` scales the single-process
:class:`~repro.service.service.DetectionService` across CPU cores without
changing its semantics: N worker processes each run today's micro-batch
drain loop *unchanged* over their own bounded lanes, and a thin parent-side
router assigns every session to exactly one shard by **consistent hashing
of the session id** — so sticky monitor/stream state lives in one place and
never migrates mid-stream.  The whole :class:`ServiceConfig` travels to
each worker, and the fused drain
(:meth:`repro.service.scheduler.MicroBatchScheduler.drain`) runs inside
every shard exactly as in-process: each worker's pump round scores its
same-shape lanes through one batched contraction.

What crosses the process boundary is deliberately small:

* **model parameters never travel** — ``register`` publishes each HMM once
  through a :class:`~repro.service.shm.SharedModelStore` and workers attach
  the same physical pages zero-copy (see :mod:`repro.service.shm`);
* submissions go down a duplex pipe as compact tuples; resolved outcomes
  (the same typed :mod:`~repro.service.outcomes` dataclasses) stream back
  and resolve the parent-side :class:`~repro.service.outcomes.Ticket`.

Semantics preserved across the boundary:

* **single-shard bit-identity** — at ``shards=1`` every submission reaches
  one worker in submission order, drains through an unmodified
  ``DetectionService`` under the same config, and scores bit-identical to
  the in-process service (gated by ``benchmarks/bench_service_sharded.py``
  in CI);
* **no stranded tickets** — a worker that crashes (or is SIGKILLed)
  resolves every in-flight ticket of its shard as a typed
  :class:`~repro.service.outcomes.Failed` outcome from the parent, bumps
  ``service.shard.crashes``, and (by default) a replacement shard respawns
  with the fleet re-registered from shared memory and previously open
  monitor/stream sessions re-opened gap-marked;
* **mergeable telemetry** — each worker records into its own registry and
  the parent folds the snapshots back through the associative/commutative
  :func:`repro.telemetry.merge_snapshot` semantics, so fleet-wide counters
  (submitted / scored / shed / failed) equal a single-process run's.

Unlike the in-process service, admission sheds resolve when their outcome
is *collected* (during ``pump``/``drain_pending``/``close`` or the
``start()`` loop), not synchronously inside ``submit`` — always drain
before reading tickets, exactly like the synchronous deployment shape.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import logging
import multiprocessing
import threading
from dataclasses import dataclass, field

from typing import Mapping, Sequence

from .. import telemetry
from ..core.detector import Detector
from ..errors import NotFittedError, ServiceError
from ..hmm.model import HiddenMarkovModel
from .config import ServiceConfig, ShardConfig
from .fleet import rebuild_detector
from .outcomes import Failed, Ticket
from .service import DetectionService, ServiceStats
from .sessions import SessionMode
from .shm import ModelAttachment, SharedModelSpec, SharedModelStore, attach_model

log = logging.getLogger(__name__)

__all__ = [
    "HashRing",
    "RemoteSession",
    "ShardedDetectionService",
    "ShardedServiceStats",
    "merge_stats_dicts",
]


# ---------------------------------------------------------------------------
# Consistent-hash routing
# ---------------------------------------------------------------------------


def _ring_hash(key: str) -> int:
    """Deterministic 64-bit point (independent of PYTHONHASHSEED)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent session→shard routing.

    Each shard owns ``virtual_nodes`` points on a 64-bit ring; a key routes
    to the first point clockwise.  Changing the shard count remaps only the
    keys whose arc changed owner (≈ ``1/shards`` of them), which is what
    keeps cross-deployment session placement stable as a fleet grows.
    """

    def __init__(self, shards: int, virtual_nodes: int = 64) -> None:
        if shards <= 0:
            raise ServiceError("HashRing needs at least one shard")
        self.shards = shards
        self.virtual_nodes = virtual_nodes
        points = [
            (_ring_hash(f"shard:{shard}:vnode:{vnode}"), shard)
            for shard in range(shards)
            for vnode in range(virtual_nodes)
        ]
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def route(self, key: str) -> int:
        """The shard owning ``key`` (deterministic across processes/runs)."""
        index = bisect.bisect_right(self._points, _ring_hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@dataclass
class ShardedServiceStats(ServiceStats):
    """Fleet-wide counters: shard stats merged + parent-side crash counts."""

    shard_crashes: int = 0

    def as_dict(self) -> dict:
        payload = super().as_dict()
        payload["shard_crashes"] = self.shard_crashes
        return payload


def merge_stats_dicts(
    stats_dicts: Sequence[Mapping],
    shard_crashes: int = 0,
    crash_failed: int = 0,
) -> ShardedServiceStats:
    """Fold per-shard ``ServiceStats.as_dict()`` payloads into fleet totals.

    Associative and commutative like the telemetry snapshot merge: counters
    sum, high-water marks take the max, and the derived rates recompute
    from the merged counters — so the fleet-wide view equals what one
    process counting everything would have recorded.
    """
    merged = ShardedServiceStats(shard_crashes=shard_crashes)
    for stats in stats_dicts:
        merged.submitted += stats["submitted"]
        merged.scored += stats["scored"]
        merged.streamed += stats["streamed"]
        merged.absorbed += stats["absorbed"]
        merged.failed += stats["failed"]
        merged.shed_queue_full += stats["shed_queue_full"]
        merged.shed_oldest += stats["shed_oldest"]
        merged.shed_deadline += stats["shed_deadline"]
        merged.shed_shutdown += stats["shed_shutdown"]
        merged.batches += stats["batches"]
        merged.max_batch_size = max(merged.max_batch_size, stats["max_batch_size"])
        merged.max_depth_seen = max(merged.max_depth_seen, stats["max_depth_seen"])
    merged.failed += crash_failed
    return merged


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _sweep_resolved(conn, pending: dict) -> None:
    """Ship every resolved worker-side ticket back to the parent."""
    done = [
        (req_id, ticket.result(timeout=0))
        for req_id, ticket in pending.items()
        if ticket.done()
    ]
    if done:
        for req_id, _ in done:
            del pending[req_id]
        conn.send(("outcomes", done))


def _drain_all(service: DetectionService) -> int:
    """Pump until empty, surviving drain crashes (same loop as close())."""
    total = 0
    while True:
        try:
            resolved = service.pump()
        except Exception:
            log.exception("shard drain crashed; continuing")
            continue
        if resolved == 0:
            return total
        total += resolved


def _shard_worker_main(
    parent_conn,
    conn,
    shard_index: int,
    config: ServiceConfig,
    telemetry_on: bool,
) -> None:
    """One shard: an unmodified :class:`DetectionService` driven over a pipe.

    The command loop is strictly FIFO — outcomes for a command flush before
    its ack, so by the time the parent sees ``pumped``/``drained``/``closed``
    every ticket that round resolved is already resolved parent-side too.
    """
    if parent_conn is not None:
        parent_conn.close()  # the fork duplicated the parent's end; drop it
    if telemetry_on:
        # Fresh registry even under fork: the parent's inherited counts must
        # not double-merge, and each snapshot we send must be a clean delta.
        telemetry.enable()
    else:
        telemetry.disable()
    service = DetectionService(config)
    pending: dict[int, Ticket] = {}
    #: detector name -> live ModelAttachment (replaced on warm-swap).
    attachments: dict[str, ModelAttachment] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent is gone; nothing to serve
                break
            kind = message[0]
            if kind == "submit":
                for req_id, detector, session_id, window, symbol in message[1]:
                    try:
                        if window is not None:
                            ticket = service.submit(
                                detector, session_id, window=window
                            )
                        else:
                            ticket = service.submit(
                                detector, session_id, symbol=symbol
                            )
                    except Exception as exc:  # parent pre-validates; backstop
                        conn.send(
                            (
                                "outcomes",
                                [
                                    (
                                        req_id,
                                        Failed(
                                            detector=detector,
                                            session=session_id,
                                            error=f"{type(exc).__name__}: {exc}",
                                        ),
                                    )
                                ],
                            )
                        )
                    else:
                        pending[req_id] = ticket
                _sweep_resolved(conn, pending)  # admission sheds resolve now
            elif kind == "pump":
                try:
                    resolved = service.pump(message[1])
                except Exception:
                    # drain() already resolved its popped tickets Failed.
                    log.exception("shard pump crashed; tickets resolved Failed")
                    resolved = 0
                _sweep_resolved(conn, pending)
                conn.send(("pumped", resolved))
            elif kind == "drain":
                resolved = _drain_all(service)
                _sweep_resolved(conn, pending)
                conn.send(("drained", resolved))
            elif kind == "register":
                _, name, spec, threshold, window, kind_value, context, det_name = (
                    message
                )
                try:
                    attachment = attach_model(spec)
                    detector = rebuild_detector(
                        attachment.model,
                        kind=kind_value,
                        context=context,
                        name=det_name,
                    )
                    service.register(
                        name, detector, threshold=threshold, window=window
                    )
                except Exception as exc:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                else:
                    attachments[name] = attachment
                    conn.send(("ok",))
            elif kind == "swap":
                _, name, spec, kind_value, context, det_name = message
                attachment = None
                try:
                    attachment = attach_model(spec)
                    detector = rebuild_detector(
                        attachment.model,
                        kind=kind_value,
                        context=context,
                        name=det_name,
                    )
                    drained = service.swap_detector(name, detector)
                except Exception as exc:
                    if attachment is not None:
                        attachment.close()
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                else:
                    # The barrier drain scored the lane's backlog under the
                    # old model; ship those outcomes before acking so the
                    # parent resolves every pre-swap ticket first.
                    old = attachments.get(name)
                    attachments[name] = attachment
                    if old is not None:
                        old.close()
                    _sweep_resolved(conn, pending)
                    conn.send(("swapped", drained))
            elif kind == "open_session":
                _, detector, session_id, mode_value, pre_gapped = message
                try:
                    session = service.open_session(
                        detector, session_id, SessionMode(mode_value)
                    )
                    if pre_gapped:
                        # Replacement shard after a crash: the sticky state
                        # restarts empty, so the stream is discontinuous.
                        session.note_gap()
                except Exception as exc:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok",))
            elif kind == "close_session":
                _, detector, session_id = message
                try:
                    existed = service.close_session(detector, session_id)
                except Exception as exc:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", existed))
            elif kind == "stats":
                conn.send(("stats", service.stats.as_dict()))
            elif kind == "telemetry":
                if telemetry_on:
                    snap = telemetry.snapshot()
                    telemetry.enable()  # reset: every delta merges exactly once
                else:
                    snap = None
                conn.send(("telemetry", snap))
            elif kind == "close":
                handled = service.close(drain=message[1])
                _sweep_resolved(conn, pending)
                snap = telemetry.snapshot() if telemetry_on else None
                conn.send(("closed", handled, service.stats.as_dict(), snap))
                break
            else:  # pragma: no cover - protocol invariant
                conn.send(("error", f"unknown command {kind!r}"))
    finally:
        for attachment in attachments.values():
            attachment.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# Parent-side plumbing
# ---------------------------------------------------------------------------


class _ShardDied(Exception):
    """Internal: the worker process is gone; reroute to crash handling."""


@dataclass
class _Inflight:
    ticket: Ticket
    detector: str
    session_id: str


@dataclass
class _ShardHandle:
    index: int
    process: multiprocessing.process.BaseProcess
    conn: object
    inflight: dict[int, _Inflight] = field(default_factory=dict)
    pending_acks: int = 0
    alive: bool = True


@dataclass(frozen=True)
class RemoteSession:
    """Parent-side descriptor of a session living inside one shard."""

    session_id: str
    detector_name: str
    mode: SessionMode
    shard: int


@dataclass
class _Registration:
    """Everything needed to (re)register one detector into any shard."""

    spec: SharedModelSpec
    model: HiddenMarkovModel
    threshold: float | None
    window: int | None
    kind_value: str
    context: bool | None
    detector_name: str | None


class ShardedDetectionService:
    """The :class:`DetectionService` API, fanned out over worker processes.

    Same registration/submission/outcome surface as the in-process service;
    see the module docstring for what changes (outcome collection timing)
    and what is guaranteed (bit-identity at one shard, no stranded tickets,
    mergeable counters).

    Args:
        config: per-shard batching/queueing knobs (each worker's
            ``DetectionService`` gets this exact config, so one shard
            behaves precisely like today's service).
        shard_config: process fan-out knobs (:class:`ShardConfig`).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        shard_config: ShardConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.shard_config = shard_config or ShardConfig()
        self._ring = HashRing(
            self.shard_config.shards, self.shard_config.virtual_nodes
        )
        self._store = SharedModelStore()
        self._registrations: dict[str, _Registration] = {}
        self._sessions: dict[tuple[str, str], RemoteSession] = {}
        self._gapped: set[tuple[str, str]] = set()
        self._routes: dict[str, int] = {}
        self._req_ids = itertools.count()
        self._lock = threading.RLock()
        self._closed = False
        self._closing = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._shard_crashes = 0
        self._crash_failed = 0
        self._final_worker_stats: list[dict] = []
        self._final_stats: ShardedServiceStats | None = None
        method = self.shard_config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self._ctx = multiprocessing.get_context(method)
        self._handles: list[_ShardHandle] = [
            self._spawn(index) for index in range(self.shard_config.shards)
        ]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _ShardHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(parent_conn, child_conn, index, self.config, telemetry.enabled()),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _ShardHandle(index=index, process=process, conn=parent_conn)

    def _restart(self, index: int) -> None:
        """Respawn a crashed shard and rebuild its fleet + session surface."""
        handle = self._spawn(index)
        self._handles[index] = handle
        try:
            for name, registration in self._registrations.items():
                self._register_into(handle, name, registration)
            for (detector, session_id), session in self._sessions.items():
                if session.shard != index or session.mode is SessionMode.WINDOW:
                    continue
                self._request(
                    handle,
                    ("open_session", detector, session_id, session.mode.value, True),
                    "ok",
                )
                self._gapped.add((detector, session_id))
        except _ShardDied:
            # The replacement died during rebuild: degrade instead of
            # respawning again, or an instantly-crashing worker would spin
            # the parent in a fork loop.
            self._on_shard_death(handle, restart=False)

    def _on_shard_death(self, handle: _ShardHandle, restart: bool = True) -> None:
        """Resolve the dead shard's in-flight tickets and (maybe) respawn.

        Extends the no-stranded-tickets invariant across the process
        boundary: every submission routed to the dead worker resolves as a
        typed :class:`Failed` outcome naming the crash.
        """
        if not handle.alive:
            return
        handle.alive = False
        pid = handle.process.pid
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        handle.process.join(timeout=1.0)
        for entry in handle.inflight.values():
            if not entry.ticket.done():
                entry.ticket._resolve(
                    Failed(
                        detector=entry.detector,
                        session=entry.session_id,
                        error=(
                            f"shard {handle.index} worker (pid {pid}) died "
                            "with this request in flight"
                        ),
                    )
                )
                self._crash_failed += 1
            self._gapped.add((entry.detector, entry.session_id))
        handle.inflight.clear()
        handle.pending_acks = 0
        self._shard_crashes += 1
        telemetry.counter_add("service.shard.crashes")
        respawn = (
            restart
            and self.shard_config.restart_crashed_shards
            and not self._closing
        )
        log.error(
            "shard %d worker (pid %s) died; %s",
            handle.index,
            pid,
            "restarting" if respawn else "degrading (no restart)",
        )
        if respawn:
            self._restart(handle.index)

    def _handle_for(self, shard: int) -> _ShardHandle:
        handle = self._handles[shard]
        if not handle.alive:
            raise ServiceError(
                f"shard {shard} is down (worker crashed and "
                "restart_crashed_shards is off); surviving shards still serve"
            )
        return handle

    # ------------------------------------------------------------------
    # Pipe protocol (parent side)
    # ------------------------------------------------------------------
    def _recv(self, handle: _ShardHandle):
        """Blocking receive that notices a dead worker instead of hanging."""
        while True:
            try:
                if handle.conn.poll(0.05):
                    return handle.conn.recv()
            except (EOFError, OSError) as exc:
                raise _ShardDied from exc
            if not handle.process.is_alive():
                # One final poll: the reply may already sit in the buffer.
                try:
                    if handle.conn.poll(0):
                        return handle.conn.recv()
                except (EOFError, OSError) as exc:
                    raise _ShardDied from exc
                raise _ShardDied

    def _dispatch(self, handle: _ShardHandle, message) -> int:
        """Apply one worker message; returns resolved-by-drain count."""
        kind = message[0]
        if kind == "outcomes":
            for req_id, outcome in message[1]:
                entry = handle.inflight.pop(req_id, None)
                if entry is not None and not entry.ticket.done():
                    entry.ticket._resolve(outcome)
            return 0
        if kind in ("pumped", "drained"):
            handle.pending_acks -= 1
            return message[1]
        raise ServiceError(
            f"unexpected message {kind!r} from shard {handle.index}"
        )

    def _collect_ready(self, handle: _ShardHandle) -> int:
        """Drain every message already buffered on one shard's pipe."""
        total = 0
        try:
            while handle.conn.poll(0):
                total += self._dispatch(handle, handle.conn.recv())
        except (EOFError, OSError):
            self._on_shard_death(handle)
        return total

    def _request(self, handle: _ShardHandle, message, want: str):
        """Send one command and block for its ack, absorbing outcome
        messages (and stale pump acks) that arrive first."""
        handle.conn.send(message)
        while True:
            reply = self._recv(handle)
            kind = reply[0]
            if kind == want:
                return reply
            if kind == "error":
                raise ServiceError(
                    f"shard {handle.index}: {reply[1]}"
                )
            self._dispatch(handle, reply)

    def _register_into(
        self, handle: _ShardHandle, name: str, registration: _Registration
    ) -> None:
        self._request(
            handle,
            (
                "register",
                name,
                registration.spec,
                registration.threshold,
                registration.window,
                registration.kind_value,
                registration.context,
                registration.detector_name,
            ),
            "ok",
        )

    # ------------------------------------------------------------------
    # Fleet registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        detector: Detector,
        threshold: float | None = None,
        window: int | None = None,
    ) -> None:
        """Publish the detector's model once and register it in every shard.

        Mirrors :meth:`DetectionService.register` — same validation, same
        lane semantics per shard — but ships a
        :class:`~repro.service.shm.SharedModelSpec` instead of parameters.
        """
        if not detector.is_fitted:
            raise NotFittedError(
                f"detector {name!r} is not fitted; the service only scores"
            )
        model = getattr(detector, "model", None)
        if not isinstance(model, HiddenMarkovModel):
            raise ServiceError(
                f"detector {name!r} exposes no HiddenMarkovModel via .model; "
                "the micro-batched service scores HMM-backed detectors only "
                "(n-gram/ensemble baselines are not servable)"
            )
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if name in self._registrations:
                raise ServiceError(f"detector {name!r} already registered")
            spec = self._store.publish(model)
            registration = _Registration(
                spec=spec,
                model=model,
                threshold=threshold,
                window=window,
                kind_value=getattr(detector, "kind", None).value
                if getattr(detector, "kind", None) is not None
                else "syscall",
                context=getattr(detector, "context", None),
                detector_name=getattr(detector, "name", None),
            )
            for handle in self._handles:
                if not handle.alive:
                    continue
                try:
                    self._register_into(handle, name, registration)
                except _ShardDied:
                    self._on_shard_death(handle)
            self._registrations[name] = registration

    def register_fleet(
        self,
        detectors: Mapping[str, Detector],
        thresholds: Mapping[str, float] | None = None,
    ) -> None:
        """Register many detectors at once (e.g. from
        :func:`repro.service.fleet.load_fleet`)."""
        thresholds = thresholds or {}
        for name, detector in detectors.items():
            self.register(name, detector, threshold=thresholds.get(name))

    def swap_detector(self, name: str, detector: Detector) -> int:
        """Warm-swap a retrained detector into every live shard.

        Mirrors :meth:`DetectionService.swap_detector` across the process
        boundary: the new model is published once through the
        :class:`~repro.service.shm.SharedModelStore`, each worker drains
        its lane to empty under the *old* model (the swap barrier — every
        pre-swap ticket resolves bit-identical to the pre-swap detector)
        and then rebinds the lane and its open sessions in place.  No
        session is dropped or gap-marked, and the parent-side registration
        is updated **before** any worker swaps, so a shard that crashes and
        restarts mid-swap re-resolves the new weights — never a stale copy.

        Returns how many pending requests the barrier drains resolved
        across the fleet.  The old model's shared segment is released once
        every live shard has swapped.
        """
        if not detector.is_fitted:
            raise NotFittedError(
                f"detector {name!r} is not fitted; the service only scores"
            )
        model = getattr(detector, "model", None)
        if not isinstance(model, HiddenMarkovModel):
            raise ServiceError(
                f"detector {name!r} exposes no HiddenMarkovModel via .model; "
                "the micro-batched service scores HMM-backed detectors only "
                "(n-gram/ensemble baselines are not servable)"
            )
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            old = self._registrations.get(name)
            if old is None:
                raise ServiceError(
                    f"no detector {name!r} registered; "
                    f"have {sorted(self._registrations)}"
                )
            spec = self._store.publish(model)
            registration = _Registration(
                spec=spec,
                model=model,
                threshold=old.threshold,
                window=old.window,
                kind_value=getattr(detector, "kind", None).value
                if getattr(detector, "kind", None) is not None
                else old.kind_value,
                context=getattr(detector, "context", None),
                detector_name=getattr(detector, "name", None),
            )
            # Registration first: a crash-restart from here on rebuilds the
            # shard with the new weights, not the superseded ones.
            self._registrations[name] = registration
            drained = 0
            for handle in list(self._handles):
                if not handle.alive:
                    continue
                try:
                    reply = self._request(
                        handle,
                        (
                            "swap",
                            name,
                            spec,
                            registration.kind_value,
                            registration.context,
                            registration.detector_name,
                        ),
                        "swapped",
                    )
                    drained += reply[1]
                except _ShardDied:
                    self._on_shard_death(handle)
            if old.model is not model:
                try:
                    self._store.release(old.model)
                except ServiceError:  # pragma: no cover - already released
                    pass
            telemetry.counter_add("service.swaps")
            return drained

    @property
    def detectors(self) -> tuple[str, ...]:
        return tuple(self._registrations)

    @property
    def shards(self) -> int:
        return self.shard_config.shards

    @property
    def live_shards(self) -> int:
        return sum(1 for handle in self._handles if handle.alive)

    def shard_of(self, session_id: str) -> int:
        """Which shard a session routes to (consistent, cached)."""
        shard = self._routes.get(session_id)
        if shard is None:
            shard = self._ring.route(session_id)
            self._routes[session_id] = shard
        return shard

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        detector: str,
        session_id: str,
        mode: SessionMode | str = SessionMode.WINDOW,
    ) -> RemoteSession:
        """Open (or fetch) the sticky session on its home shard.

        Same contract as :meth:`DetectionService.open_session`, but the
        sticky state lives inside the worker; the returned
        :class:`RemoteSession` is a descriptor, not the state itself.
        """
        mode = SessionMode(mode)
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if detector not in self._registrations:
                raise ServiceError(
                    f"no detector {detector!r} registered; "
                    f"have {sorted(self._registrations)}"
                )
            key = (detector, session_id)
            existing = self._sessions.get(key)
            if existing is not None:
                if existing.mode is not mode:
                    raise ServiceError(
                        f"session {session_id!r} on {detector!r} is open in "
                        f"{existing.mode.value} mode, not {mode.value}"
                    )
                return existing
            shard = self.shard_of(session_id)
            handle = self._handle_for(shard)
            if mode is not SessionMode.WINDOW:
                try:
                    self._request(
                        handle,
                        ("open_session", detector, session_id, mode.value, False),
                        "ok",
                    )
                except _ShardDied:
                    self._on_shard_death(handle)
                    raise ServiceError(
                        f"shard {shard} died while opening session "
                        f"{session_id!r}"
                    ) from None
            session = RemoteSession(
                session_id=session_id,
                detector_name=detector,
                mode=mode,
                shard=shard,
            )
            self._sessions[key] = session
            return session

    def session_gapped(self, detector: str, session_id: str) -> bool:
        """Whether the parent knows this session's stream is discontinuous
        (a shed or a shard crash touched it)."""
        return (detector, session_id) in self._gapped

    def close_session(self, detector: str, session_id: str) -> bool:
        """Discard the session parent-side and on its home shard.

        Same contract as :meth:`DetectionService.close_session`; a closed
        session is also dropped from the crash-restart re-open list, so a
        restarted shard will not resurrect it.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if detector not in self._registrations:
                raise ServiceError(
                    f"no detector {detector!r} registered; "
                    f"have {sorted(self._registrations)}"
                )
            key = (detector, session_id)
            session = self._sessions.pop(key, None)
            if session is None:
                return False
            self._gapped.discard(key)
            if session.mode is not SessionMode.WINDOW:
                shard = self.shard_of(session_id)
                handle = self._handles[shard]
                if handle.alive:
                    try:
                        self._request(
                            handle, ("close_session", detector, session_id), "ok"
                        )
                    except _ShardDied:
                        self._on_shard_death(handle)
            return True

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _validate_submission(
        self, detector: str, session_id: str, window, symbol
    ) -> None:
        """The same front-door checks DetectionService.submit makes, so
        misuse raises synchronously here instead of Failed-ing remotely."""
        if (window is None) == (symbol is None):
            raise ServiceError("submit takes exactly one of window= or symbol=")
        if detector not in self._registrations:
            raise ServiceError(
                f"no detector {detector!r} registered; "
                f"have {sorted(self._registrations)}"
            )
        key = (detector, session_id)
        session = self._sessions.get(key)
        if session is None:
            if symbol is not None:
                raise ServiceError(
                    f"session {session_id!r} on {detector!r} is not open; "
                    "open_session(..., mode='monitor'|'stream') before "
                    "submitting symbols"
                )
            self._sessions[key] = RemoteSession(
                session_id=session_id,
                detector_name=detector,
                mode=SessionMode.WINDOW,
                shard=self.shard_of(session_id),
            )
        elif window is not None and session.mode is not SessionMode.WINDOW:
            raise ServiceError(
                f"session {session_id!r} is a {session.mode.value} session; "
                "submit symbol=... instead of window=..."
            )
        elif symbol is not None and session.mode is SessionMode.WINDOW:
            raise ServiceError(
                f"session {session_id!r} is a window session; "
                "submit window=... instead of symbol=..."
            )

    def submit(
        self,
        detector: str,
        session_id: str,
        *,
        window: Sequence[str] | None = None,
        symbol: str | None = None,
    ) -> Ticket:
        """Route one request to its session's shard; returns its ticket.

        The ticket resolves when its outcome is collected back from the
        worker — during :meth:`pump` / :meth:`drain_pending` /
        :meth:`close`, or continuously under :meth:`start`.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            self._validate_submission(detector, session_id, window, symbol)
            shard = self.shard_of(session_id)
            handle = self._handle_for(shard)
            self._collect_ready(handle)
            if not handle.alive:
                # Collection noticed a crash; the registry now holds either
                # a freshly-restarted replacement or a tombstone.
                handle = self._handle_for(shard)
            ticket = Ticket()
            req_id = next(self._req_ids)
            handle.inflight[req_id] = _Inflight(
                ticket=ticket, detector=detector, session_id=session_id
            )
            item = (
                req_id,
                detector,
                session_id,
                tuple(window) if window is not None else None,
                symbol,
            )
            self._send_submissions(handle, [item])
            return ticket

    def submit_many(
        self,
        detector: str,
        windows: Sequence[tuple[str, Sequence[str]]],
    ) -> list[Ticket]:
        """Bulk window submission: one pipe message per shard, not per
        request.  ``windows`` is ``[(session_id, window), ...]``; tickets
        return in submission order."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            # Phase 1 — validate everything (and check the target shards are
            # up) before creating any ticket, so a rejected call leaves no
            # in-flight bookkeeping behind.
            routes: list[int] = []
            for session_id, window in windows:
                self._validate_submission(detector, session_id, window, None)
                shard = self.shard_of(session_id)
                self._handle_for(shard)
                routes.append(shard)
            # Phase 2 — enqueue + send; a crash from here on resolves its
            # shard's tickets Failed instead of raising.
            tickets: list[Ticket] = []
            by_shard: dict[int, list] = {}
            for (session_id, window), shard in zip(windows, routes):
                handle = self._handles[shard]
                ticket = Ticket()
                req_id = next(self._req_ids)
                handle.inflight[req_id] = _Inflight(
                    ticket=ticket, detector=detector, session_id=session_id
                )
                by_shard.setdefault(shard, []).append(
                    (req_id, detector, session_id, tuple(window), None)
                )
                tickets.append(ticket)
            for shard, items in by_shard.items():
                handle = self._handles[shard]
                if handle.alive:
                    self._collect_ready(handle)
                if handle.alive:
                    self._send_submissions(handle, items)
            return tickets

    def _send_submissions(self, handle: _ShardHandle, items: list) -> None:
        if not handle.process.is_alive():
            self._on_shard_death(handle)
            return
        try:
            handle.conn.send(("submit", items))
        except (BrokenPipeError, OSError):
            self._on_shard_death(handle)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pump(self, detector: str | None = None) -> int:
        """One drain round on **every live shard, concurrently** — each
        worker drains its own lanes in parallel while the parent collects.
        Returns how many requests the drains resolved."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if detector is not None and detector not in self._registrations:
                raise ServiceError(
                    f"no detector {detector!r} registered; "
                    f"have {sorted(self._registrations)}"
                )
            live = [handle for handle in self._handles if handle.alive]
            for handle in live:  # broadcast first: shards drain in parallel
                try:
                    handle.conn.send(("pump", detector))
                    handle.pending_acks += 1
                except (BrokenPipeError, OSError):
                    self._on_shard_death(handle)
            total = 0
            for handle in live:
                while handle.alive and handle.pending_acks > 0:
                    try:
                        total += self._dispatch(handle, self._recv(handle))
                    except _ShardDied:
                        self._on_shard_death(handle)
            return total

    def drain_pending(self) -> int:
        """Pump until every shard's queues are empty; returns total
        resolved (admission sheds collected along the way don't count,
        matching :meth:`DetectionService.drain_pending`)."""
        total = 0
        while True:
            resolved = self.pump()
            if resolved == 0:
                return total
            total += resolved

    @property
    def pending(self) -> int:
        """Submissions whose outcome has not been collected yet."""
        with self._lock:
            return sum(len(handle.inflight) for handle in self._handles)

    # ------------------------------------------------------------------
    # Threaded deployment + shutdown
    # ------------------------------------------------------------------
    def start(self, interval_s: float = 0.001) -> None:
        """Launch the background pump loop (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run,
                args=(interval_s,),
                name="repro-sharded-service",
                daemon=True,
            )
            self._thread.start()

    def _run(self, interval_s: float) -> None:
        while not self._stop.is_set():
            try:
                resolved = self.pump()
            except ServiceError:
                return  # closed under us
            except Exception:
                log.exception("sharded pump loop: round crashed; continuing")
                telemetry.counter_add("service.drain_errors")
                continue
            if resolved == 0:
                self._stop.wait(interval_s)

    def close(self, drain: bool = True) -> int:
        """Shut every shard down; returns how many pending requests were
        handled (scored under ``drain=True``, shed ``SHUTDOWN`` otherwise).

        Merges each worker's final stats and telemetry snapshot back into
        the parent before the process exits, releases every shared-memory
        segment, and resolves any ticket a dying worker left behind as
        :class:`Failed` — the invariant survives shutdown too.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closing = True
            thread = self._thread
            self._stop.set()
        if thread is not None:
            thread.join()
        with self._lock:
            self._thread = None
            handled = 0
            for handle in self._handles:
                if not handle.alive:
                    continue
                try:
                    reply = self._request(handle, ("close", drain), "closed")
                except _ShardDied:
                    self._on_shard_death(handle)
                    continue
                _, shard_handled, stats_dict, snap = reply
                handled += shard_handled
                self._final_worker_stats.append(stats_dict)
                if snap is not None:
                    telemetry.merge_snapshot(snap)
                handle.alive = False
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.process.join(timeout=5.0)
                # Anything still inflight after a graceful close means the
                # worker lost it; never strand the ticket.
                for entry in handle.inflight.values():
                    if not entry.ticket.done():
                        entry.ticket._resolve(
                            Failed(
                                detector=entry.detector,
                                session=entry.session_id,
                                error=(
                                    f"shard {handle.index} closed without "
                                    "resolving this request"
                                ),
                            )
                        )
                        self._crash_failed += 1
                handle.inflight.clear()
            self._store.close()
            self._final_stats = merge_stats_dicts(
                self._final_worker_stats,
                shard_crashes=self._shard_crashes,
                crash_failed=self._crash_failed,
            )
            self._closed = True
            return handled

    def __enter__(self) -> "ShardedDetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    # ------------------------------------------------------------------
    # Stats + telemetry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ShardedServiceStats:
        """Fleet-wide merged counters (live query; cached after close).

        A crashed worker takes its in-process counters with it — the
        merged view covers surviving shards plus the parent's crash
        accounting (``shard_crashes``, crash-``failed`` tickets).
        """
        with self._lock:
            if self._final_stats is not None:
                return self._final_stats
            dicts = list(self._final_worker_stats)
            for handle in self._handles:
                if not handle.alive:
                    continue
                try:
                    dicts.append(self._request(handle, ("stats",), "stats")[1])
                except _ShardDied:
                    self._on_shard_death(handle)
            return merge_stats_dicts(
                dicts,
                shard_crashes=self._shard_crashes,
                crash_failed=self._crash_failed,
            )

    def sync_telemetry(self) -> None:
        """Pull and merge each live worker's telemetry delta now.

        Close does this automatically; call it mid-flight when a scrape
        (e.g. the report command) wants fleet counters from a service that
        is still running.  Deltas reset worker-side, so merging is
        exactly-once.
        """
        with self._lock:
            for handle in self._handles:
                if not handle.alive:
                    continue
                try:
                    snap = self._request(handle, ("telemetry",), "telemetry")[1]
                except _ShardDied:
                    self._on_shard_death(handle)
                    continue
                if snap is not None:
                    telemetry.merge_snapshot(snap)
