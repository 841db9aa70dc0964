"""Service configuration: batching, queue bounds, and admission policy."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ServiceError
from ..tracing.segments import DEFAULT_SEGMENT_LENGTH


class AdmissionPolicy(enum.Enum):
    """What to do when a detector queue is at ``max_queue_depth``."""

    #: Refuse the new arrival (it resolves ``Overloaded(QUEUE_FULL)``).
    REJECT_NEW = "reject-new"
    #: Evict the oldest pending request (it resolves
    #: ``Overloaded(SHED_OLDEST)``) and admit the new one — fresher data
    #: wins, the deployment stance for live monitoring feeds.
    SHED_OLDEST = "shed-oldest"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`~repro.service.service.DetectionService`.

    Attributes:
        max_batch: most windows scored in one drain's forward pass; the
            drain loops until the queue is empty, so this bounds *batch
            shape*, not throughput.
        max_queue_depth: pending-request bound per detector; arrivals
            beyond it trigger ``admission_policy``.
        admission_policy: see :class:`AdmissionPolicy`.
        latency_budget_s: optional enqueue-to-score budget; requests older
            than this at drain time resolve ``Overloaded(DEADLINE)``
            instead of being scored late.
        default_window: sliding-window length for monitor/stream sessions
            (the paper's 15).
        kernel_backend: named kernel backend
            (:mod:`repro.hmm.backends`) the drain paths score under —
            ``"numpy"`` (default behavior), ``"compiled"``, or any
            registered name.  ``None`` defers to the process default
            (``REPRO_KERNEL_BACKEND`` env, else numpy).  Selection is
            scoped to this service's drains, so two services in one
            process can run different backends; an unavailable-but-known
            backend degrades to numpy at service construction with a
            one-time ``RuntimeWarning`` (scores are bit-identical either
            way — the compiled backend is probe-gated).  Sharded services
            inherit the name per worker.
    """

    max_batch: int = 256
    max_queue_depth: int = 1024
    admission_policy: AdmissionPolicy = AdmissionPolicy.REJECT_NEW
    latency_budget_s: float | None = None
    default_window: int = DEFAULT_SEGMENT_LENGTH
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ServiceError("max_batch must be positive")
        if self.max_queue_depth <= 0:
            raise ServiceError("max_queue_depth must be positive")
        if self.latency_budget_s is not None and self.latency_budget_s <= 0:
            raise ServiceError("latency_budget_s must be positive (or None)")
        if self.default_window <= 0:
            raise ServiceError("default_window must be positive")
        if self.kernel_backend is not None:
            from ..hmm import backends

            if self.kernel_backend not in backends.available_backends():
                raise ServiceError(
                    f"unknown kernel_backend {self.kernel_backend!r}; "
                    f"available: {', '.join(backends.available_backends())}"
                )


@dataclass(frozen=True)
class ShardConfig:
    """Process-sharding knobs for
    :class:`~repro.service.sharded.ShardedDetectionService`.

    Attributes:
        shards: worker-process count.  Every registered detector gets a
            lane in every shard; sessions route to one shard by consistent
            hashing of the session id, so each shard's effective admission
            limit is the per-lane ``ServiceConfig.max_queue_depth``.
        restart_crashed_shards: respawn a worker whose process dies.  The
            replacement re-registers the fleet from the shared-memory store
            and re-opens previously opened monitor/stream sessions with
            fresh (gap-marked) sticky state.  When ``False`` the service
            degrades: submissions routed to a dead shard raise
            ``ServiceUnavailableError`` while the surviving shards keep
            scoring.
    """

    shards: int = 1
    restart_crashed_shards: bool = True

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ServiceError("shards must be positive")
