"""Async HTTP front end over the detection service + model registry.

A deliberately minimal, dependency-free gateway: handwritten HTTP/1.1 over
``asyncio.start_server`` (keep-alive, ``Content-Length`` framing, JSON
bodies) feeding the existing **bounded admission queues** of
:class:`~repro.service.service.DetectionService` /
:class:`~repro.service.sharded.ShardedDetectionService`.  The gateway adds
no queueing of its own — backpressure is the service's typed
:class:`~repro.service.outcomes.Overloaded` outcome, surfaced as HTTP 429
(admission shed) or 503 (shutdown / shard down), so a load balancer sees
the same story the in-process API tells.

Endpoints (all JSON unless noted)::

    GET    /health                                    liveness + fleet summary
    GET    /metrics                                   Prometheus text exposition
    POST   /v1/sessions                               {detector, session, mode}
    POST   /v1/sessions/{detector}/{session}/observe  {window|symbol|symbols}
    DELETE /v1/sessions/{detector}/{session}
    GET    /v1/registry                               lineages + active versions
    POST   /v1/registry/{lineage}/publish             {path|cache_key, activate?, metadata?}
    POST   /v1/registry/{lineage}/rollout             {version}
    POST   /v1/registry/{lineage}/rollback
    POST   /v1/admin/pump                             one drain round (test hook)
    POST   /v1/admin/close                            {drain?} service shutdown

**Warm-swap**: the gateway subscribes to its
:class:`~repro.runtime.registry.ModelRegistry`; every activation (rollout,
rollback, ``publish(activate=True)``) of a lineage whose name matches a
registered detector is pushed into the live service via
``service.swap_detector`` — the lane drains under the old model first (the
swap barrier), then in-flight sessions are rebound in place.  No session is
dropped or gap-marked by an upgrade; ``tests/test_gateway_e2e.py`` proves
this black-box over a sharded fleet.

Event-loop discipline: every service call (lock + pipe I/O) and every
``Ticket.result`` wait runs in ``asyncio.to_thread``, so slow drains never
stall the accept loop or other connections.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from dataclasses import dataclass

from .. import telemetry
from ..errors import ReproError, ServiceError
from ..runtime.registry import ModelRegistry, RegistryError
from ..service.fleet import rebuild_detector, resolve_model
from ..service.outcomes import (
    Absorbed,
    Failed,
    Overloaded,
    Scored,
    ShedReason,
    Streamed,
)
from ..telemetry import DEFAULT_SECONDS_BUCKETS
from .exposition import render_prometheus

__all__ = [
    "DetectionGateway",
    "GatewayConfig",
    "GatewayError",
    "outcome_status",
    "outcome_to_json",
]


class GatewayError(ReproError):
    """Gateway lifecycle misuse (double start, failed bind, ...)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for one :class:`DetectionGateway`.

    Attributes:
        host: bind address.
        port: bind port; ``0`` asks the kernel for an ephemeral one (read
            it back from :attr:`DetectionGateway.port` after start — the
            test harness and CLI both do).
        result_timeout_s: how long ``observe`` waits for a ticket before
            answering 503; under a running pump this bounds a stuck drain,
            it is not a latency budget.
        max_body_bytes: request bodies above this answer 413.
        call_kind: trace alphabet for detectors rebuilt from registry
            activations (matches the fleet's training, default syscall).
    """

    host: str = "127.0.0.1"
    port: int = 0
    result_timeout_s: float = 30.0
    max_body_bytes: int = 1 << 20
    call_kind: str = "syscall"


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HTTPError(Exception):
    """Raised by handlers to short-circuit into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def outcome_status(outcome) -> int:
    """The HTTP status one service outcome maps to.

    ``Overloaded`` splits by reason: admission sheds (queue full, shed
    oldest, deadline) are the client's 429 — retry with backoff — while a
    shutdown shed is the deployment's 503.  ``Failed`` is 500: the request
    was accepted but scoring raised.
    """
    if isinstance(outcome, Overloaded):
        return 503 if outcome.reason is ShedReason.SHUTDOWN else 429
    if isinstance(outcome, Failed):
        return 500
    return 200


def outcome_to_json(outcome) -> dict:
    """A JSON-safe dict for one typed outcome (tagged by ``kind``).

    Floats pass through :func:`json.dumps` via ``repr`` and round-trip
    bit-exactly — the e2e suite leans on this to assert pre-swap scores
    are *identical* to the old model's, not merely close.
    """
    if isinstance(outcome, Scored):
        return {
            "kind": "scored",
            "detector": outcome.detector,
            "session": outcome.session,
            "score": outcome.score,
            "batch_size": outcome.batch_size,
            "queued_s": outcome.queued_s,
            "anomalous": outcome.anomalous,
            "gap": outcome.gap,
            "alert": dataclasses.asdict(outcome.alert)
            if outcome.alert is not None
            else None,
        }
    if isinstance(outcome, Streamed):
        return {
            "kind": "streamed",
            "detector": outcome.detector,
            "session": outcome.session,
            "surprise": outcome.surprise,
            "windowed_score": outcome.windowed_score,
            "batch_size": outcome.batch_size,
            "queued_s": outcome.queued_s,
            "anomalous": outcome.anomalous,
            "gap": outcome.gap,
        }
    if isinstance(outcome, Absorbed):
        return {
            "kind": "absorbed",
            "detector": outcome.detector,
            "session": outcome.session,
            "queued_s": outcome.queued_s,
        }
    if isinstance(outcome, Overloaded):
        return {
            "kind": "overloaded",
            "detector": outcome.detector,
            "session": outcome.session,
            "reason": outcome.reason.value,
            "depth": outcome.depth,
            "queued_s": outcome.queued_s,
        }
    if isinstance(outcome, Failed):
        return {
            "kind": "failed",
            "detector": outcome.detector,
            "session": outcome.session,
            "error": outcome.error,
            "queued_s": outcome.queued_s,
        }
    raise TypeError(f"not a service outcome: {type(outcome).__name__}")


def _version_to_json(entry, active: int | None) -> dict:
    return {
        "lineage": entry.lineage,
        "version": entry.version,
        "params_hash": entry.params_hash,
        "created_at": entry.created_at,
        "metadata": dict(entry.metadata),
        "cache_key": entry.cache_key,
        "active": entry.version == active,
    }


def _service_error_status(exc: ServiceError) -> int:
    text = str(exc)
    if "closed" in text or "shard" in text and "died" in text:
        return 503
    if text.startswith("no detector") or "is not open" in text:
        return 404
    return 400


class DetectionGateway:
    """One HTTP server bound to one service + one registry.

    The server runs its asyncio loop in a dedicated daemon thread
    (:meth:`start` / :meth:`stop`), so the same object serves both the CLI
    (start, print address, sleep) and in-process tests.  The service's own
    background pump (``service.start()``) is the caller's to manage — the
    CLI starts it; the e2e 429 fixture deliberately does not.
    """

    def __init__(
        self,
        service,
        registry: ModelRegistry | None = None,
        config: GatewayConfig | None = None,
    ) -> None:
        self.service = service
        self.registry = registry if registry is not None else ModelRegistry()
        self.config = config or GatewayConfig()
        self.port: int | None = None
        self._t0 = time.monotonic()
        self._inflight = 0
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.registry.subscribe(self._on_activation)

    # ------------------------------------------------------------------
    # Warm-swap seam
    # ------------------------------------------------------------------
    def _on_activation(self, lineage: str, entry, model) -> None:
        """Registry subscriber: push every activation into the live fleet.

        Lineage names double as detector names; an activation for a
        lineage the service does not serve is staged only (it becomes
        servable the moment a detector with that name registers).
        """
        if lineage not in self.service.detectors:
            return
        detector = rebuild_detector(
            model, kind=self.config.call_kind, name=lineage
        )
        self.service.swap_detector(lineage, detector)
        telemetry.counter_add("gateway.swaps")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind and serve in a background thread; returns once listening
        (``self.port`` is then the real bound port)."""
        if self._thread is not None:
            raise GatewayError("gateway already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise GatewayError("gateway did not come up within 15s")
        if self._startup_error is not None:
            raise GatewayError(
                f"gateway failed to bind {self.config.host}:{self.config.port}: "
                f"{self._startup_error}"
            )

    def stop(self) -> None:
        """Stop accepting, close the loop, join the thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        thread.join(timeout=15.0)
        self._thread = None

    def __enter__(self) -> "DetectionGateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._shutdown.wait()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break  # client went away between requests
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, 431, {"error": "headers too large"}, False
                    )
                    break
                try:
                    method, path, version, headers = self._parse_head(head)
                except ValueError as exc:
                    await self._respond(writer, 400, {"error": str(exc)}, False)
                    break
                declared = headers.get("content-length", "0")
                # Plain ASCII digits only: int() would also take "-5",
                # "+3", "1_0" and non-ASCII digits.
                if not (declared.isascii() and declared.isdigit()):
                    await self._respond(
                        writer, 400, {"error": "bad Content-Length"}, False
                    )
                    break
                length = int(declared)
                if length > self.config.max_body_bytes:
                    # Drain the declared body (bounded) before answering:
                    # closing with unread bytes in flight RSTs the socket
                    # and the client dies on send() without ever seeing
                    # the 413.  Absurd declarations just get the close.
                    remaining = length
                    if length <= 4 * self.config.max_body_bytes:
                        while remaining:
                            chunk = await reader.read(min(65536, remaining))
                            if not chunk:
                                break
                            remaining -= len(chunk)
                    await self._respond(
                        writer,
                        413,
                        {"error": f"body over {self.config.max_body_bytes} bytes"},
                        False,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                status, payload, raw = await self._serve(method, path, body)
                await self._respond(writer, status, payload, keep_alive, raw)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels live connection tasks; finishing
            # normally here keeps asyncio.run's teardown quiet (the
            # connection is closed below either way).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Teardown can cancel the wait itself; the transport is
                # already closing, so swallowing keeps shutdown quiet.
                pass

    @staticmethod
    def _parse_head(head: bytes):
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ValueError("undecodable request head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line {lines[0]!r}")
        method, target, version = parts
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise ValueError(f"unsupported HTTP version {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, version, headers

    async def _respond(
        self, writer, status: int, payload, keep_alive: bool, raw: bytes | None = None
    ) -> None:
        if raw is not None:
            body = raw
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _serve(self, method: str, target: str, body: bytes):
        """Dispatch one request; returns ``(status, payload, raw_bytes)``."""
        started = time.monotonic()
        self._inflight += 1
        telemetry.counter_add("gateway.requests")
        telemetry.gauge_set("gateway.inflight", self._inflight)
        raw: bytes | None = None
        try:
            status, payload, raw = await self._route(method, target, body)
        except _HTTPError as exc:
            status, payload = exc.status, {"error": exc.message}
        except RegistryError as exc:
            status, payload = 404, {"error": str(exc)}
        except ServiceError as exc:
            status, payload = _service_error_status(exc), {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            self._inflight -= 1
            telemetry.gauge_set("gateway.inflight", self._inflight)
        telemetry.counter_add(f"gateway.responses.{status // 100}xx")
        telemetry.observe(
            "gateway.latency_s",
            time.monotonic() - started,
            DEFAULT_SECONDS_BUCKETS,
        )
        return status, payload, raw

    async def _route(self, method: str, target: str, body: bytes):
        path = target.split("?", 1)[0]
        parts = tuple(p for p in path.split("/") if p)

        if parts == ("health",):
            self._require(method, "GET")
            return 200, await asyncio.to_thread(self._health), None
        if parts == ("metrics",):
            self._require(method, "GET")
            text = await asyncio.to_thread(self._metrics_text)
            return 200, None, text.encode("utf-8")
        if parts == ("v1", "sessions"):
            self._require(method, "POST")
            return await self._open_session(self._json(body))
        if len(parts) == 5 and parts[:2] == ("v1", "sessions") and parts[4] == "observe":
            self._require(method, "POST")
            return await self._observe(parts[2], parts[3], self._json(body))
        if len(parts) == 4 and parts[:2] == ("v1", "sessions"):
            self._require(method, "DELETE")
            return await self._close_session(parts[2], parts[3])
        if parts == ("v1", "registry"):
            self._require(method, "GET")
            return 200, await asyncio.to_thread(self._registry_index), None
        if len(parts) == 4 and parts[:2] == ("v1", "registry"):
            self._require(method, "POST")
            lineage, action = parts[2], parts[3]
            if action == "publish":
                return await self._publish(lineage, self._json(body))
            if action == "rollout":
                return await self._rollout(lineage, self._json(body))
            if action == "rollback":
                return await self._rollback(lineage)
            raise _HTTPError(404, f"unknown registry action {action!r}")
        if parts == ("v1", "admin", "pump"):
            self._require(method, "POST")
            resolved = await asyncio.to_thread(self.service.pump)
            return 200, {"resolved": resolved}, None
        if parts == ("v1", "admin", "close"):
            self._require(method, "POST")
            payload = self._json(body) if body else {}
            drain = bool(payload.get("drain", True))
            handled = await asyncio.to_thread(self.service.close, drain)
            return 200, {"handled": handled, "drain": drain}, None
        raise _HTTPError(404, f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"use {expected}, not {method}")

    @staticmethod
    def _json(body: bytes) -> dict:
        if not body:
            raise _HTTPError(400, "a JSON body is required")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "the JSON body must be an object")
        return payload

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        info = {
            "status": "ok",
            "detectors": sorted(self.service.detectors),
            "lineages": list(self.registry.lineages()),
            "uptime_s": time.monotonic() - self._t0,
        }
        try:
            info["pending"] = self.service.pending
        except ServiceError:
            info["status"] = "closed"
        shards = getattr(self.service, "shards", None)
        if isinstance(shards, int):
            info["shards"] = shards
            info["live_shards"] = self.service.live_shards
        return info

    def _metrics_text(self) -> str:
        sync = getattr(self.service, "sync_telemetry", None)
        if sync is not None:
            try:
                sync()
            except ServiceError:
                pass  # closed service: render what the parent already holds
        snap = telemetry.snapshot() if telemetry.enabled() else None
        try:
            stats = self.service.stats.as_dict()
        except ServiceError:  # pragma: no cover - stats never raises today
            stats = {}
        extra = {
            "gateway.uptime_seconds": time.monotonic() - self._t0,
            "gateway.inflight_requests": self._inflight,
        }
        return render_prometheus(snap, stats, extra)

    async def _open_session(self, payload: dict):
        detector = payload.get("detector")
        session_id = payload.get("session")
        mode = payload.get("mode", "window")
        if not isinstance(detector, str) or not isinstance(session_id, str):
            raise _HTTPError(400, "detector and session must be strings")
        if mode not in ("window", "monitor", "stream"):
            raise _HTTPError(400, f"unknown mode {mode!r}")
        session = await asyncio.to_thread(
            self.service.open_session, detector, session_id, mode
        )
        return (
            200,
            {
                "detector": detector,
                "session": session_id,
                "mode": session.mode.value,
            },
            None,
        )

    async def _close_session(self, detector: str, session_id: str):
        existed = await asyncio.to_thread(
            self.service.close_session, detector, session_id
        )
        return 200, {"detector": detector, "session": session_id, "closed": existed}, None

    async def _observe(self, detector: str, session_id: str, payload: dict):
        window = payload.get("window")
        symbol = payload.get("symbol")
        symbols = payload.get("symbols")
        given = [x for x in (window, symbol, symbols) if x is not None]
        if len(given) != 1:
            raise _HTTPError(
                400, "give exactly one of window, symbol, or symbols"
            )
        if window is not None:
            if not isinstance(window, list) or not all(
                isinstance(s, str) for s in window
            ):
                raise _HTTPError(400, "window must be a list of strings")
            tickets = [
                await asyncio.to_thread(
                    self.service.submit, detector, session_id, window=window
                )
            ]
        elif symbol is not None:
            if not isinstance(symbol, str):
                raise _HTTPError(400, "symbol must be a string")
            tickets = [
                await asyncio.to_thread(
                    self.service.submit, detector, session_id, symbol=symbol
                )
            ]
        else:
            if not isinstance(symbols, list) or not all(
                isinstance(s, str) for s in symbols
            ):
                raise _HTTPError(400, "symbols must be a list of strings")
            if not symbols:
                raise _HTTPError(400, "symbols must not be empty")
            tickets = []
            for item in symbols:
                tickets.append(
                    await asyncio.to_thread(
                        self.service.submit, detector, session_id, symbol=item
                    )
                )
        outcomes = []
        for ticket in tickets:
            try:
                outcome = await asyncio.to_thread(
                    ticket.result, self.config.result_timeout_s
                )
            except TimeoutError:
                raise _HTTPError(
                    503,
                    f"no outcome within {self.config.result_timeout_s}s "
                    "(is the pump running?)",
                ) from None
            outcomes.append(outcome)
        status = max(outcome_status(o) for o in outcomes)
        if symbols is not None:
            return status, {"results": [outcome_to_json(o) for o in outcomes]}, None
        return status, outcome_to_json(outcomes[0]), None

    def _registry_index(self) -> dict:
        lineages = {}
        for lineage in self.registry.lineages():
            active = self.registry.active_version(lineage)
            lineages[lineage] = {
                "versions": list(self.registry.versions(lineage)),
                "active": active,
            }
        return {"lineages": lineages, "detectors": sorted(self.service.detectors)}

    async def _publish(self, lineage: str, payload: dict):
        path = payload.get("path")
        cache_key = payload.get("cache_key")
        if (path is None) == (cache_key is None):
            raise _HTTPError(400, "publish needs exactly one of path or cache_key")
        if path is not None and not isinstance(path, str):
            raise _HTTPError(400, "path must be a server-side string path")
        if cache_key is not None and not isinstance(cache_key, str):
            raise _HTTPError(400, "cache_key must be a string")
        source = path if path is not None else f"cache:{cache_key}"
        activate = bool(payload.get("activate", False))
        metadata = payload.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise _HTTPError(400, "metadata must be an object")

        def publish():
            model = resolve_model(source, cache=self.registry.cache)
            entry = self.registry.publish(
                lineage, model, metadata=metadata, activate=activate
            )
            return entry

        entry = await asyncio.to_thread(publish)
        active = self.registry.active_version(lineage)
        return 200, _version_to_json(entry, active), None

    async def _rollout(self, lineage: str, payload: dict):
        version = payload.get("version")
        if not isinstance(version, int):
            raise _HTTPError(400, "rollout needs an integer version")
        entry = await asyncio.to_thread(self.registry.rollout, lineage, version)
        return 200, _version_to_json(entry, entry.version), None

    async def _rollback(self, lineage: str):
        entry = await asyncio.to_thread(self.registry.rollback, lineage)
        return 200, _version_to_json(entry, entry.version), None
