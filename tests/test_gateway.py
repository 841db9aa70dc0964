"""Tests for the HTTP gateway: exposition rendering, the checked-in
Prometheus validator, and the in-thread HTTP surface.

The black-box subprocess suite lives in ``tests/test_gateway_e2e.py``;
this file tests the pieces in-process where failures are debuggable.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import math
import socket
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.detector import PretrainedDetector
from repro.errors import ReproError
from repro.gateway import (
    DetectionGateway,
    GatewayConfig,
    outcome_status,
    outcome_to_json,
    render_prometheus,
)
from repro.hmm import random_model
from repro.runtime import ModelRegistry
from repro.service import (
    DetectionService,
    Failed,
    Overloaded,
    Scored,
    ServiceConfig,
    ShedReason,
    Streamed,
)

SYMBOLS = ["open", "read", "write", "close"]
SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"


def _load_validator():
    path = SCRIPTS_DIR / "validate_prometheus.py"
    spec = importlib.util.spec_from_file_location("validate_prometheus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate_prometheus = _load_validator()
validate_text = validate_prometheus.validate_text


# ---------------------------------------------------------------------------
# The validator itself
# ---------------------------------------------------------------------------


class TestValidator:
    def test_minimal_valid_exposition(self):
        text = (
            "# HELP x_total a counter\n"
            "# TYPE x_total counter\n"
            "x_total 5\n"
        )
        assert validate_text(text) == []

    def test_labels_and_special_values(self):
        text = (
            '# TYPE up gauge\n'
            'up{job="svc",instance="a:1"} 1\n'
            'up{job="svc",instance="b:2"} NaN\n'
        )
        assert validate_text(text) == []

    def test_bad_metric_name(self):
        assert validate_text("9bad 1\n")

    def test_bad_value(self):
        assert validate_text("# TYPE x gauge\nx one\n")

    def test_duplicate_sample(self):
        text = "# TYPE x gauge\nx 1\nx 2\n"
        assert any("duplicate sample" in e for e in validate_text(text))

    def test_duplicate_type(self):
        text = "# TYPE x gauge\n# TYPE x counter\nx 1\n"
        assert any("duplicate TYPE" in e for e in validate_text(text))

    def test_type_after_samples(self):
        text = "x 1\n# TYPE x gauge\n"
        assert any("after its samples" in e for e in validate_text(text))

    def test_interleaved_families(self):
        text = (
            "# TYPE a gauge\n# TYPE b gauge\n"
            "a 1\nb 1\na{x=\"2\"} 2\n"
        )
        assert any("not consecutive" in e for e in validate_text(text))

    def test_bad_type_name(self):
        assert any(
            "must be one of" in e
            for e in validate_text("# TYPE x exotic\nx 1\n")
        )

    def test_histogram_valid(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 1\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 2.5\n"
            "h_count 4\n"
        )
        assert validate_text(text) == []

    def test_histogram_missing_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 1\n'
            "h_sum 1\nh_count 1\n"
        )
        assert any("missing +Inf" in e for e in validate_text(text))

    def test_histogram_decreasing_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\nh_count 5\n"
        )
        assert any("decrease" in e for e in validate_text(text))

    def test_histogram_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 1\nh_count 9\n"
        )
        assert any("_count" in e for e in validate_text(text))

    def test_cli_entrypoint(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("# TYPE x gauge\nx 1\n")
        assert validate_prometheus.main([str(good)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("x 1\nx 1\n")
        assert validate_prometheus.main([str(bad)]) == 1


# ---------------------------------------------------------------------------
# The renderer
# ---------------------------------------------------------------------------


class TestRenderPrometheus:
    def test_empty_inputs_render_valid_emptiness(self):
        text = render_prometheus(None, None)
        assert validate_text(text) == []

    def test_counters_gain_total_suffix(self):
        snap = {"counters": {"service.submitted": 3.0}}
        text = render_prometheus(snap)
        assert "repro_service_submitted_total 3" in text
        assert validate_text(text) == []

    def test_dynamic_suffixes_become_labels(self):
        snap = {
            "gauges": {
                "service.queue.depth.gzip": {"value": 4.0, "updates": 9},
                "service.queue.depth.sed": {"value": 0.0, "updates": 2},
                "registry.versions.gzip": {"value": 2.0, "updates": 2},
                "registry.active.gzip": {"value": 1.0, "updates": 1},
            }
        }
        text = render_prometheus(snap)
        assert 'repro_service_queue_depth{detector="gzip"} 4' in text
        assert 'repro_service_queue_depth{detector="sed"} 0' in text
        assert 'repro_registry_versions{lineage="gzip"} 2' in text
        assert 'repro_registry_active_version{lineage="gzip"} 1' in text
        assert validate_text(text) == []

    def test_histogram_converts_to_cumulative(self):
        snap = {
            "histograms": {
                "gateway.latency_s": {
                    "boundaries": [0.1, 1.0],
                    "counts": [2, 3],
                    "count": 7,  # 2 overflowed past the last boundary
                    "sum": 4.5,
                    "min": 0.01,
                    "max": 9.0,
                }
            }
        }
        text = render_prometheus(snap)
        assert 'repro_gateway_latency_s_bucket{le="0.1"} 2' in text
        assert 'repro_gateway_latency_s_bucket{le="1"} 5' in text
        assert 'repro_gateway_latency_s_bucket{le="+Inf"} 7' in text
        assert "repro_gateway_latency_s_count 7" in text
        assert validate_text(text) == []

    def test_stats_dict_beats_duplicate_telemetry_counter(self):
        # The sharded stats view merges crashed workers' parent-side
        # accounting; the telemetry counter of the same name must not
        # produce a duplicate (invalid) or contradictory sample.
        snap = {"counters": {"service.submitted": 5.0}}
        stats = {"submitted": 8, "max_depth_seen": 3}
        text = render_prometheus(snap, stats)
        assert "repro_service_submitted_total 8" in text
        assert "repro_service_submitted_total 5" not in text
        assert "repro_service_max_depth_seen 3" in text
        assert validate_text(text) == []

    def test_shard_crashes_exports_as_counter(self):
        text = render_prometheus(None, {"shard_crashes": 2})
        assert "repro_service_shard_crashes_total 2" in text
        assert validate_text(text) == []

    def test_spans_export_as_labeled_counters(self):
        snap = {
            "spans": {
                "hmm.train": {"count": 3, "wall_s": 1.5, "cpu_s": 1.2,
                              "max_wall_s": 0.9}
            }
        }
        text = render_prometheus(snap)
        assert 'repro_span_total{span="hmm.train"} 3' in text
        assert 'repro_span_duration_seconds_total{span="hmm.train"} 1.5' in text
        assert validate_text(text) == []

    def test_weird_names_sanitize_to_valid_output(self):
        snap = {"counters": {"weird name-with:stuff/8": 1.0}}
        stats = {"submitted": 0}
        text = render_prometheus(snap, stats, {"gateway.uptime_seconds": 1.25})
        assert validate_text(text) == []

    def test_non_numeric_stats_entries_are_skipped(self):
        text = render_prometheus(None, {"submitted": 1, "mode": "stream",
                                        "flag": True})
        assert "mode" not in text
        assert "flag" not in text
        assert validate_text(text) == []


# ---------------------------------------------------------------------------
# Outcome mapping
# ---------------------------------------------------------------------------


class TestOutcomeMapping:
    def test_statuses(self):
        assert outcome_status(
            Scored(score=0.0, detector="d", session="s", batch_size=1,
                   queued_s=0.0)
        ) == 200
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.QUEUE_FULL, depth=4)
        ) == 429
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.SHED_OLDEST, depth=4)
        ) == 429
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.DEADLINE, depth=4)
        ) == 429
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.SHUTDOWN, depth=4)
        ) == 503
        assert outcome_status(
            Failed(detector="d", session="s", error="boom")
        ) == 500

    def test_json_round_trip_is_bit_exact(self):
        score = -math.pi / 7.0
        payload = outcome_to_json(
            Streamed(surprise=score, detector="d", session="s",
                     batch_size=1, queued_s=0.0, windowed_score=score)
        )
        decoded = json.loads(json.dumps(payload))
        assert decoded["surprise"] == score
        assert decoded["windowed_score"] == score

    def test_unknown_object_raises(self):
        with pytest.raises(TypeError):
            outcome_to_json(object())


# ---------------------------------------------------------------------------
# In-thread HTTP surface
# ---------------------------------------------------------------------------


@pytest.fixture()
def gateway_stack():
    """An in-process service + registry + running gateway, torn down after."""
    telemetry.enable()
    model = random_model(SYMBOLS, n_states=3, seed=1)
    service = DetectionService(ServiceConfig(max_batch=32, default_window=5))
    service.register(
        "served", PretrainedDetector(model, name="served"),
        threshold=-5.0, window=5,
    )
    service.start()
    registry = ModelRegistry()
    gateway = DetectionGateway(service, registry, GatewayConfig())
    registry.publish("served", model, activate=True)
    gateway.start()
    try:
        yield gateway, service, registry, model
    finally:
        gateway.stop()
        try:
            service.close(drain=False)
        except ReproError:
            pass
        telemetry.disable()


def _request(gateway, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data)
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw and raw.lstrip()[:1] in (b"{", b"[") else raw
        return response.status, payload
    finally:
        conn.close()


class TestGatewayHTTP:
    def test_health(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(gateway, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["detectors"] == ["served"]
        assert payload["lineages"] == ["served"]

    def test_unknown_route_404(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(gateway, "GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(gateway, "POST", "/health", {})
        assert status == 405
        status, _ = _request(gateway, "GET", "/v1/sessions")
        assert status == 405

    def test_invalid_json_400(self, gateway_stack):
        gateway, *_ = gateway_stack
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request("POST", "/v1/sessions", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_detector_404(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "ghost", "session": "s", "mode": "stream"},
        )
        assert status == 404

    def test_window_scoring_round_trip(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/w1/observe",
            {"window": ["open", "read", "write", "close", "read"]},
        )
        assert status == 200
        assert payload["kind"] == "scored"
        assert payload["anomalous"] in (False, True)

    def test_stream_lifecycle(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "s1", "mode": "stream"},
        )
        assert (status, payload["mode"]) == (200, "stream")
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/s1/observe",
            {"symbols": ["open", "read", "write"]},
        )
        assert status == 200
        assert [r["kind"] for r in payload["results"]] == ["streamed"] * 3
        status, payload = _request(gateway, "DELETE", "/v1/sessions/served/s1")
        assert (status, payload["closed"]) == (200, True)
        status, payload = _request(gateway, "DELETE", "/v1/sessions/served/s1")
        assert (status, payload["closed"]) == (200, False)

    def test_observe_requires_exactly_one_payload_kind(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/s1/observe", {}
        )
        assert status == 400
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/s1/observe",
            {"symbol": "open", "window": ["open"]},
        )
        assert status == 400

    def test_body_over_limit_413(self, gateway_stack):
        gateway, *_ = gateway_stack
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            big = b"x" * (gateway.config.max_body_bytes + 1)
            conn.request("POST", "/v1/sessions", body=big)
            assert conn.getresponse().status == 413
        finally:
            conn.close()

    @pytest.mark.parametrize("declared", ["-5", "1_0", "+3", "0x10"])
    def test_non_digit_content_length_400(self, gateway_stack, declared):
        """Only plain ASCII digits frame a body: anything ``int()`` would
        also take (or reject) gets a 400 and a close, and the gateway
        keeps serving fresh connections."""
        gateway, *_ = gateway_stack
        head = (
            "POST /v1/sessions HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=10
        ) as sock:
            sock.sendall(head.encode("ascii"))
            response = b""
            while chunk := sock.recv(65536):  # read until the server closes
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"bad Content-Length" in response
        status, payload = _request(gateway, "GET", "/health")
        assert (status, payload["status"]) == (200, "ok")

    def test_keep_alive_reuses_one_connection(self, gateway_stack):
        gateway, *_ = gateway_stack
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                assert response.headers.get("Connection") == "keep-alive"
        finally:
            conn.close()

    def test_registry_endpoints(self, gateway_stack, tmp_path):
        gateway, service, registry, model = gateway_stack
        from repro.hmm import save_model

        other = random_model(SYMBOLS, n_states=3, seed=2)
        path = tmp_path / "v2.npz"
        save_model(other, path)
        status, payload = _request(
            gateway, "POST", "/v1/registry/served/publish",
            {"path": str(path), "metadata": {"note": "retrain"}},
        )
        assert (status, payload["version"], payload["active"]) == (200, 2, False)
        status, payload = _request(gateway, "GET", "/v1/registry")
        assert payload["lineages"]["served"] == {"versions": [1, 2], "active": 1}
        status, payload = _request(
            gateway, "POST", "/v1/registry/served/rollout", {"version": 2}
        )
        assert (status, payload["active"]) == (200, True)
        assert registry.active_version("served") == 2
        status, payload = _request(
            gateway, "POST", "/v1/registry/served/rollback", {}
        )
        assert (status, payload["version"]) == (200, 1)
        status, _ = _request(
            gateway, "POST", "/v1/registry/served/rollout", {"version": 99}
        )
        assert status == 404
        status, _ = _request(
            gateway, "POST", "/v1/registry/ghost/rollout", {"version": 1}
        )
        assert status == 404

    def test_rollout_swaps_served_model(self, gateway_stack, tmp_path):
        gateway, service, registry, model = gateway_stack
        from repro.core.streaming import StreamingScorer
        from repro.hmm import save_model

        other = random_model(SYMBOLS, n_states=3, seed=7)
        path = tmp_path / "v2.npz"
        save_model(other, path)
        _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "swapee", "mode": "stream"},
        )
        _request(
            gateway, "POST", "/v1/sessions/served/swapee/observe",
            {"symbol": "open"},
        )
        _request(
            gateway, "POST", "/v1/registry/served/publish",
            {"path": str(path), "activate": True},
        )
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/swapee/observe",
            {"symbol": "read"},
        )
        assert status == 200
        assert payload["gap"] is False
        expected = StreamingScorer(other, window=5).observe("read")
        assert payload["surprise"] == expected

    def test_metrics_valid_and_carries_gateway_families(self, gateway_stack):
        gateway, *_ = gateway_stack
        _request(gateway, "GET", "/health")
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        finally:
            conn.close()
        assert validate_text(text) == []
        assert "repro_gateway_requests_total" in text
        assert "repro_gateway_latency_s_bucket" in text
        assert "repro_service_submitted_total" in text

    def test_admin_close_then_503(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", "/v1/admin/close", {"drain": True}
        )
        assert status == 200
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/w9/observe",
            {"window": ["open", "read", "write", "close", "read"]},
        )
        assert status == 503
