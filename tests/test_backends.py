"""Kernel-backend layer: registry, selection, and the compiled backend.

Two kinds of coverage:

* **Selection semantics** (run everywhere): precedence of scope >
  process default > environment, loud failure on unknown names, graceful
  numpy fallback — warned once, counted in telemetry — when the compiled
  backend cannot build or its self-probe fails.  These tests must stay
  green on a host with *no* C toolchain (CI runs a no-compiler variant
  to prove it).
* **Differential suite** (skipped without a toolchain): the compiled
  kernels are bit-for-bit identical to the numpy reference across
  hypothesis-driven shapes for all three kernels — batch scoring, the
  fleet contraction (including FLEET_GEMM_UNIT padding edges, batch
  mod 8 in {1, 2, 3}), and the incremental streaming step through
  reset and warm-rebind.  Bit-identity here is the whole contract: a
  backend that is "close" is a broken backend.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.api import (
    available_kernel_backends,
    kernel_backend,
    use_kernel_backend,
)
from repro.cli import main as cli_main
from repro.errors import KernelBackendError, ServiceError
from repro.hmm import random_model
from repro.hmm.backends import (
    BACKEND_ENV,
    active_backend,
    available_backends,
    backend_scope,
    resolve_backend,
    use_backend,
    _reset_for_tests,
)
from repro.hmm.kernels import (
    SCORE_TILE,
    StreamingState,
    _score_fleet_numpy,
    _score_sequences_numpy,
    _streaming_step_numpy,
    score_fleet,
    score_sequences,
    streaming_rebind,
    streaming_reset,
    streaming_step,
)
from repro.service.config import ServiceConfig


def _compiled_available() -> bool:
    """Can this host actually build and verify the compiled backend?"""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return resolve_backend("compiled").name == "compiled"
        except Exception:  # pragma: no cover - defensive
            return False


HAS_COMPILED = _compiled_available()
requires_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="no C toolchain; compiled backend unavailable"
)


@pytest.fixture(autouse=True)
def _fresh_backend_state():
    """Isolate instance cache, process default, scopes, and warn-once."""
    _reset_for_tests()
    yield
    _reset_for_tests()


def _model(n_states: int, n_symbols: int, seed: int):
    symbols = [f"s{i}" for i in range(n_symbols)]
    return random_model(symbols, n_states=n_states, seed=seed)


# ---------------------------------------------------------------------------
# Selection semantics (toolchain-independent)
# ---------------------------------------------------------------------------


class TestSelection:
    def test_registry_lists_both_builtins(self):
        assert "numpy" in available_backends()
        assert "compiled" in available_backends()

    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"
        assert not active_backend().dispatches

    def test_unknown_name_is_loud(self):
        with pytest.raises(KernelBackendError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert active_backend().name == "numpy"

    def test_env_var_unknown_name_is_loud(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fortran")
        with pytest.raises(KernelBackendError):
            active_backend()

    def test_scope_beats_process_default(self):
        use_backend("numpy")
        with backend_scope("numpy") as scoped:
            assert active_backend() is scoped
        assert active_backend().name == "numpy"

    def test_scope_restores_on_exit(self):
        before = active_backend()
        with backend_scope("numpy"):
            pass
        assert active_backend() is before

    def test_service_config_rejects_unknown_backend(self):
        with pytest.raises(ServiceError, match="kernel"):
            ServiceConfig(kernel_backend="fortran")

    def test_service_config_accepts_known_backend(self):
        assert ServiceConfig(kernel_backend="numpy").kernel_backend == "numpy"
        assert ServiceConfig().kernel_backend is None

    def test_api_surface(self):
        assert set(available_kernel_backends()) >= {"compiled", "numpy"}
        assert use_kernel_backend("numpy") == "numpy"
        assert kernel_backend() == "numpy"
        with pytest.raises(KernelBackendError):
            use_kernel_backend("fortran")

    def test_cli_flag_sets_backend(self):
        assert cli_main(["--kernel-backend", "numpy", "corpus"]) == 0

    def test_cli_flag_unknown_backend_exits_2(self, capsys):
        assert cli_main(["--kernel-backend", "fortran", "corpus"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err


class TestFallback:
    def test_broken_toolchain_falls_back_to_numpy(self, monkeypatch):
        """No compiler => numpy result, one RuntimeWarning, one counter."""
        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent/cc")
        model = _model(4, 6, seed=0)
        obs = np.random.default_rng(1).integers(0, 6, size=(5, 7))
        with telemetry.session() as registry:
            with pytest.warns(RuntimeWarning, match="falling back"):
                backend = resolve_backend("compiled")
            assert backend.name == "numpy"
            with backend_scope("compiled"):
                got = score_sequences(model, obs)
        counters = registry.snapshot()["counters"]
        assert counters.get("hmm.backend.fallback", 0) >= 1
        assert got.tobytes() == _score_sequences_numpy(model, obs).tobytes()

    def test_fallback_warns_once(self, monkeypatch):
        """The degradation is loud exactly once, then silent."""
        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent/cc")
        with pytest.warns(RuntimeWarning):
            resolve_backend("compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("compiled").name == "numpy"

    @requires_compiled
    def test_probe_failure_falls_back_to_numpy(self, monkeypatch):
        """A backend whose self-check fails must never serve results."""
        backend = resolve_backend("compiled")
        monkeypatch.setattr(type(backend), "_probe", lambda *a, **k: False)
        model = _model(32, 64, seed=2)
        obs = np.random.default_rng(3).integers(0, 64, size=(4, 9))
        with telemetry.session() as registry:
            with pytest.warns(RuntimeWarning, match="bit-identity probe"):
                with backend_scope("compiled"):
                    got = score_sequences(model, obs)
        counters = registry.snapshot()["counters"]
        assert counters.get("hmm.backend.probe_fail", 0) >= 1
        assert counters.get("hmm.backend.fallback", 0) >= 1
        assert got.tobytes() == _score_sequences_numpy(model, obs).tobytes()


# ---------------------------------------------------------------------------
# Differential suite: compiled ≡ numpy, bit for bit
# ---------------------------------------------------------------------------


@st.composite
def score_cases(draw):
    n_states = draw(st.sampled_from((8, 16, 32, 48, 64)))
    n_symbols = draw(st.integers(min_value=2, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    batch = draw(st.integers(min_value=1, max_value=70))
    length = draw(st.integers(min_value=1, max_value=20))
    return n_states, n_symbols, seed, batch, length


@requires_compiled
class TestCompiledDifferential:
    def test_engages_at_reference_shape(self):
        """Not a trivial pass-through: compiled really dispatches N=32."""
        backend = resolve_backend("compiled")
        model = _model(32, 64, seed=5)
        obs = np.random.default_rng(6).integers(0, 64, size=(33, 15))
        out = backend.score_sequences(model, obs, SCORE_TILE)
        assert out is not None
        assert out.tobytes() == _score_sequences_numpy(model, obs).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(score_cases())
    def test_batch_scoring_bit_identical(self, case):
        n_states, n_symbols, seed, batch, length = case
        model = _model(n_states, n_symbols, seed)
        rng = np.random.default_rng(seed + 1)
        obs = rng.integers(0, n_symbols, size=(batch, length))
        expected = _score_sequences_numpy(model, obs)
        with backend_scope("compiled"):
            got = score_sequences(model, obs)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("batches", [(1, 2, 3), (9, 10, 11), (8, 16, 17)])
    def test_fleet_contraction_bit_identical_at_padding_edges(self, batches):
        """Fleet batches with N mod FLEET_GEMM_UNIT in {0, 1, 2, 3}."""
        models = [_model(32, 64, seed=20 + i) for i in range(len(batches))]
        rng = np.random.default_rng(7)
        obs_list = [
            rng.integers(0, 64, size=(batch, 11)) for batch in batches
        ]
        expected = _score_fleet_numpy(models, obs_list)
        with backend_scope("compiled"):
            got = score_fleet(models, obs_list)
        for want, have in zip(expected, got):
            assert have.tobytes() == want.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from((8, 16, 32, 48, 64)),
        st.integers(min_value=0, max_value=500),
    )
    def test_streaming_step_bit_identical(self, n_states, seed):
        """Per-event parity through a reset and a warm-model rebind."""
        n_symbols = 24
        model = _model(n_states, n_symbols, seed)
        swap = _model(n_states, n_symbols, seed + 1)
        fast = StreamingState(model, window=7)
        oracle = StreamingState(model, window=7)
        rng = np.random.default_rng(seed + 2)
        current = model
        for step, index in enumerate(rng.integers(0, n_symbols, size=60)):
            if step == 20:
                streaming_reset(current, fast)
                streaming_reset(current, oracle)
            if step == 40:
                current = swap
                streaming_rebind(current, fast)
                streaming_rebind(current, oracle)
            with backend_scope("compiled"):
                got = streaming_step(current, fast, int(index))
            want = _streaming_step_numpy(current, oracle, int(index))
            assert got == want
        assert fast.belief.tobytes() == oracle.belief.tobytes()
        assert fast.ring.tobytes() == oracle.ring.tobytes()
        assert (fast.pos, fast.count) == (oracle.pos, oracle.count)

    def test_streaming_probe_counter(self):
        """First verified stream binding records a probe_pass counter."""
        model = _model(16, 24, seed=9)
        state = StreamingState(model, window=5)
        with telemetry.session() as registry, backend_scope("compiled"):
            streaming_step(model, state, 3)
        counters = registry.snapshot()["counters"]
        assert counters.get("hmm.backend.probe_pass", 0) >= 1
