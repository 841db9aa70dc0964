"""The ``compiled`` kernel backend: C + ``ctypes``, probed bit-identical.

``_forward_kernels.c`` re-states the numpy hot-path arithmetic with the
exact per-element reduction orders the BLAS builds we target use (see
the C file's header).  This module owns everything around it:

* **Build**: the shared library is compiled at first use with the host
  C compiler (``$REPRO_KERNEL_CC``, else the first of ``cc``/``gcc``/
  ``clang`` on ``PATH``) into a content-addressed cache
  (``$REPRO_KERNEL_CACHE``, else a per-user temp directory), so repeat
  processes pay a hash check instead of a compile.  Any failure raises
  :class:`~repro.errors.KernelBackendError`, which the registry turns
  into a warned numpy fallback.
* **Probe-then-trust dispatch**: floating-point reduction order inside
  BLAS depends on operand shape, ISA, and build, so matching it from C
  is an empirical claim, not a guarantee.  Before the backend serves a
  (kernel, n_states) combination it replays seeded random workloads
  through both implementations and compares *bits*; a mismatch declines
  that combination forever (numpy fallback + one-time warning) while
  other shapes keep dispatching.  The fleet probe doubles as a runtime
  re-verification of the height-invariance contract ``score_fleet``
  rests on.
* **Wrappers**: logs are applied on the Python side with ``np.log``
  (numpy's SIMD log differs from libm's by one ulp on a small fraction
  of inputs, so the C kernels return raw scale factors), and the
  streaming wrapper mirrors the numpy step's ring/``pos``/``count``
  bookkeeping exactly.  Per-stream pointers are packed once into a C
  struct cached on ``StreamingState.backend_ctx`` so the per-event call
  passes two scalars.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

#: Module-level alias: the streaming hot path runs once per event, and the
#: ``np.log`` attribute chase is measurable there.  It MUST be numpy's log —
#: libm's ``log`` differs in the last ulp on some inputs, which would break
#: the bit-identity contract with the numpy oracle.
_np_log = np.log

from ... import telemetry
from ...errors import KernelBackendError
from . import KernelBackend, _note_fallback

#: Bumped whenever the C entry points change shape; baked into both the
#: cache digest and a runtime check so a stale cached library can never
#: be called through the wrong signatures.
ABI_VERSION = 1

#: Environment overrides for the build.
CC_ENV = "REPRO_KERNEL_CC"
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Row block of the C batch scorer; the generic-n path needs a scratch
#: buffer of ``2 * RBLK * n`` doubles.  Must match ``RBLK`` in the C.
RBLK = 8

_SOURCE = Path(__file__).with_name("_forward_kernels.c")

_BASE_FLAGS = ("-O3", "-march=native", "-funroll-loops", "-shared", "-fPIC")

__all__ = ["ABI_VERSION", "CC_ENV", "CACHE_ENV", "CompiledBackend", "load_backend"]


class ReproStreamCtx(ctypes.Structure):
    """Mirror of the C ``ReproStreamCtx`` (pointer pack for one stream)."""

    _fields_ = [
        ("transition", ctypes.c_void_p),
        ("emission_t", ctypes.c_void_p),
        ("belief", ctypes.c_void_p),
        ("predictive", ctypes.c_void_p),
        ("joint", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("started", ctypes.c_int64),
    ]


def _find_cc() -> str:
    """The compiler to use, honoring ``$REPRO_KERNEL_CC``."""
    override = os.environ.get(CC_ENV)
    if override:
        resolved = shutil.which(override)
        if resolved is None:
            raise KernelBackendError(
                f"{CC_ENV}={override!r} is not an executable compiler"
            )
        return resolved
    for candidate in ("cc", "gcc", "clang"):
        resolved = shutil.which(candidate)
        if resolved is not None:
            return resolved
    raise KernelBackendError("no C compiler found (tried cc, gcc, clang)")


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else "shared"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _build_library(cc: str, source: bytes) -> Path:
    """Compile (or reuse) the shared library; returns its path.

    The output name is content-addressed over source + compiler + ABI,
    so edits and toolchain switches rebuild while repeat runs reuse.
    The compile lands in a temp file first and is published with an
    atomic rename — concurrent builders race harmlessly to the same
    final bytes.
    """
    digest = hashlib.sha256(
        source + cc.encode() + str(ABI_VERSION).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"_forward_kernels-{digest}.so"
    if lib_path.exists():
        return lib_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise KernelBackendError(f"cannot create kernel cache {cache}: {exc}")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        # -march=native buys the vectorized specializations their speed;
        # retry without it for compilers/targets that reject the flag.
        for flags in (_BASE_FLAGS, tuple(f for f in _BASE_FLAGS if f != "-march=native")):
            proc = subprocess.run(
                [cc, *flags, "-o", tmp, str(_SOURCE), "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode == 0:
                os.replace(tmp, lib_path)
                return lib_path
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
        raise KernelBackendError(
            "kernel compile failed: " + (" | ".join(tail) or "no compiler output")
        )
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_backend() -> "CompiledBackend":
    """Build/load the shared library and wrap it; raises on any failure."""
    cc = _find_cc()
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise KernelBackendError(f"kernel source unreadable: {exc}")
    lib_path = _build_library(cc, source)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise KernelBackendError(f"kernel library load failed: {exc}")
    try:
        abi = lib.repro_abi_version
    except AttributeError:
        raise KernelBackendError("kernel library is missing repro_abi_version")
    abi.restype = ctypes.c_int64
    abi.argtypes = []
    built = int(abi())
    if built != ABI_VERSION:
        raise KernelBackendError(
            f"kernel library ABI {built} != expected {ABI_VERSION}"
        )
    return CompiledBackend(lib)


def _shim_model(rng: np.random.Generator, n: int, m: int) -> SimpleNamespace:
    """A duck-typed model with valid stochastic matrices for probing."""
    transition = rng.random((n, n)) + 0.05
    transition /= transition.sum(axis=1, keepdims=True)
    emission = rng.random((n, m)) + 0.05
    emission /= emission.sum(axis=1, keepdims=True)
    initial = rng.random(n) + 0.05
    initial /= initial.sum()
    return SimpleNamespace(
        transition=transition,
        emission=emission,
        initial=initial,
        n_states=n,
        n_symbols=m,
    )


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class CompiledBackend(KernelBackend):
    """ctypes wrapper over ``_forward_kernels.c`` with per-shape probes.

    ``_verified`` caches one verdict per (kernel, n_states): ``True``
    dispatches to C, ``False`` declines every call at that shape (the
    numpy path runs instead).  Probes run once, at first use, under the
    GIL-serialized ctypes layer; a racing duplicate probe computes the
    same deterministic verdict.
    """

    name = "compiled"
    dispatches = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self._score = lib.repro_score_scales
        self._score.restype = None
        self._score.argtypes = [
            ctypes.c_void_p,  # obs (batch, length) int64
            ctypes.c_int64,  # batch
            ctypes.c_int64,  # length
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # transition (n, n)
            ctypes.c_void_p,  # emission_t (m, n)
            ctypes.c_void_p,  # initial (n,)
            ctypes.c_void_p,  # scales out (batch, length)
            ctypes.c_void_p,  # work (2 * RBLK * n)
        ]
        self._step = lib.repro_stream_step
        self._step.restype = ctypes.c_double
        self._step.argtypes = [ctypes.POINTER(ReproStreamCtx), ctypes.c_int64]
        self._verified: dict[tuple[str, int], bool] = {}

    # -- shared core --------------------------------------------------

    def _scores(self, model, obs: np.ndarray) -> np.ndarray:
        """Per-row scores via the C scales kernel + numpy log/sum.

        Reduction-order note: the numpy path logs a (tile, T) panel and
        row-sums ``scales[:rows]`` per tile; both ``np.log``
        (elementwise) and the per-row pairwise sum over T depend only on
        each row's own bits, so logging and summing the full (B, T)
        panel at once is bit-identical — and the probes verify it.
        """
        batch, length = obs.shape
        obs64 = np.ascontiguousarray(obs, dtype=np.int64)
        transition = np.ascontiguousarray(model.transition)
        emission_t = np.ascontiguousarray(model.emission.T)
        initial = np.ascontiguousarray(model.initial)
        scales = np.empty((batch, length))
        work = np.empty(2 * RBLK * model.n_states)
        self._score(
            obs64.ctypes.data,
            batch,
            length,
            model.n_states,
            transition.ctypes.data,
            emission_t.ctypes.data,
            initial.ctypes.data,
            scales.ctypes.data,
            work.ctypes.data,
        )
        np.log(scales, out=scales)
        return np.sum(scales, axis=1)

    # -- probes -------------------------------------------------------

    def _ensure(self, kind: str, n: int, m: int) -> bool:
        key = (kind, n)
        verdict = self._verified.get(key)
        if verdict is None:
            try:
                verdict = self._probe(kind, n, m)
            except Exception:  # pragma: no cover - defensive
                verdict = False
            self._verified[key] = verdict
            if verdict:
                telemetry.counter_add("hmm.backend.probe_pass")
            else:
                telemetry.counter_add("hmm.backend.probe_fail")
                _note_fallback(
                    f"compiled {kind} kernel failed its bit-identity probe "
                    f"at n_states={n}; numpy path retained for this shape"
                )
        return verdict

    def _probe(self, kind: str, n: int, m: int) -> bool:
        from .. import kernels

        # Deterministic across processes (no str hash): seed mixes the
        # shape with the kind's byte sum.
        rng = np.random.default_rng(0xB17_0DD5 ^ (n << 8) ^ sum(kind.encode()))
        if kind == "score":
            model = _shim_model(rng, n, m)
            for batch, length in ((1, 1), (5, 3), (23, 9), (65, 15)):
                obs = rng.integers(0, m, size=(batch, length))
                expected = kernels._score_sequences_numpy(model, obs)
                if not _bits_equal(expected, self._scores(model, obs)):
                    return False
            return True
        if kind == "fleet":
            for batches in ((1, 2, 3), (5, 8, 11)):
                models = [_shim_model(rng, n, m) for _ in batches]
                obs_list = [
                    rng.integers(0, m, size=(batch, 9)) for batch in batches
                ]
                expected = kernels._score_fleet_numpy(models, obs_list)
                got = [self._scores(mdl, obs) for mdl, obs in zip(models, obs_list)]
                if not all(_bits_equal(e, g) for e, g in zip(expected, got)):
                    return False
            return True
        if kind == "stream":
            model = _shim_model(rng, n, m)
            ref = kernels.StreamingState(model, window=7)
            mine = kernels.StreamingState(model, window=7)
            for step in range(96):
                if step == 48:
                    # Re-exercise the started=False first-event path.
                    kernels.streaming_reset(model, ref)
                    kernels.streaming_reset(model, mine)
                index = int(rng.integers(0, m))
                expected = kernels._streaming_step_numpy(model, ref, index)
                got = self._stream_step(model, mine, index)
                if expected != got or not _bits_equal(ref.belief, mine.belief):
                    return False
            return _bits_equal(ref.ring, mine.ring)
        raise KernelBackendError(f"unknown probe kind {kind!r}")

    # -- KernelBackend interface --------------------------------------

    def score_sequences(self, model, obs, tile):
        from ..kernels import SCORE_TILE

        batch, length = obs.shape
        if batch == 0 or length == 0 or tile != SCORE_TILE:
            return None
        if not self._ensure("score", model.n_states, model.n_symbols):
            return None
        return self._scores(model, obs)

    def score_fleet(self, models, obs_list):
        if not self._ensure("fleet", models[0].n_states, models[0].n_symbols):
            return None
        # Rows are independent in the C scorer, so "the fleet kernel" is
        # one scales pass per model — padding exists in the numpy path
        # only to pin BLAS operand shapes, which C does not need.  The
        # fleet probe pins equivalence with the padded contraction.
        return [self._scores(model, obs) for model, obs in zip(models, obs_list)]

    def streaming_step(self, model, state, index):
        # Probe only when unbound: a live ``backend_ctx`` was built by
        # ``_bind_stream`` *after* a passing probe (reset/rebind clear it),
        # so the per-event hot path skips the verdict-cache lookup.
        if state.backend_ctx is None and not self._ensure(
            "stream", model.n_states, model.n_symbols
        ):
            return None
        return self._stream_step(model, state, index)

    def _stream_step(self, model, state, index: int) -> float:
        cache = state.backend_ctx
        if (
            cache is None
            or cache[0] is not model
            or cache[1] is not state.emission_t
        ):
            cache = self._bind_stream(model, state)
        total = self._step(cache[2], index)
        state.started = True
        surprise = -float(_np_log(total))
        state.ring[state.pos] = surprise
        state.pos += 1
        if state.pos == state.window:
            state.pos = 0
        state.count += 1
        return surprise

    def _bind_stream(self, model, state):
        """Pack the stream's pointers into a C struct, cached on state.

        The cache is invalidated by identity: ``streaming_rebind`` always
        rebuilds ``state.emission_t`` (and may reallocate the belief
        buffers), ``streaming_reset`` clears ``backend_ctx`` outright,
        and a warm-swapped model object fails the ``cache[0]`` check.
        The transition copy is kept alive by the cache tuple.
        """
        transition = np.ascontiguousarray(model.transition)
        if not state.emission_t.flags.c_contiguous:  # pragma: no cover
            raise KernelBackendError("streaming emission transpose not contiguous")
        ctx = ReproStreamCtx(
            transition=transition.ctypes.data,
            emission_t=state.emission_t.ctypes.data,
            belief=state.belief.ctypes.data,
            predictive=state.predictive.ctypes.data,
            joint=state.joint.ctypes.data,
            n=model.n_states,
            started=1 if state.started else 0,
        )
        cache = (model, state.emission_t, ctypes.byref(ctx), ctx, transition)
        state.backend_ctx = cache
        return cache
