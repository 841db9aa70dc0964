"""Pluggable kernel backends for the HMM hot paths.

:mod:`repro.hmm.kernels` owns the numpy implementations of the three hot
kernels — the tiled scales-only batch scorer, the fleet contraction, and
the incremental streaming step.  This package adds a *dispatch seam* in
front of them: a named registry of :class:`KernelBackend` objects, where
a backend may claim any subset of the kernels and every unclaimed (or
declined) call falls through to the numpy path.

Two backends ship in-tree:

* ``numpy`` — the default; claims nothing, every call takes the existing
  numpy path untouched.
* ``compiled`` — :mod:`repro.hmm.backends.compiled`; builds a small C
  library with the host toolchain at first use and dispatches through
  ``ctypes``.  Bit-identity with the numpy path is **proved, not
  assumed**: the backend probes each (kernel, n_states) combination
  against the numpy implementation at first use and silently declines
  shapes that do not reproduce numpy's bits.  A missing toolchain (or a
  failed build/probe) degrades to numpy with a one-time
  :class:`RuntimeWarning` and a ``hmm.backend.fallback`` counter — never
  an exception, never a changed score.

Selection surface (first match wins):

1. an explicit :func:`backend_scope` / :func:`use_backend` call (the
   service drain uses a scope under the hood);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the ``numpy`` default.

Unknown names raise :class:`~repro.errors.KernelBackendError` — a typo'd
backend should fail loudly at selection time, only *unavailable* (but
known) backends fall back.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator

from ... import telemetry
from ...errors import KernelBackendError

#: Environment variable consulted by :func:`resolve_backend` when no
#: explicit name is given (CLI ``--kernel-backend`` and
#: ``ServiceConfig.kernel_backend`` both take precedence by passing the
#: name explicitly).
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

__all__ = [
    "BACKEND_ENV",
    "KernelBackend",
    "NumpyBackend",
    "active_backend",
    "available_backends",
    "backend_scope",
    "register_backend",
    "resolve_backend",
    "use_backend",
]


class KernelBackend:
    """A (possibly partial) implementation of the three hot kernels.

    Each kernel method returns the computed result, or ``None`` to
    decline the call — the dispatch wrappers in
    :mod:`repro.hmm.kernels` then run the numpy path.  ``dispatches`` is
    a cheap pre-filter: the wrappers skip the method calls entirely when
    it is ``False``, so the default backend adds one attribute load to
    the hot path and nothing else.
    """

    name = "base"
    #: Whether the dispatch wrappers should consult this backend at all.
    dispatches = False

    def score_sequences(self, model, obs, tile):
        """Batch scorer; return a (B,) score array or ``None``."""
        return None

    def score_fleet(self, models, obs_list):
        """Fleet scorer; return a list of (B_d,) arrays or ``None``.

        Called with already-validated same-shape models and non-empty
        batches of one shared, non-zero window length.
        """
        return None

    def streaming_step(self, model, state, index):
        """One streaming event; return the surprise float or ``None``.

        A non-``None`` return must leave ``state`` exactly as the numpy
        step would: belief updated, ring written, ``pos``/``count``
        advanced, ``started`` set.
        """
        return None


class NumpyBackend(KernelBackend):
    """The default backend: every call takes the existing numpy path."""

    name = "numpy"
    dispatches = False


_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_DEFAULT: KernelBackend | None = None
_LOCK = threading.Lock()
_LOCAL = threading.local()
_WARNED: set[str] = set()


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory runs at most once, lazily, on first resolution; it may
    raise :class:`~repro.errors.KernelBackendError` (or anything else)
    to signal the backend is unavailable on this host, in which case
    resolution falls back to numpy via :func:`_note_fallback`.
    """
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names (registration, not availability: a name
    being listed does not guarantee its factory will succeed here)."""
    return tuple(sorted(_REGISTRY))


def _note_fallback(reason: str) -> None:
    """Record a degraded-to-numpy event: one-time warning + counter."""
    telemetry.counter_add("hmm.backend.fallback")
    with _LOCK:
        if reason in _WARNED:
            return
        _WARNED.add(reason)
    warnings.warn(
        f"kernel backend falling back to numpy: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend name to a (cached) instance.

    ``None`` means "no explicit choice": the ``REPRO_KERNEL_BACKEND``
    environment variable is consulted, then the ``numpy`` default.
    Unknown names raise :class:`~repro.errors.KernelBackendError`;
    known-but-unavailable backends (factory raised) fall back to numpy
    with a one-time :class:`RuntimeWarning` and a
    ``hmm.backend.fallback`` counter.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or "numpy"
    if name not in _REGISTRY:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}; available: "
            + ", ".join(available_backends())
        )
    with _LOCK:
        instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    try:
        instance = _REGISTRY[name]()
    except Exception as exc:
        _note_fallback(f"backend {name!r} unavailable ({exc})")
        instance = resolve_backend("numpy")
    with _LOCK:
        # Benign race: concurrent resolutions build equivalent instances
        # and the first store wins.
        instance = _INSTANCES.setdefault(name, instance)
    return instance


def active_backend() -> KernelBackend:
    """The backend the dispatch wrappers should consult *right now*.

    Innermost :func:`backend_scope` on this thread, else the process
    default (set by :func:`use_backend`, else resolved lazily from the
    environment).
    """
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    global _DEFAULT
    default = _DEFAULT
    if default is None:
        default = _DEFAULT = resolve_backend()
    return default


def use_backend(name: str | None) -> KernelBackend:
    """Set the process-default backend; returns the resolved instance.

    ``None`` re-reads the environment (i.e. restores the implicit
    default).  Thread-local :func:`backend_scope` overrides still win.
    """
    global _DEFAULT
    backend = resolve_backend(name)
    _DEFAULT = backend
    return backend


@contextmanager
def backend_scope(name: str | None) -> Iterator[KernelBackend]:
    """Activate a backend for the current thread within a ``with`` block.

    This is how per-component selection composes: the service drain
    wraps its kernel calls (streaming sessions included) in a scope for
    its configured backend, without disturbing other threads or the
    process default.  Scopes nest; the innermost wins.
    """
    backend = resolve_backend(name)
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


def _reset_for_tests() -> None:
    """Drop cached instances, the default, scopes, and warn-once state."""
    global _DEFAULT
    with _LOCK:
        _INSTANCES.clear()
        _WARNED.clear()
    _DEFAULT = None
    _LOCAL.stack = []


def _make_compiled() -> KernelBackend:
    from . import compiled

    return compiled.load_backend()


register_backend("numpy", NumpyBackend)
register_backend("compiled", _make_compiled)
