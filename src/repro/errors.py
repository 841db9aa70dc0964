"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramStructureError(ReproError):
    """A program, CFG, or call graph is structurally invalid.

    Examples: an edge referencing an unknown block, a function without an
    entry block, duplicate function names, or a call site naming a function
    that does not exist in the program.
    """


class AnalysisError(ReproError):
    """Static analysis could not be completed on an otherwise valid program."""


class ModelError(ReproError):
    """An HMM or detector was constructed or used with invalid parameters."""


class NotFittedError(ModelError):
    """A detector method requiring a trained model was called before ``fit``."""


class TraceError(ReproError):
    """A trace or segment is malformed (wrong length, unknown event kind...)."""


class EvaluationError(ReproError):
    """An experiment configuration or evaluation input is invalid."""


class KernelBackendError(ReproError):
    """A kernel backend was misnamed, or failed to build/load/verify.

    Raised for *selection* mistakes (unknown backend name) and by
    :mod:`repro.hmm.backends.compiled` internals when the toolchain,
    library, or bit-identity probe fails — the registry converts the
    latter into a warned fallback to the numpy backend, so callers only
    ever see this for unknown names.
    """


class ServiceError(ReproError):
    """The detection service was misconfigured or misused.

    Examples: submitting to an unregistered detector, reusing a session id
    across incompatible modes, or submitting after shutdown.  The two
    subclasses below say which of these a caller can act on: a missing
    target, or a service that cannot serve right now.
    """


class UnknownTargetError(ServiceError):
    """The named detector is not registered, or the named session is not open."""


class ServiceUnavailableError(ServiceError):
    """The service is closed, or the shard a request routes to is down."""


class ReproDeprecationWarning(DeprecationWarning):
    """Deprecation warning for retired repro entry points.

    A distinct subclass so the test suite (and CI) can turn *our* shims
    into hard errors — ``-W error::repro.errors.ReproDeprecationWarning``
    — without tripping on unrelated third-party deprecations.
    """
