"""Fused, zero-allocation numpy kernels for the HMM hot paths.

This module is the lowest layer of :mod:`repro.hmm`: everything here takes
already-validated integer observation arrays and writes into preallocated
buffers.  :mod:`repro.hmm.forward` and :mod:`repro.hmm.baumwelch` build the
public API on top of it.

Three things live here:

* :class:`EMWorkspace` + :func:`em_forward`/:func:`em_update` — the
  Baum-Welch E-step split into a forward phase and an update phase.  Every
  per-timestep buffer (the forward variables, per-step normalizers, the
  emission-probability gathers, the ξ and emission accumulators) is
  allocated once per :func:`~repro.hmm.baumwelch.train` call and reused
  across iterations via ``out=``-style writes.  The forward phase returns
  the weighted mean training log-likelihood as a by-product, so the train
  loop never needs a separate monitoring pass over the training set.
* :func:`score_sequences` — a tiled, scales-only forward pass for bulk
  scoring.  It keeps only a (tile, N) working set instead of materializing
  the full (B, T, N) forward variables, and is **batch-invariant**: full
  tiles run at (tile, N) and a partial final tile is padded only up to
  :func:`gemm_height` — a GEMM-unit multiple measured per-row
  bit-identical to the full tile — so a row's score is a pure function of
  the row's content (scoring any subset of a batch is bit-identical to
  scoring the full batch) and a small call pays for the rows it scores.
* :func:`log_likelihood_unique` — duplicate-aware scoring: hash rows,
  score each distinct window once, scatter the results back through the
  inverse index.  Sliding windows over repetitive call streams (the eval
  runners' exploit windows, the service's drain batches) are often mostly
  duplicates, so this multiplies bulk-scoring throughput on top of the
  tiled kernel.  Telemetry stays multiplicity-weighted: the scattered
  (full-batch) scores land in the ``hmm.forward.loglik`` histogram, not
  just the unique ones.
* :class:`StreamingState` + :func:`streaming_step` — the incremental
  O(N²)-per-event forward filter for live feeds: the normalized forward
  (belief) state is carried across events in preallocated buffers and a
  ring buffer keeps the last ``window`` per-step log scale factors, so a
  sliding W-call surprisal costs one belief update per event instead of
  re-running the W-step recursion.  Bit-identical to replaying the
  unfused filter (the verbatim legacy oracle in ``tests/oracles.py``) —
  pinned by ``tests/test_streaming_incremental.py`` and the exit-1 gate
  in ``benchmarks/bench_streaming_forward.py``.
* :func:`score_fleet` / :func:`log_likelihood_fleet` — cross-detector
  batched scoring for the service drain: same-shape (N, M) detectors'
  transition/emission tensors are stacked into (D, ·, ·) operands and the
  whole fleet's windows walk the recursion through batched 3-D matmuls —
  a handful of kernel launches per drain instead of one GEMM sequence per
  detector, bit-identical per row to :func:`score_sequences`.
* :func:`log_likelihood_grouped` — the one entry for ragged,
  many-model batches (the service drain): rows are grouped by
  ``(n_states, n_symbols, length)``; a group holding one model's rows
  scores through :func:`log_likelihood_unique`, a group spanning several
  models through :func:`log_likelihood_fleet`.

Bit-identity notes (the contracts ``tests/test_kernels.py`` pins):

* ξ is accumulated with one ordered GEMM per timestep over precomputed
  contiguous operands.  A single ``einsum('bti,btj->ij')`` over (B, T-1, N)
  operands was measured *slower* than the GEMM loop on OpenBLAS (einsum
  does not dispatch to BLAS for this contraction) and changes the
  floating-point reduction order; the loop is both faster and reproducible
  against a per-timestep reference.
* Emission statistics are accumulated per timestep with per-state
  ``np.bincount`` — bit-identical to ``np.add.at`` (both add in index
  order) and several times faster.  ``np.add.reduceat`` is *not*
  bit-identical (pairwise summation) and is not used.
* Per-step normalizers are stored batch-major, shape (B, T), so the final
  ``np.log(scales).sum(axis=1)`` reduces in exactly the order the
  unfused implementation used.
* BLAS GEMM results are only reproducible per-row at a *fixed* operand
  shape: a single row dispatches to gemv, odd row counts trigger edge
  micro-kernels for some N (observed at N mod 8 in {1, 2, 3}, N ≥ 17),
  and different size regimes pick different blockings — all with
  last-bit differences.  The scoring kernels therefore choose every GEMM
  height through one rule, :func:`gemm_height`; the EM kernels are
  compared against a reference with identical operand shapes and
  layouts.
* Per-row GEMM results are *mostly* stable across heights that are a
  multiple of :data:`FLEET_GEMM_UNIT` (= 8): on OpenBLAS,
  ``(X @ A)[:h]`` equals ``X[:h] @ A`` at every such h for N in 2..48
  and for N mod 8 in {5, 6, 7, 0} up to at least 99 (17, 34, 79 and 80
  included), but not for N mod 8 in {1, 2, 3, 4} from N = 49 up while
  ``h·N² <= 10**6``, where OpenBLAS runs its small-matrix kernel.  A
  batched 3-D ``np.matmul`` is bit-identical per (H, N) slice to the
  2-D call.  :func:`gemm_height` therefore pads a partial block to the
  next multiple of 8 only when a probe at that (N, height) matches the
  full tile, and to :data:`SCORE_TILE` otherwise; both
  :func:`score_sequences`' tail tile and :func:`score_fleet`'s slabs use
  it.  ``tests/test_kernels.py`` and the bench's exit-1 gates re-verify
  the result, so a BLAS that breaks it fails loudly instead of scoring
  differently.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import ModelError
from . import backends
from .model import HiddenMarkovModel

#: Floor applied to per-step normalizers so a zero-probability observation
#: yields a very negative — but finite — log-likelihood.
SCALE_FLOOR = 1e-300

#: Telemetry bucket bounds for raw per-sequence ``log P(O | λ)`` (a normal
#: 15-call segment typically lands in the -40..0 range; anomalies below).
LOGLIK_BUCKETS: tuple[float, ...] = (
    -500.0, -200.0, -100.0, -75.0, -50.0, -40.0, -30.0, -25.0,
    -20.0, -15.0, -10.0, -7.5, -5.0, -2.5, -1.0, 0.0,
)

#: Rows per tile in :func:`score_sequences`.  Chosen so one tile's working
#: set (a few (tile, N) float panels) stays cache-resident; per-row results
#: are independent of the tile size.
SCORE_TILE = 512

#: Fixed seed for the row-hash multipliers in :func:`log_likelihood_unique`
#: — deterministic across processes, so serial and parallel runs dedup (and
#: therefore score) identically.
_DEDUP_SEED = 0x5EED_CA11

#: Partial blocks are padded up to a multiple of this many rows: below it
#: BLAS dispatches to gemv and odd-row edge kernels whose per-row results
#: depend on the height — see the module docstring and :func:`gemm_height`.
FLEET_GEMM_UNIT = 8

#: Fixed seed for the operands :func:`gemm_height` probes with.
_HEIGHT_PROBE_SEED = 0x7A11_0008

#: ``(n_states, height, tile) -> bool``: whether a ``height``-row GEMM is
#: per-row bit-identical to a ``tile``-row one (see :func:`gemm_height`).
_HEIGHT_VERDICTS: dict[tuple[int, int, int], bool] = {}

__all__ = [
    "FLEET_GEMM_UNIT",
    "LOGLIK_BUCKETS",
    "SCALE_FLOOR",
    "SCORE_TILE",
    "EMWorkspace",
    "StreamingState",
    "check_obs",
    "em_forward",
    "em_step",
    "em_update",
    "gemm_height",
    "log_likelihood_fleet",
    "log_likelihood_grouped",
    "log_likelihood_unique",
    "score_fleet",
    "score_sequences",
    "streaming_rebind",
    "streaming_recent",
    "streaming_reset",
    "streaming_step",
]


def check_obs(model: HiddenMarkovModel, obs: np.ndarray) -> np.ndarray:
    """Validate and normalize an observation array to (B, T) int form."""
    obs = np.asarray(obs)
    if obs.ndim == 1:
        obs = obs[None, :]
    if obs.ndim != 2:
        raise ModelError(f"observations must be (B, T), got shape {obs.shape}")
    if obs.size and (obs.min() < 0 or obs.max() >= model.n_symbols):
        raise ModelError("observation index out of alphabet range")
    return obs


# ---------------------------------------------------------------------------
# Bulk scoring
# ---------------------------------------------------------------------------


def score_sequences(
    model: HiddenMarkovModel, obs: np.ndarray, tile: int = SCORE_TILE
) -> np.ndarray:
    """Per-sequence ``log P(O | λ)`` via a tiled, scales-only forward pass.

    Every row's score is a pure function of that row's content: the
    recursion runs in tiles of ``tile`` rows, and a partial final tile is
    padded with throwaway rows up to :func:`gemm_height` — the next
    multiple of :data:`FLEET_GEMM_UNIT` where that height is per-row
    bit-identical to the full tile on the running BLAS, ``tile`` where it
    is not.  BLAS GEMM results are only reproducible per-row at matching
    operand shapes (a gemv-dispatched single row, the odd-row edge
    kernels some N trigger, or a small-matrix kernel accumulate in a
    different order), so that rule is what makes scoring
    *batch-invariant*: scoring a subset of rows is bit-identical to
    scoring them inside any larger batch, while a one-window call scores
    8 rows instead of 512 wherever the probe passes.
    :func:`log_likelihood_unique` relies on exactly this property.

    It never materializes the (B, T, N) forward variables — each tile
    walks the recursion with a (tile, N) working set written in place.

    Dispatch seam: if a non-default kernel backend is active (see
    :mod:`repro.hmm.backends`) and accepts the call, its — probed
    bit-identical — result is returned; otherwise the numpy path runs.

    ``obs`` must already be validated (see :func:`check_obs`).
    """
    backend = backends.active_backend()
    if backend.dispatches:
        out = backend.score_sequences(model, obs, tile)
        if out is not None:
            return out
    return _score_sequences_numpy(model, obs, tile)


def _score_sequences_numpy(
    model: HiddenMarkovModel, obs: np.ndarray, tile: int = SCORE_TILE
) -> np.ndarray:
    """The numpy batch scorer — also the compiled backend's oracle."""
    batch, length = obs.shape
    out = np.empty(batch)
    if batch == 0 or length == 0:
        out[:] = 0.0
        return out
    emission_t = np.ascontiguousarray(model.emission.T)  # (M, N)
    initial = model.initial[None, :]
    transition = model.transition
    n = model.n_states
    tile = max(int(tile), 1)
    # Sized for the tallest block (the first); a partial final block
    # works in the leading rows of the same buffers.
    height = gemm_height(min(batch, tile), n, tile)
    alpha_buf = np.empty((height, n))
    product_buf = np.empty((height, n))
    gather_buf = np.empty((height, n))
    scales_buf = np.empty((height, length))
    for start in range(0, batch, tile):
        stop = min(start + tile, batch)
        rows = stop - start
        height = gemm_height(rows, n, tile)
        block = obs[start:stop]
        if height != rows:
            # Pad with symbol-0 rows up to the GEMM height; the padding's
            # scores are computed and discarded.
            block = np.zeros((height, length), dtype=obs.dtype)
            block[:rows] = obs[start:stop]
        alpha = alpha_buf[:height]
        product = product_buf[:height]
        gather = gather_buf[:height]
        scales = scales_buf[:height]
        np.take(emission_t, block[:, 0], axis=0, out=gather)
        np.multiply(initial, gather, out=alpha)
        norm = scales[:, 0]
        np.sum(alpha, axis=1, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        alpha /= norm[:, None]
        for t in range(1, length):
            np.matmul(alpha, transition, out=product)
            np.take(emission_t, block[:, t], axis=0, out=gather)
            np.multiply(product, gather, out=alpha)
            norm = scales[:, t]
            np.sum(alpha, axis=1, out=norm)
            np.maximum(norm, SCALE_FLOOR, out=norm)
            alpha /= norm[:, None]
        np.log(scales, out=scales)
        np.sum(scales[:rows], axis=1, out=out[start:stop])
    return out


def gemm_height(rows: int, n_states: int, tile: int = SCORE_TILE) -> int:
    """The GEMM height a block of ``rows`` (1..``tile``) rows is scored at.

    ``rows`` rounded up to a multiple of :data:`FLEET_GEMM_UNIT` when a
    (height, N) @ (N, N) product is per-row bit-identical to the
    (``tile``, N) one on the running BLAS, ``tile`` otherwise.  Both
    scoring kernels pad their partial blocks to this height, so a small
    call pays for the rows it scores while every row's score stays a pure
    function of its content (see the module docstring).

    The verdict is measured once per ``(n_states, height, tile)`` by
    multiplying fixed random operands at both heights: the accumulation
    order a GEMM uses depends on the operand shapes alone, so random data
    exposes any difference.  The rounding alone is not enough —
    OpenBLAS, for one, runs a separate small-matrix kernel while
    ``M·N·K <= 10**6`` whose per-row results differ from the blocked
    kernel's for some N (e.g. N = 73 below height 192).
    """
    height = -(-rows // FLEET_GEMM_UNIT) * FLEET_GEMM_UNIT
    if height >= tile:
        return tile
    key = (n_states, height, tile)
    verdict = _HEIGHT_VERDICTS.get(key)
    if verdict is None:
        # A benign race: concurrent probes compute the same verdict.
        rng = np.random.default_rng(_HEIGHT_PROBE_SEED)
        operand = rng.random((tile, n_states))
        transition = rng.random((n_states, n_states))
        verdict = np.array_equal(
            operand[:height] @ transition, (operand @ transition)[:height]
        )
        _HEIGHT_VERDICTS[key] = verdict
    return height if verdict else tile


_MULTIPLIER_CACHE: dict[int, np.ndarray] = {}


def _hash_multipliers(length: int) -> np.ndarray:
    """Fixed odd 64-bit row-hash multipliers for a given row length.

    Cached per length (a benign race: concurrent fills compute the same
    deterministic vector) so repeated dedup calls skip the RNG setup.
    """
    multipliers = _MULTIPLIER_CACHE.get(length)
    if multipliers is None:
        rng = np.random.default_rng(_DEDUP_SEED)
        multipliers = rng.integers(
            1, np.iinfo(np.int64).max, size=length, dtype=np.int64
        ) | np.int64(1)
        _MULTIPLIER_CACHE[length] = multipliers
    return multipliers


def _dedup_rows(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Find duplicate rows: ``(unique_rows, inverse)`` or ``None``.

    Rows are keyed by a 64-bit multiplicative hash (wraparound int64
    arithmetic with fixed odd multipliers — deterministic across
    processes), which costs one GEMV-shaped pass instead of
    ``np.unique(axis=0)``'s lexicographic sort over full rows.  The
    candidate grouping is then *verified* by materializing the
    representative rows; a hash collision (vanishingly unlikely) falls
    back to the exact structured ``np.unique``.  Returns ``None`` when
    deduplication cannot help (fewer than two rows, or all rows unique).
    """
    batch = obs.shape[0]
    if batch < 2:
        return None
    keys = (obs.astype(np.int64, copy=False) * _hash_multipliers(obs.shape[1])).sum(
        axis=1
    )
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == batch:
        return None
    unique_rows = obs[first]
    if not np.array_equal(unique_rows[inverse], obs):  # pragma: no cover
        unique_rows, inverse = np.unique(obs, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        if unique_rows.shape[0] == batch:
            return None
    return unique_rows, inverse


def _record_score_telemetry(
    loglik: np.ndarray, batch: int, n_unique: int
) -> None:
    """Duplicate-aware scoring telemetry for one scored batch.

    Shared by :func:`log_likelihood_unique` and (per fleet entry)
    :func:`log_likelihood_fleet`, so the fused cross-detector drain emits
    exactly the counters the per-detector path would have.
    """
    telemetry.counter_add("hmm.forward.calls")
    telemetry.counter_add("hmm.forward.sequences", batch)
    telemetry.observe_many(
        "hmm.forward.loglik", loglik.tolist(), boundaries=LOGLIK_BUCKETS
    )
    telemetry.counter_add("hmm.score.dedup.calls")
    telemetry.counter_add("hmm.score.dedup.sequences", batch)
    telemetry.counter_add("hmm.score.dedup.unique", int(n_unique))
    if batch:
        telemetry.gauge_set("hmm.score.unique_ratio", n_unique / batch)


def log_likelihood_unique(
    model: HiddenMarkovModel, obs: np.ndarray
) -> np.ndarray:
    """Duplicate-aware ``log P(O | λ)``, bit-identical to plain scoring.

    Hashes rows, scores each distinct window once with
    :func:`score_sequences`, and scatters the result back through the
    inverse index.  Because the scoring kernel is batch-invariant (fixed
    GEMM height; a row's score depends only on the row's content), the
    scattered scores are bit-identical to scoring the full batch —
    duplicates just stop paying for the recursion more than once.

    Telemetry stays multiplicity-weighted: the *scattered* per-sequence
    scores land in the ``hmm.forward.loglik`` histogram and the
    ``hmm.forward.sequences`` counter, exactly as if every row had been
    scored; ``hmm.score.unique_ratio`` reports how much of the batch was
    distinct (1.0 = no duplicates).
    """
    obs = check_obs(model, obs)
    dedup = _dedup_rows(obs)
    if dedup is None:
        loglik = score_sequences(model, obs)
        n_unique = obs.shape[0]
    else:
        unique_rows, inverse = dedup
        loglik = score_sequences(model, unique_rows)[inverse]
        n_unique = unique_rows.shape[0]
    if telemetry.enabled():
        _record_score_telemetry(loglik, int(obs.shape[0]), n_unique)
    return loglik


# ---------------------------------------------------------------------------
# Cross-detector (fleet) batched scoring
# ---------------------------------------------------------------------------


def score_fleet(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Per-sequence ``log P(O | λ_d)`` for many same-shape models at once.

    The service's fused drain path: instead of walking the scaled forward
    recursion once per detector (D separate (tile, N) GEMM sequences), the
    fleet's transition/emission tensors are stacked into (D, N, N) /
    (D, M, N) operands and every timestep is **one** batched 3-D
    ``np.matmul`` over a (D, H, N) working set — a handful of kernel
    launches per drain, regardless of fleet size.

    Bit-identity with :func:`score_sequences` (and therefore with the
    per-detector drain) rests on the height rule in the module docstring:
    the rows are walked in slabs of up to :data:`SCORE_TILE` rows per
    model, each model's slab sits in a (H, N) slice whose height H is
    :func:`gemm_height` of the slab's tallest slice, and per-slice
    batched-matmul results equal the 2-D calls the tiled kernel issues.
    ``tests/test_kernels.py`` and the exit-1 gate in
    ``benchmarks/bench_streaming_forward.py`` enforce this at runtime.

    Args:
        models: fleet sharing one ``(n_states, n_symbols)`` shape.
        obs_list: one validated (B_d, T) int array per model — one shared
            length T, per-model batch sizes.

    Returns:
        One (B_d,) score array per model, aligned with ``models``.
    """
    if not models or len(models) != len(obs_list):
        raise ModelError("score_fleet needs one observation batch per model")
    n, m = models[0].n_states, models[0].n_symbols
    length = obs_list[0].shape[1]
    for model, obs in zip(models, obs_list):
        if model.n_states != n or model.n_symbols != m:
            raise ModelError(
                "score_fleet requires same-shape models; mixed-shape fleets "
                "must be scored per shape group"
            )
        if obs.ndim != 2 or obs.shape[1] != length:
            raise ModelError("score_fleet requires one shared window length")
        if obs.shape[0] == 0:
            raise ModelError("score_fleet batches must be non-empty")
    if length == 0:
        return [np.zeros(obs.shape[0]) for obs in obs_list]
    backend = backends.active_backend()
    if backend.dispatches:
        out = backend.score_fleet(models, obs_list)
        if out is not None:
            return out
    return _score_fleet_numpy(models, obs_list)


def _score_fleet_numpy(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """The numpy fleet contraction — also the compiled backend's oracle.

    Inputs must already satisfy :func:`score_fleet`'s validation (same
    shape, shared non-zero length, non-empty batches).
    """
    n = models[0].n_states
    length = obs_list[0].shape[1]
    fleet = len(models)
    batches = [obs.shape[0] for obs in obs_list]
    transition = np.stack([model.transition for model in models])
    emission_t = np.stack(
        [np.ascontiguousarray(model.emission.T) for model in models]
    )  # (D, M, N)
    initial = np.stack([model.initial for model in models])[:, None, :]
    didx = np.arange(fleet)[:, None]
    out = [np.empty(rows) for rows in batches]
    # Slabs of up to SCORE_TILE rows per model, like score_sequences'
    # tiles; a slab's height is its tallest slice's gemm_height.
    for start in range(0, max(batches), SCORE_TILE):
        counts = [min(max(rows - start, 0), SCORE_TILE) for rows in batches]
        height = gemm_height(max(counts), n)
        # Padding rows are symbol 0, exactly like score_sequences' partial
        # tiles: their scores are computed and discarded.
        block = np.zeros((fleet, height, length), dtype=np.int64)
        for d, (obs, count) in enumerate(zip(obs_list, counts)):
            block[d, :count] = obs[start : start + count]
        alpha = np.empty((fleet, height, n))
        product = np.empty((fleet, height, n))
        scales = np.empty((fleet, height, length))
        np.multiply(initial, emission_t[didx, block[:, :, 0]], out=alpha)
        norm = scales[:, :, 0]
        np.sum(alpha, axis=2, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        alpha /= norm[:, :, None]
        for t in range(1, length):
            np.matmul(alpha, transition, out=product)
            np.multiply(product, emission_t[didx, block[:, :, t]], out=alpha)
            norm = scales[:, :, t]
            np.sum(alpha, axis=2, out=norm)
            np.maximum(norm, SCALE_FLOOR, out=norm)
            alpha /= norm[:, :, None]
        np.log(scales, out=scales)
        for d, count in enumerate(counts):
            np.sum(scales[d, :count], axis=1, out=out[d][start : start + count])
    return out


def log_likelihood_fleet(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Duplicate-aware fleet scoring (the multi-model groups of
    :func:`log_likelihood_grouped`).

    Per model: validate, hash-dedup the batch (:func:`_dedup_rows`), then
    score every model's *distinct* rows in one :func:`score_fleet`
    contraction and scatter back through the inverse indices.  Each
    model's scattered scores — and its telemetry — are bit-identical to
    what a :func:`log_likelihood_unique` call per model would produce;
    only the kernel-launch count changes.
    """
    if not models or len(models) != len(obs_list):
        raise ModelError(
            "log_likelihood_fleet needs one observation batch per model"
        )
    uniques: list[np.ndarray] = []
    inverses: list[np.ndarray | None] = []
    checked: list[np.ndarray] = []
    for model, obs in zip(models, obs_list):
        obs = check_obs(model, obs)
        checked.append(obs)
        dedup = _dedup_rows(obs)
        if dedup is None:
            uniques.append(obs)
            inverses.append(None)
        else:
            unique_rows, inverse = dedup
            uniques.append(unique_rows)
            inverses.append(inverse)
    scored = score_fleet(models, uniques)
    out: list[np.ndarray] = []
    for obs, unique_scores, inverse in zip(checked, scored, inverses):
        loglik = unique_scores if inverse is None else unique_scores[inverse]
        if telemetry.enabled():
            _record_score_telemetry(
                loglik, int(obs.shape[0]), int(unique_scores.shape[0])
            )
        out.append(loglik)
    return out


def log_likelihood_grouped(
    models: "list[HiddenMarkovModel]", batches: "list[list[np.ndarray]]"
) -> "list[np.ndarray]":
    """Per-row ``log P(O | λ_d)`` for one ragged batch of rows per model.

    Rows of any length and models of any shape mix freely: every row is
    grouped by ``(n_states, n_symbols, length)`` across all models.  A
    group holding a single model's rows scores with one
    :func:`log_likelihood_unique` call; a group spanning several models
    scores with one :func:`log_likelihood_fleet` contraction.  So a call
    costs one pass per group, not per row or per model, and — because
    every kernel is batch-invariant — each score is bit-identical to
    :func:`log_likelihood_unique` run per model and per length.

    Args:
        models: the models, in any mix of shapes.
        batches: one list of encoded rows (1-D int arrays or lists, each
            of length >= 1) per model; a list may be empty.

    Returns:
        One ``(len(rows),)`` score array per model, aligned with
        ``models`` and with each batch's row order.
    """
    if len(models) != len(batches):
        raise ModelError(
            "log_likelihood_grouped needs one row batch per model"
        )
    out = [np.empty(len(rows)) for rows in batches]
    # (n_states, n_symbols, length) -> [(model index, rows, positions)]
    groups: dict[tuple[int, int, int], list[tuple[int, np.ndarray, list]]] = {}
    for index, (model, rows) in enumerate(zip(models, batches)):
        rows = [np.asarray(row) for row in rows]
        by_length: dict[int, list[int]] = {}
        for position, row in enumerate(rows):
            if row.ndim != 1 or row.shape[0] == 0:
                raise ModelError("each row must be 1-D and non-empty")
            by_length.setdefault(row.shape[0], []).append(position)
        for length, positions in by_length.items():
            obs = np.stack([rows[position] for position in positions])
            key = (model.n_states, model.n_symbols, length)
            groups.setdefault(key, []).append((index, obs, positions))
    for entries in groups.values():
        if len(entries) == 1:
            index, obs, positions = entries[0]
            out[index][positions] = log_likelihood_unique(models[index], obs)
            continue
        scored = log_likelihood_fleet(
            [models[index] for index, _, _ in entries],
            [obs for _, obs, _ in entries],
        )
        for (index, _, positions), loglik in zip(entries, scored):
            out[index][positions] = loglik
    return out


# ---------------------------------------------------------------------------
# Incremental streaming forward
# ---------------------------------------------------------------------------


class StreamingState:
    """Carried state for the incremental O(N²)-per-event forward filter.

    Owns everything the per-event update touches, preallocated once:

    * ``belief`` — the normalized forward (filtering) distribution
      ``P[state | history]``;
    * ``ring`` — the last ``window`` per-step **surprisals**
      (``-log scale_t``, the negated log scale factors of the scaled
      forward recursion) in a ring buffer; ``pos`` is the next write slot
      and ``count`` the events since the last reset;
    * contiguous scratch (``predictive``/``joint``/``ordered``) and a
      row-major emission transpose, so :func:`streaming_step` allocates
      nothing.

    The state belongs to exactly one model at a time: after a warm-swap,
    :func:`streaming_rebind` must run before the next step — it restarts
    the belief from the new model's initial distribution (the old
    posterior lives over the old model's renumbered/resized hidden
    states) while the surprisal ring survives for windowed continuity.
    """

    __slots__ = (
        "window",
        "belief",
        "started",
        "ring",
        "count",
        "pos",
        "emission_t",
        "predictive",
        "joint",
        "ordered",
        "backend_ctx",
    )

    def __init__(self, model: HiddenMarkovModel, window: int) -> None:
        if window <= 0:
            raise ModelError("window must be positive")
        n = model.n_states
        self.window = int(window)
        self.belief = model.initial.copy()
        self.started = False
        self.ring = np.zeros(self.window)
        self.count = 0
        self.pos = 0
        self.emission_t = np.ascontiguousarray(model.emission.T)
        self.predictive = np.empty(n)
        self.joint = np.empty(n)
        self.ordered = np.empty(self.window)
        #: Opaque per-backend cache (e.g. the compiled backend's pointer
        #: pack); invalidated by reset/rebind and on model/buffer change.
        self.backend_ctx = None


def streaming_step(
    model: HiddenMarkovModel, state: StreamingState, index: int
) -> float:
    """Consume one encoded symbol; returns its surprise.

    One belief update — a (N,)@(N, N) product, an elementwise emission
    gather/multiply, one normalization — written into ``state``'s
    preallocated buffers.  Operation order matches the unfused legacy
    filter exactly (``@`` *is* ``np.matmul``; the emission row is the
    same values as the strided column slice), so the returned surprisals
    and the carried belief are bit-identical to it.

    Dispatch seam: an active non-default backend (see
    :mod:`repro.hmm.backends`) may serve the step — with identical state
    bookkeeping and probed bit-identical results — before the numpy
    path runs.
    """
    backend = backends.active_backend()
    if backend.dispatches:
        out = backend.streaming_step(model, state, index)
        if out is not None:
            return out
    return _streaming_step_numpy(model, state, index)


def _streaming_step_numpy(
    model: HiddenMarkovModel, state: StreamingState, index: int
) -> float:
    """The numpy streaming step — also the compiled backend's oracle."""
    if state.started:
        np.matmul(state.belief, model.transition, out=state.predictive)
        predictive = state.predictive
    else:
        predictive = state.belief
        state.started = True
    np.multiply(predictive, state.emission_t[index], out=state.joint)
    total = float(state.joint.sum())
    total = max(total, SCALE_FLOOR)
    np.divide(state.joint, total, out=state.belief)
    surprise = -float(np.log(total))
    state.ring[state.pos] = surprise
    state.pos += 1
    if state.pos == state.window:
        state.pos = 0
    state.count += 1
    return surprise


def streaming_recent(state: StreamingState) -> np.ndarray:
    """The last ``min(count, window)`` surprisals, oldest first.

    Stream order matters for bit-identity: ``np.mean`` reduces pairwise in
    element order, and the legacy filter's deque holds the surprisals in
    arrival order.  Before the ring wraps this is a contiguous prefix
    view; after wraparound the two ring halves are copied (oldest half
    first) into the preallocated ``ordered`` buffer — O(window) scalar
    copies, no allocation.
    """
    if state.count < state.window:
        return state.ring[: state.count]
    if state.pos == 0:
        return state.ring
    split = state.window - state.pos
    state.ordered[:split] = state.ring[state.pos :]
    state.ordered[split:] = state.ring[: state.pos]
    return state.ordered


def streaming_reset(model: HiddenMarkovModel, state: StreamingState) -> None:
    """Restart the filter in place (process restart / trace gap)."""
    np.copyto(state.belief, model.initial)
    state.started = False
    state.count = 0
    state.pos = 0
    state.backend_ctx = None


def streaming_rebind(model: HiddenMarkovModel, state: StreamingState) -> None:
    """Invalidate the carried forward state for a warm-swapped model.

    The belief restarts from the new model's initial distribution and the
    emission transpose / scratch buffers are rebuilt (reallocated only if
    the state count changed); the surprisal ring, ``count``, and ``pos``
    are deliberately kept so the windowed score stays continuous across
    the swap.
    """
    n = model.n_states
    if state.belief.shape[0] != n:
        state.belief = np.empty(n)
        state.predictive = np.empty(n)
        state.joint = np.empty(n)
    np.copyto(state.belief, model.initial)
    state.started = False
    state.emission_t = np.ascontiguousarray(model.emission.T)
    state.backend_ctx = None


# ---------------------------------------------------------------------------
# Baum-Welch E-step
# ---------------------------------------------------------------------------


class EMWorkspace:
    """Preallocated buffers for the fused Baum-Welch E-step.

    Lifecycle: :meth:`bind` once per :func:`~repro.hmm.baumwelch.train`
    call (allocation is skipped when the batch shape matches the previous
    binding), then alternate :func:`em_forward` / :func:`em_update` across
    iterations — every pass writes into the same buffers, so the EM loop
    allocates nothing per iteration beyond the (small) updated parameter
    matrices themselves.

    A workspace holds statistics for exactly one model at a time:
    :func:`em_update` refuses to run unless :func:`em_forward` was called
    for the same model since the last update, which is what makes sharing
    one workspace across many ``train()`` calls safe.
    """

    def __init__(self) -> None:
        self._shape_key: tuple[int, int, int, int] | None = None
        self._pending: HiddenMarkovModel | None = None
        self._passes_served = 0

    def bind(
        self,
        model: HiddenMarkovModel,
        obs: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Attach a training batch; (re)allocate buffers only on shape change."""
        batch, length = obs.shape
        n, m = model.n_states, model.n_symbols
        key = (batch, length, n, m)
        if key != self._shape_key:
            self._shape_key = key
            self.emit_obs = np.empty((length, batch, n))
            self.alpha = np.empty((length, batch, n))
            self.scales = np.empty((batch, length))
            self.log_scales = np.empty((batch, length))
            self.row_loglik = np.empty(batch)
            self.product = np.empty((batch, n))
            self.weighted_alpha = np.empty((batch, n))
            self.right = np.empty((batch, n))
            self.ab = np.empty((batch, n))
            self.beta_a = np.empty((batch, n))
            self.beta_b = np.empty((batch, n))
            self.gamma_norm = np.empty(batch)
            self.coeff = np.empty(batch)
            self.contrib = np.empty((batch, n))
            self.xi = np.empty((n, n))
            self.xi_step = np.empty((n, n))
            self.emit_sum = np.empty((n, m))
        # Timestep-major observation copy: every per-t index column the
        # kernels touch becomes contiguous.
        self.obs_t = np.ascontiguousarray(obs.T)
        self.weights = np.asarray(weights, dtype=float)
        self.weights_col = self.weights[:, None]
        self._pending = None
        self._passes_served = 0


def em_forward(model: HiddenMarkovModel, workspace: EMWorkspace) -> float:
    """Forward phase of one EM iteration.

    Fills the workspace's timestep-major forward variables, per-step
    normalizers, and emission gathers for ``model``, and returns the
    weighted mean training log-likelihood of the bound batch under
    ``model`` — the convergence-monitor value, obtained for free instead
    of via a second forward pass.
    """
    ws = workspace
    if ws._shape_key is None:
        raise ModelError("EMWorkspace.bind() must be called before em_forward")
    length = ws.obs_t.shape[0]
    emission_t = np.ascontiguousarray(model.emission.T)  # (M, N)
    np.take(emission_t, ws.obs_t, axis=0, out=ws.emit_obs)
    current = ws.alpha[0]
    np.multiply(model.initial[None, :], ws.emit_obs[0], out=current)
    norm = ws.scales[:, 0]
    np.sum(current, axis=1, out=norm)
    np.maximum(norm, SCALE_FLOOR, out=norm)
    current /= norm[:, None]
    for t in range(1, length):
        current = ws.alpha[t]
        np.matmul(ws.alpha[t - 1], model.transition, out=current)
        np.multiply(current, ws.emit_obs[t], out=current)
        norm = ws.scales[:, t]
        np.sum(current, axis=1, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        current /= norm[:, None]
    np.log(ws.scales, out=ws.log_scales)
    np.sum(ws.log_scales, axis=1, out=ws.row_loglik)
    loglik = float(np.average(ws.row_loglik, weights=ws.weights))
    if ws._passes_served:
        telemetry.counter_add("hmm.em.workspace_reuses")
    ws._passes_served += 1
    ws._pending = model
    return loglik


def em_update(
    model: HiddenMarkovModel,
    workspace: EMWorkspace,
    config,
) -> HiddenMarkovModel:
    """Backward/accumulate/M phase of one EM iteration.

    Consumes the statistics :func:`em_forward` left in the workspace for
    ``model`` and returns the re-estimated model.  The backward recursion,
    ξ accumulation, and emission statistics are fused into a single
    reverse sweep over timesteps — no (B, T, N) backward or posterior
    array is ever materialized.
    """
    ws = workspace
    if ws._pending is not model:
        raise ModelError(
            "em_update requires em_forward() on the same model first "
            "(the workspace holds per-timestep statistics for exactly one "
            "forward phase at a time)"
        )
    length = ws.obs_t.shape[0]
    n, m = model.n_states, model.n_symbols
    transition = model.transition
    transition_t = np.ascontiguousarray(transition.T)
    ws.xi.fill(0.0)
    ws.emit_sum.fill(0.0)
    initial_raw: np.ndarray | None = None

    def accumulate(t: int, ab: np.ndarray) -> None:
        """Fold timestep ``t``'s posterior numerators (γ before
        normalization) into the emission statistics — and, at t=0, the
        initial-distribution numerator."""
        nonlocal initial_raw
        np.sum(ab, axis=1, out=ws.gamma_norm)
        np.maximum(ws.gamma_norm, SCALE_FLOOR, out=ws.gamma_norm)
        np.divide(ws.weights, ws.gamma_norm, out=ws.coeff)
        np.multiply(ab, ws.coeff[:, None], out=ws.contrib)
        observed = ws.obs_t[t]
        for i in range(n):
            ws.emit_sum[i] += np.bincount(
                observed, weights=ws.contrib[:, i], minlength=m
            )
        if t == 0:
            initial_raw = ws.contrib.sum(axis=0)

    # t = T-1: β is all ones, so the posterior numerator is α itself.
    accumulate(length - 1, ws.alpha[length - 1])
    beta_next, beta_current = ws.beta_a, ws.beta_b
    beta_next.fill(1.0)
    for t in range(length - 2, -1, -1):
        scale_next = ws.scales[:, t + 1][:, None]
        np.multiply(beta_next, ws.emit_obs[t + 1], out=ws.product)
        np.divide(ws.product, scale_next, out=ws.right)
        np.multiply(ws.alpha[t], ws.weights_col, out=ws.weighted_alpha)
        np.matmul(ws.weighted_alpha.T, ws.right, out=ws.xi_step)
        ws.xi += ws.xi_step
        np.matmul(ws.right, transition_t, out=beta_current)
        np.multiply(ws.alpha[t], beta_current, out=ws.ab)
        accumulate(t, ws.ab)
        beta_next, beta_current = beta_current, beta_next

    np.multiply(ws.xi, transition, out=ws.xi)
    # The M-step allocates fresh parameter matrices: they become the new
    # model's owned arrays and must not alias reusable workspace buffers.
    new_transition = ws.xi + config.transition_floor
    new_transition /= new_transition.sum(axis=1, keepdims=True)
    new_emission = ws.emit_sum + config.emission_floor
    new_emission /= new_emission.sum(axis=1, keepdims=True)
    if config.update_initial:
        new_initial = np.maximum(initial_raw, 0.0)
        new_initial = new_initial / new_initial.sum()
    else:
        new_initial = model.initial
    ws._pending = None
    return HiddenMarkovModel(
        transition=new_transition,
        emission=new_emission,
        initial=new_initial,
        symbols=model.symbols,
        state_labels=model.state_labels,
    )


def em_step(
    model: HiddenMarkovModel,
    obs: np.ndarray,
    weights: np.ndarray,
    config,
    workspace: EMWorkspace | None = None,
) -> tuple[HiddenMarkovModel, float]:
    """One full EM iteration (bind + forward + update).

    Returns ``(updated_model, loglik)`` where ``loglik`` is the weighted
    mean training log-likelihood under the *input* model — the same
    contract the unfused ``_em_step`` had.  Convenience wrapper for tests
    and one-shot callers; :func:`~repro.hmm.baumwelch.train` drives the
    phases directly so one bind serves every iteration.
    """
    ws = workspace if workspace is not None else EMWorkspace()
    ws.bind(model, obs, weights)
    loglik = em_forward(model, ws)
    return em_update(model, ws, config), loglik
