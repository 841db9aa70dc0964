"""Property tests for the fused HMM kernels (repro.hmm.kernels).

Three contracts, each pinned bit-for-bit:

* the fused E-step equals a naive per-timestep reference implementation
  kept in this file (same operation order, plain numpy, fresh arrays);
* duplicate-aware scoring equals plain scoring for arbitrary duplicated
  batches, including the all-duplicate and all-unique extremes; scoring
  is batch-invariant over the served shapes whatever height a partial
  tile pads to (:func:`~repro.hmm.kernels.gemm_height`); and the
  grouped entry for ragged, many-model batches equals duplicate-aware
  scoring run per model and per length;
* an :class:`~repro.hmm.kernels.EMWorkspace` shared across ``train()``
  calls of *different* shapes never leaks state between calls.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.hmm import (
    EMWorkspace,
    HiddenMarkovModel,
    TrainingConfig,
    log_likelihood,
    log_likelihood_grouped,
    log_likelihood_unique,
    random_model,
    train,
)
from repro.hmm.backends import backend_scope, resolve_backend
from repro.hmm.kernels import (
    FLEET_GEMM_UNIT,
    SCALE_FLOOR,
    SCORE_TILE,
    em_step,
    gemm_height,
    score_fleet,
    score_sequences,
)

# ---------------------------------------------------------------------------
# Naive reference implementation of one EM iteration
# ---------------------------------------------------------------------------


def _reference_em_step(model, obs, weights, config):
    """Readable per-timestep reference for one EM iteration.

    Plain numpy with fresh arrays everywhere — no workspaces, no ``out=``
    writes, no fused loops — mirroring the kernel's *operation order*
    (t-descending ξ/emission accumulation, divide-before-GEMM backward),
    so the fused path must reproduce it bit for bit.
    """
    batch, length = obs.shape
    n, m = model.n_states, model.n_symbols
    weights = np.asarray(weights, dtype=float)
    emission_t = model.emission.T  # (M, N)
    # Contiguous like the kernel's operand: a strided transpose view makes
    # BLAS pick a different (trans) kernel with a different accumulation
    # order for small operands.
    transition_t = np.ascontiguousarray(model.transition.T)

    # Scaled forward pass.
    alpha = np.empty((length, batch, n))
    scales = np.empty((batch, length))
    current = model.initial[None, :] * emission_t[obs[:, 0]]
    norm = np.maximum(current.sum(axis=1), SCALE_FLOOR)
    alpha[0] = current / norm[:, None]
    scales[:, 0] = norm
    for t in range(1, length):
        current = (alpha[t - 1] @ model.transition) * emission_t[obs[:, t]]
        norm = np.maximum(current.sum(axis=1), SCALE_FLOOR)
        alpha[t] = current / norm[:, None]
        scales[:, t] = norm
    loglik = float(np.average(np.log(scales).sum(axis=1), weights=weights))

    # Backward sweep with fused accumulation, t = T-1 .. 0.
    xi = np.zeros((n, n))
    emit_sum = np.zeros((n, m))
    initial_raw = None
    w_col = weights[:, None]

    def accumulate(t, ab):
        nonlocal initial_raw
        gamma_norm = np.maximum(ab.sum(axis=1), SCALE_FLOOR)
        coeff = weights / gamma_norm
        contrib = ab * coeff[:, None]
        # One fresh per-timestep accumulator, folded into the running total
        # afterwards — each symbol bin is summed over the batch in index
        # order before touching emit_sum, matching the kernel's per-step
        # bincount exactly.
        step = np.zeros((n, m))
        np.add.at(step.T, obs[:, t], contrib)
        emit_sum[...] += step
        if t == 0:
            initial_raw = contrib.sum(axis=0)

    beta_next = np.ones((batch, n))
    accumulate(length - 1, alpha[length - 1] * beta_next)
    for t in range(length - 2, -1, -1):
        weighted = beta_next * emission_t[obs[:, t + 1]]
        right = weighted / scales[:, t + 1][:, None]
        xi += (alpha[t] * w_col).T @ right
        beta_t = right @ transition_t
        accumulate(t, alpha[t] * beta_t)
        beta_next = beta_t

    xi *= model.transition
    new_transition = xi + config.transition_floor
    new_transition /= new_transition.sum(axis=1, keepdims=True)
    new_emission = emit_sum + config.emission_floor
    new_emission /= new_emission.sum(axis=1, keepdims=True)
    if config.update_initial:
        new_initial = np.maximum(initial_raw, 0.0)
        new_initial = new_initial / new_initial.sum()
    else:
        new_initial = model.initial
    updated = HiddenMarkovModel(
        transition=new_transition,
        emission=new_emission,
        initial=new_initial,
        symbols=model.symbols,
        state_labels=model.state_labels,
    )
    return updated, loglik


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def em_case(draw):
    n_states = draw(st.integers(min_value=1, max_value=6))
    n_symbols = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    model = random_model(
        [f"s{i}" for i in range(n_symbols)], n_states=n_states, seed=seed
    )
    batch = draw(st.integers(min_value=1, max_value=40))
    length = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(seed + 1)
    obs = rng.integers(0, n_symbols, size=(batch, length))
    weights = rng.integers(1, 5, size=batch).astype(float)
    update_initial = draw(st.booleans())
    return model, obs, weights, TrainingConfig(update_initial=update_initial)


@st.composite
def duplicated_batch(draw):
    n_symbols = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    model = random_model(
        [f"s{i}" for i in range(n_symbols)],
        n_states=draw(st.integers(min_value=1, max_value=5)),
        seed=seed,
    )
    length = draw(st.integers(min_value=1, max_value=10))
    n_unique = draw(st.integers(min_value=1, max_value=6))
    multiplicities = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=n_unique,
            max_size=n_unique,
        )
    )
    rng = np.random.default_rng(seed + 1)
    base = rng.integers(0, n_symbols, size=(n_unique, length))
    obs = np.repeat(base, multiplicities, axis=0)
    obs = obs[rng.permutation(obs.shape[0])]
    return model, obs


# ---------------------------------------------------------------------------
# (a) fused E-step ≡ naive reference, bit for bit
# ---------------------------------------------------------------------------


class TestFusedEmStep:
    @settings(max_examples=60, deadline=None)
    @given(em_case())
    def test_bit_identical_to_reference(self, case):
        model, obs, weights, config = case
        expected, expected_ll = _reference_em_step(model, obs, weights, config)
        actual, actual_ll = em_step(model, obs, weights, config)
        assert actual_ll == expected_ll
        assert np.array_equal(actual.transition, expected.transition)
        assert np.array_equal(actual.emission, expected.emission)
        assert np.array_equal(actual.initial, expected.initial)

    def test_bit_identical_at_scale(self):
        """One deterministic large case (batch ≫ internal tile sizes)."""
        rng = np.random.default_rng(3)
        model = random_model([f"s{i}" for i in range(32)], n_states=16, seed=5)
        obs = rng.integers(0, 32, size=(1500, 15))
        weights = rng.integers(1, 4, size=1500).astype(float)
        config = TrainingConfig()
        expected, expected_ll = _reference_em_step(model, obs, weights, config)
        actual, actual_ll = em_step(model, obs, weights, config)
        assert actual_ll == expected_ll
        assert np.array_equal(actual.transition, expected.transition)
        assert np.array_equal(actual.emission, expected.emission)
        assert np.array_equal(actual.initial, expected.initial)


# ---------------------------------------------------------------------------
# (b) duplicate-aware scoring ≡ plain scoring, bit for bit
# ---------------------------------------------------------------------------


class TestLogLikelihoodUnique:
    @settings(max_examples=60, deadline=None)
    @given(duplicated_batch())
    def test_matches_plain_scoring(self, case):
        model, obs = case
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_all_duplicates(self):
        model = random_model(["a", "b", "c"], n_states=3, seed=0)
        obs = np.tile(np.array([[0, 1, 2, 1, 0]]), (50, 1))
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_all_unique(self):
        rng = np.random.default_rng(1)
        model = random_model([f"s{i}" for i in range(16)], n_states=4, seed=2)
        obs = rng.permutation(16 ** 2)[:200]  # distinct 2-symbol rows
        obs = np.stack([obs // 16, obs % 16], axis=1)
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_single_row(self):
        model = random_model(["a", "b"], n_states=2, seed=3)
        obs = np.array([[0, 1, 1, 0]])
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    #: 34 and 79 are the served http-window and libcall fleet shapes; 73
    #: and 81 (N mod 8 = 1, above 64) are shapes whose small GEMMs take a
    #: different BLAS kernel than the full tile (see ``gemm_height``); 17
    #: and 80 hit the odd-row edge kernels and the aligned case.
    @pytest.mark.parametrize("n_states", [17, 34, 73, 79, 80, 81])
    def test_scoring_is_batch_invariant(self, n_states):
        """A row's score is a pure function of its content: scoring any
        subset of rows — whatever its size or position relative to the
        fixed-height tiles, and whatever height its partial tile pads to —
        is bit-identical to scoring the full batch."""
        rng = np.random.default_rng(4)
        model = random_model(
            [f"s{i}" for i in range(24)], n_states=n_states, seed=6
        )
        obs = rng.integers(0, 24, size=(SCORE_TILE * 2 + 300, 12))
        full = score_sequences(model, obs)
        subsets = [
            np.arange(300, 900),  # straddles a tile boundary
            rng.permutation(obs.shape[0])[:777],  # scattered odd count
            np.arange(obs.shape[0]),  # identity
        ]
        # Tail sizes on both sides of GEMM-unit multiples and of the tile.
        for size in (1, 7, 8, 9, 15, 505, 511, 513):
            subsets.append(np.arange(size))
            subsets.append(rng.permutation(obs.shape[0])[:size])
        for subset in subsets:
            assert np.array_equal(score_sequences(model, obs[subset]), full[subset])

    @pytest.mark.parametrize("n_states", [34, 49, 73, 79])
    def test_small_fleet_matches_per_model_scoring(self, n_states):
        """A fleet drain of a few rows per model scores at a GEMM-unit
        height; it must still equal each model's own tiled pass (on
        OpenBLAS a bare multiple-of-8 height gives N = 49 other bits)."""
        rng = np.random.default_rng(5)
        models = [
            random_model([f"s{i}" for i in range(24)], n_states=n_states, seed=s)
            for s in (1, 2, 3)
        ]
        obs_list = [rng.integers(0, 24, size=(k, 15)) for k in (3, 5, 10)]
        for model, obs, got in zip(models, obs_list, score_fleet(models, obs_list)):
            assert got.tobytes() == score_sequences(model, obs).tobytes()

    def test_fleet_batches_taller_than_a_tile(self):
        rng = np.random.default_rng(6)
        models = [
            random_model([f"s{i}" for i in range(8)], n_states=34, seed=s)
            for s in (1, 2)
        ]
        obs_list = [rng.integers(0, 8, size=(k, 6)) for k in (SCORE_TILE + 9, 3)]
        for model, obs, got in zip(models, obs_list, score_fleet(models, obs_list)):
            assert got.tobytes() == score_sequences(model, obs).tobytes()


class TestGemmHeight:
    @pytest.mark.parametrize("n_states", [2, 17, 34, 73, 79, 80])
    def test_heights_are_gemm_units_or_the_tile(self, n_states):
        for rows in range(1, SCORE_TILE + 1):
            height = gemm_height(rows, n_states)
            unit = -(-rows // FLEET_GEMM_UNIT) * FLEET_GEMM_UNIT
            assert height in (unit, SCORE_TILE)

    @pytest.mark.parametrize("n_states", [17, 34, 49, 73, 79, 80])
    def test_chosen_heights_are_per_row_bit_identical_to_the_tile(self, n_states):
        rng = np.random.default_rng(n_states)
        operand = rng.random((SCORE_TILE, n_states))
        transition = random_model(["a"], n_states=n_states, seed=1).transition
        full = operand @ transition
        for height in {gemm_height(rows, n_states) for rows in range(1, SCORE_TILE)}:
            assert np.array_equal(operand[:height] @ transition, full[:height])

    def test_full_blocks_and_small_tiles(self):
        assert gemm_height(SCORE_TILE, 34) == SCORE_TILE
        assert gemm_height(SCORE_TILE - 1, 34) == SCORE_TILE
        assert gemm_height(3, 34, tile=4) == 4
        assert gemm_height(1, 34, tile=1) == 1


@st.composite
def grouped_case(draw):
    """One to five models over at most three (N, M) shapes — N mod 8 in
    {1, 2, 3} included, so several models often share a shape and fuse —
    each with a ragged, duplicate-heavy batch (possibly empty)."""
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from((1, 2, 3, 4, 9, 10, 11, 16, 17)),
                st.integers(min_value=2, max_value=6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    models, batches = [], []
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        n_states, n_symbols = shapes[index % len(shapes)]
        model = random_model(
            [f"s{i}" for i in range(n_symbols)],
            n_states=n_states,
            seed=seed + index,
        )
        # A small pool of distinct rows per length, sampled with
        # replacement: most rows in a batch are duplicates.
        pool = {
            length: rng.integers(0, model.n_symbols, size=(2, length))
            for length in draw(
                st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
            )
        }
        lengths = sorted(pool)
        rows = []
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            length = lengths[int(rng.integers(0, len(lengths)))]
            rows.append(pool[length][int(rng.integers(0, 2))])
        models.append(model)
        batches.append(rows)
    return models, batches


def _per_model_per_length(models, batches):
    """The reference: one ``log_likelihood_unique`` call per model and
    per distinct row length, scattered back into row order."""
    out = []
    for model, rows in zip(models, batches):
        scores = np.empty(len(rows))
        for length in {row.shape[0] for row in rows}:
            positions = [i for i, row in enumerate(rows) if row.shape[0] == length]
            scores[positions] = log_likelihood_unique(
                model, np.stack([rows[i] for i in positions])
            )
        out.append(scores)
    return out


def _compiled_available() -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return resolve_backend("compiled").name == "compiled"


class TestLogLikelihoodGrouped:
    # The compiled backend declines shapes its probe cannot verify
    # (warning once per shape); numpy then serves them, same bits.
    @pytest.mark.filterwarnings("ignore:kernel backend falling back")
    @settings(max_examples=40, deadline=None)
    @given(grouped_case())
    def test_matches_unique_per_model_and_length(self, case):
        models, batches = case
        backends = ["numpy"] + (["compiled"] if _compiled_available() else [])
        for backend in backends:
            with backend_scope(backend):
                got = log_likelihood_grouped(models, batches)
                expected = _per_model_per_length(models, batches)
            assert len(got) == len(models)
            for have, want in zip(got, expected):
                assert have.tobytes() == want.tobytes()

    def test_accepts_plain_lists(self):
        model = random_model(["a", "b", "c"], n_states=3, seed=0)
        (got,) = log_likelihood_grouped([model], [[[0, 1, 2], [2, 1]]])
        assert got[0] == log_likelihood(model, np.array([[0, 1, 2]]))[0]
        assert got[1] == log_likelihood(model, np.array([[2, 1]]))[0]

    def test_rejects_rows_that_are_not_1d_or_empty(self):
        model = random_model(["a", "b"], n_states=2, seed=1)
        with pytest.raises(ModelError, match="1-D and non-empty"):
            log_likelihood_grouped([model], [[np.zeros((2, 3), dtype=int)]])
        with pytest.raises(ModelError, match="1-D and non-empty"):
            log_likelihood_grouped([model], [[np.array([], dtype=int)]])

    def test_rejects_a_batch_count_mismatch(self):
        model = random_model(["a", "b"], n_states=2, seed=1)
        with pytest.raises(ModelError, match="one row batch per model"):
            log_likelihood_grouped([model, model], [[[0, 1]]])


# ---------------------------------------------------------------------------
# (c) workspace reuse never leaks state between train() calls
# ---------------------------------------------------------------------------


@st.composite
def train_cases(draw):
    """A short sequence of differently-shaped training problems."""
    cases = []
    for index in range(draw(st.integers(min_value=2, max_value=3))):
        n_symbols = draw(st.integers(min_value=2, max_value=6))
        seed = draw(st.integers(min_value=0, max_value=10_000)) + index
        model = random_model(
            [f"s{i}" for i in range(n_symbols)],
            n_states=draw(st.integers(min_value=1, max_value=4)),
            seed=seed,
        )
        rng = np.random.default_rng(seed + 1)
        batch = draw(st.integers(min_value=2, max_value=20))
        length = draw(st.integers(min_value=2, max_value=8))
        obs = rng.integers(0, n_symbols, size=(batch, length))
        with_holdout = draw(st.booleans())
        holdout = (
            rng.integers(0, n_symbols, size=(3, length)) if with_holdout else None
        )
        cases.append((model, obs, holdout))
    return cases


class TestWorkspaceReuse:
    @settings(max_examples=25, deadline=None)
    @given(train_cases())
    def test_shared_workspace_matches_fresh(self, cases):
        config = TrainingConfig(max_iterations=4)
        shared = EMWorkspace()
        for model, obs, holdout in cases:
            with_shared, report_shared = train(
                model, obs, holdout_obs=holdout, config=config, workspace=shared
            )
            fresh, report_fresh = train(
                model, obs, holdout_obs=holdout, config=config
            )
            assert np.array_equal(with_shared.transition, fresh.transition)
            assert np.array_equal(with_shared.emission, fresh.emission)
            assert np.array_equal(with_shared.initial, fresh.initial)
            assert report_shared.iterations == report_fresh.iterations
            assert (
                report_shared.train_log_likelihood
                == report_fresh.train_log_likelihood
            )
            assert (
                report_shared.holdout_log_likelihood
                == report_fresh.holdout_log_likelihood
            )
            assert report_shared.converged == report_fresh.converged
