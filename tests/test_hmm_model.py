"""Unit tests for the HMM parameter container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.hmm import (
    UNKNOWN_SYMBOL,
    HiddenMarkovModel,
    ensure_alphabet_with_unknown,
    random_model,
)


def _valid_model(n=3, m=4) -> HiddenMarkovModel:
    return random_model([f"s{i}" for i in range(m - 1)], n_states=n, seed=0)


class TestValidation:
    def test_valid_model_passes(self):
        _valid_model().validate()

    def test_transition_rows_must_sum_to_one(self):
        model = _valid_model()
        model.transition[0, 0] += 0.5
        with pytest.raises(ModelError, match="transition"):
            model.validate()

    def test_emission_rows_must_sum_to_one(self):
        model = _valid_model()
        model.emission[0, 0] += 0.5
        with pytest.raises(ModelError, match="emission"):
            model.validate()

    def test_initial_must_sum_to_one(self):
        model = _valid_model()
        model.initial[0] += 0.5
        with pytest.raises(ModelError, match="initial"):
            model.validate()

    def test_negative_entries_rejected(self):
        model = _valid_model()
        model.transition[0, 0] = -0.1
        model.transition[0, 1] += 0.1
        with pytest.raises(ModelError):
            model.validate()

    def test_nan_rejected(self):
        model = _valid_model()
        model.emission[0, 0] = np.nan
        with pytest.raises(ModelError):
            model.validate()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            HiddenMarkovModel(
                transition=np.eye(2),
                emission=np.full((3, 2), 0.5),
                initial=np.array([1.0, 0.0]),
                symbols=("a", "b"),
            )

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ModelError):
            HiddenMarkovModel(
                transition=np.eye(2),
                emission=np.full((2, 2), 0.5),
                initial=np.array([1.0, 0.0]),
                symbols=("a", "a"),
            )


class TestEncoding:
    def test_known_symbols(self):
        model = _valid_model()
        obs = model.encode([("s0", "s1"), ("s1", "s2")])
        assert obs.shape == (2, 2)
        assert obs.dtype == np.int64

    def test_unknown_maps_to_unk(self):
        model = _valid_model()
        unk = model.unknown_index
        assert unk is not None
        obs = model.encode([("definitely_not_a_symbol", "s0")])
        assert obs[0, 0] == unk

    def test_unknown_without_unk_slot_raises(self):
        model = HiddenMarkovModel(
            transition=np.eye(2),
            emission=np.full((2, 2), 0.5),
            initial=np.array([1.0, 0.0]),
            symbols=("a", "b"),
        )
        with pytest.raises(ModelError):
            model.encode_symbol("zzz")

    def test_ragged_sequences_rejected(self):
        model = _valid_model()
        with pytest.raises(ModelError):
            model.encode([("s0",), ("s0", "s1")])

    def test_empty_rejected(self):
        model = _valid_model()
        with pytest.raises(ModelError):
            model.encode([])


def _reference_encode(model, sequences):
    """The per-symbol encoder :meth:`HiddenMarkovModel.encode` replaces."""
    encoded = [[model.encode_symbol(s) for s in seq] for seq in sequences]
    if not encoded:
        raise ModelError("no sequences to encode")
    lengths = {len(seq) for seq in encoded}
    if len(lengths) != 1:
        raise ModelError(f"sequences must share one length, got {sorted(lengths)}")
    return np.asarray(encoded, dtype=np.int64)


def _outcome(encode, model, sequences):
    try:
        return encode(model, sequences)
    except ModelError as exc:
        return str(exc)


_CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda items: (item for item in items),
}


@st.composite
def encode_case(draw):
    """A model with or without an UNK slot and a batch of sequences that
    is sometimes ragged, empty, zero-length or holds unknown symbols."""
    alphabet = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    with_unk = draw(st.booleans())
    symbols = tuple(alphabet) + ((UNKNOWN_SYMBOL,) if with_unk else ())
    model = HiddenMarkovModel(
        transition=np.eye(1),
        emission=np.full((1, len(symbols)), 1.0 / len(symbols)),
        initial=np.ones(1),
        symbols=symbols,
    )
    pool = alphabet + (["zzz", "yy"] if draw(st.booleans()) else [])
    length = draw(st.integers(min_value=0, max_value=6))
    lengths = st.integers(min_value=0, max_value=6) if draw(st.booleans()) else st.just(length)
    sequences = draw(
        st.lists(
            lengths.flatmap(lambda n: st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
            max_size=5,
        )
    )
    outer = draw(st.sampled_from(sorted(_CONTAINERS)))
    inner = draw(st.sampled_from(sorted(_CONTAINERS)))
    return model, sequences, outer, inner


class TestVectorizedEncoder:
    """``encode`` is one C-level pass; it must agree with the per-symbol
    reference on every input — values, dtype, shape and errors."""

    @settings(max_examples=200, deadline=None)
    @given(encode_case())
    def test_matches_per_symbol_reference(self, case):
        model, sequences, outer, inner = case

        def build():
            return _CONTAINERS[outer](_CONTAINERS[inner](seq) for seq in sequences)

        got = _outcome(HiddenMarkovModel.encode, model, build())
        want = _outcome(_reference_encode, model, build())
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_unknown_without_unk_slot_names_the_first_offender(self):
        model = HiddenMarkovModel(
            transition=np.eye(1),
            emission=np.full((1, 2), 0.5),
            initial=np.ones(1),
            symbols=("a", "b"),
        )
        with pytest.raises(ModelError) as excinfo:
            model.encode([("a", "b"), ("zzz", "yy")])
        assert str(excinfo.value) == (
            f"symbol 'zzz' not in alphabet and no {UNKNOWN_SYMBOL} slot"
        )

    def test_ragged_message(self):
        with pytest.raises(ModelError, match=r"share one length, got \[1, 2\]"):
            _valid_model().encode([("s0",), ("s0", "s1")])

    def test_empty_input_message(self):
        with pytest.raises(ModelError, match="no sequences to encode"):
            _valid_model().encode(iter(()))

    def test_zero_length_sequences_encode_to_an_empty_row_block(self):
        obs = _valid_model().encode([(), ()])
        assert obs.shape == (2, 0)
        assert obs.dtype == np.int64


class TestAlphabetHelper:
    def test_appends_unknown(self):
        assert ensure_alphabet_with_unknown(["a"]) == ("a", UNKNOWN_SYMBOL)

    def test_idempotent(self):
        alphabet = ensure_alphabet_with_unknown(["a", UNKNOWN_SYMBOL])
        assert alphabet.count(UNKNOWN_SYMBOL) == 1


class TestCopy:
    def test_copy_is_independent(self):
        model = _valid_model()
        clone = model.copy()
        clone.transition[0, 0] = 0.123
        assert model.transition[0, 0] != 0.123


class TestRandomInit:
    def test_deterministic_per_seed(self):
        a = random_model(["x", "y"], seed=4)
        b = random_model(["x", "y"], seed=4)
        assert np.array_equal(a.transition, b.transition)

    def test_different_seeds_differ(self):
        a = random_model(["x", "y"], seed=4)
        b = random_model(["x", "y"], seed=5)
        assert not np.array_equal(a.transition, b.transition)

    def test_default_states_equal_symbols(self):
        model = random_model(["x", "y", "z"])
        assert model.n_states == 3
        assert model.n_symbols == 4  # + UNK

    def test_invalid_states_raises(self):
        with pytest.raises(ModelError):
            random_model(["x"], n_states=0)
