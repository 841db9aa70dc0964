"""Hidden Markov model parameter container.

The paper's models are discrete-observation HMMs ``λ = (A, B, π)`` over an
alphabet of call labels.  This container is deliberately dumb: construction
and validation live here; the forward/backward/Baum-Welch machinery lives in
sibling modules; the *initialization* of parameters (random for the Regular
models, static-analysis-derived for STILO/CMarkov) lives in
:mod:`repro.reduction.initializer` and :mod:`repro.hmm.random_init`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from ..errors import ModelError

#: Reserved symbol for observations outside the training alphabet.  Unseen
#: symbols are anomalous by construction; giving them an explicit low-mass
#: alphabet slot keeps likelihoods finite and comparable.
UNKNOWN_SYMBOL = "<unk>"


@dataclass
class HiddenMarkovModel:
    """A discrete HMM.

    Attributes:
        transition: ``A``, shape (N, N); ``A[i, j] = P[state j | state i]``.
        emission: ``B``, shape (N, M); ``B[i, m] = P[symbol m | state i]``.
        initial: ``π``, shape (N,).
        symbols: the observation alphabet (length M).  If it contains
            :data:`UNKNOWN_SYMBOL`, unseen symbols encode to that slot.
        state_labels: optional descriptive label(s) per hidden state — for
            statically-initialized models, the call (or call cluster) the
            state represents.
    """

    transition: np.ndarray
    emission: np.ndarray
    initial: np.ndarray
    symbols: tuple[str, ...]
    state_labels: tuple[str, ...] | None = None
    _symbol_index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        self._symbol_index.update({s: i for i, s in enumerate(self.symbols)})
        self.validate()

    # ------------------------------------------------------------------
    # Shape / stochasticity checks
    # ------------------------------------------------------------------
    def validate(self, atol: float = 1e-6) -> None:
        n, m = self.n_states, self.n_symbols
        if self.transition.shape != (n, n):
            raise ModelError(f"transition shape {self.transition.shape} != ({n},{n})")
        if self.emission.shape != (n, m):
            raise ModelError(f"emission shape {self.emission.shape} != ({n},{m})")
        if self.initial.shape != (n,):
            raise ModelError(f"initial shape {self.initial.shape} != ({n},)")
        if len(self._symbol_index) != m:
            raise ModelError("duplicate symbols in alphabet")
        for name, array in (
            ("transition", self.transition),
            ("emission", self.emission),
            ("initial", self.initial),
        ):
            if np.any(array < -atol) or not np.all(np.isfinite(array)):
                raise ModelError(f"{name} has negative or non-finite entries")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=atol):
            raise ModelError("transition rows must sum to 1")
        if not np.allclose(self.emission.sum(axis=1), 1.0, atol=atol):
            raise ModelError("emission rows must sum to 1")
        if not np.isclose(self.initial.sum(), 1.0, atol=atol):
            raise ModelError("initial distribution must sum to 1")

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    @property
    def unknown_index(self) -> int | None:
        return self._symbol_index.get(UNKNOWN_SYMBOL)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_symbol(self, symbol: str) -> int:
        """Map one symbol to its alphabet index (UNK fallback if present)."""
        index = self._symbol_index.get(symbol)
        if index is not None:
            return index
        unk = self.unknown_index
        if unk is None:
            raise ModelError(
                f"symbol {symbol!r} not in alphabet and no {UNKNOWN_SYMBOL} slot"
            )
        return unk

    def encode(self, sequences: Iterable[Iterable[str]]) -> np.ndarray:
        """Encode equal-length symbol sequences into an (B, T) int array.

        One C-level pass over every symbol (``dict.get`` mapped over the
        flattened batch, UNK as the default, straight into the array)
        instead of one Python call per symbol.  Equal, element for element
        and error for error, to
        ``[[encode_symbol(s) for s in seq] for seq in sequences]``.
        """
        rows = [seq if isinstance(seq, (tuple, list)) else tuple(seq) for seq in sequences]
        try:
            codes = np.fromiter(
                map(
                    self._symbol_index.get,
                    chain.from_iterable(rows),
                    repeat(self.unknown_index),
                ),
                dtype=np.int64,
                count=sum(map(len, rows)),
            )
        except TypeError:
            # ``get`` gave None: a symbol outside a no-UNK alphabet.  The
            # per-symbol path raises its error for the first one.
            for symbol in chain.from_iterable(rows):
                self.encode_symbol(symbol)
            raise
        if not rows:
            raise ModelError("no sequences to encode")
        lengths = set(map(len, rows))
        if len(lengths) != 1:
            raise ModelError(f"sequences must share one length, got {sorted(lengths)}")
        return codes.reshape(len(rows), lengths.pop())

    def copy(self) -> "HiddenMarkovModel":
        return HiddenMarkovModel(
            transition=self.transition.copy(),
            emission=self.emission.copy(),
            initial=self.initial.copy(),
            symbols=self.symbols,
            state_labels=self.state_labels,
        )


def ensure_alphabet_with_unknown(symbols: Sequence[str]) -> tuple[str, ...]:
    """Return ``symbols`` with :data:`UNKNOWN_SYMBOL` appended if absent."""
    if UNKNOWN_SYMBOL in symbols:
        return tuple(symbols)
    return tuple(symbols) + (UNKNOWN_SYMBOL,)
