"""Reference implementations kept only as bit-exactness oracles.

Nothing in ``src/`` imports this module.  The tests and the benches
(``benchmarks/bench_streaming_forward.py``,
``benchmarks/bench_compiled_kernels.py``) compare the product's fast
paths against it with ``==``, never ``approx``.

* :class:`LegacyStreamingScorer` — the original allocating forward
  filter that :class:`repro.core.streaming.StreamingScorer` replaced
  with the zero-allocation :class:`repro.hmm.kernels.StreamingState`
  kernels, kept verbatim: a fresh belief array per event and a deque of
  the last ``window`` surprisals.  Surprisals, windowed scores, and
  belief states of the two must match bit for bit, through resets and
  warm-swap rebinds.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ModelError
from repro.hmm.kernels import SCALE_FLOOR
from repro.hmm.model import HiddenMarkovModel


class LegacyStreamingScorer:
    """The verbatim legacy streaming filter (same surface as
    :class:`~repro.core.streaming.StreamingScorer`; uninstrumented)."""

    def __init__(self, model: HiddenMarkovModel, window: int = 15) -> None:
        if window <= 0:
            raise ModelError("window must be positive")
        self.model = model
        self.window = window
        self.events = 0
        self._recent: deque[float] = deque(maxlen=window)
        self._belief = model.initial.copy()
        self._started = False

    def observe(self, symbol: str) -> float:
        index = self.model.encode_symbol(symbol)
        if self._started:
            predictive = self._belief @ self.model.transition
        else:
            predictive = self._belief
            self._started = True
        joint = predictive * self.model.emission[:, index]
        total = float(joint.sum())
        total = max(total, SCALE_FLOOR)
        self._belief = joint / total
        self.events += 1
        surprise = -float(np.log(total))
        self._recent.append(surprise)
        return surprise

    def observe_many(self, symbols) -> list[float]:
        return [self.observe(symbol) for symbol in symbols]

    @property
    def belief(self) -> np.ndarray:
        return self._belief

    @property
    def windowed_score(self) -> float:
        if not self._recent:
            raise ModelError("no events observed yet")
        return -float(np.mean(self._recent))

    @property
    def window_full(self) -> bool:
        return len(self._recent) == self.window

    def reset(self) -> None:
        self._belief = self.model.initial.copy()
        self._started = False
        self._recent.clear()
        self.events = 0

    def rebind(self, model: HiddenMarkovModel) -> None:
        if not isinstance(model, HiddenMarkovModel):
            raise ModelError(
                f"rebind takes a HiddenMarkovModel, not {type(model).__name__}"
            )
        self.model = model
        self._belief = model.initial.copy()
        self._started = False
