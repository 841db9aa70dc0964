"""Hidden Markov model substrate: parameters, inference, and EM training.

Implemented from scratch on numpy (the paper used the Jahmm Java library):
scaled forward/backward, batched Baum-Welch with a held-out termination set,
and random initialization for the Regular baselines.
"""

from .baumwelch import TrainingConfig, TrainingReport, train
from .forward import (
    backward,
    forward,
    log_likelihood,
    log_likelihood_unique,
    posterior_states,
)
from .kernels import EMWorkspace, log_likelihood_grouped
from .model import UNKNOWN_SYMBOL, HiddenMarkovModel, ensure_alphabet_with_unknown
from .random_init import random_model
from .serialize import load_model, save_model
from .viterbi import (
    DecodedPath,
    PositionExplanation,
    explain_segment,
    most_suspicious_positions,
    viterbi,
)

__all__ = [
    "UNKNOWN_SYMBOL",
    "DecodedPath",
    "EMWorkspace",
    "HiddenMarkovModel",
    "PositionExplanation",
    "TrainingConfig",
    "TrainingReport",
    "backward",
    "ensure_alphabet_with_unknown",
    "explain_segment",
    "forward",
    "load_model",
    "log_likelihood",
    "log_likelihood_grouped",
    "log_likelihood_unique",
    "most_suspicious_positions",
    "posterior_states",
    "random_model",
    "save_model",
    "train",
    "viterbi",
]
