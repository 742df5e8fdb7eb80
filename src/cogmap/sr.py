"""Cosine-similarity transition matrices and finite-horizon discounted successor matrices.

The transition matrix T over the N training words has raw entries
max(0, cos(v_i, v_j)) with self-similarity 1 on the diagonal, each row then
normalized to sum 1. The successor matrix at scale gamma is the truncated sum

    M = sum_{k=0}^{H} gamma^k T^k,   T^0 = I,

accumulated by repeated matrix multiplication in float64. The truncated sum is
used instead of the (I - gamma T)^-1 closed form because the series diverges
at gamma = 1.

T is built from the training states' `LabeledPoints`, and both matrices name
their states: row and column i belong to `state_words[i]`, the i-th training
word. An SR envelope (`save_sr_json`, `load_sr_json`) holds the record's four fields.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .fileio import dump_json, load_json, plain_fields, require_int, require_real

_TINY = np.finfo(np.float64).tiny


@dataclass
class TransitionMatrix:
    """Row-stochastic N x N matrix over the N training states in `state_words`."""

    values: np.ndarray
    state_words: list[str]

    @property
    def n(self):
        return len(self.state_words)

    def __post_init__(self):
        plain_fields(self)
        if self.values.shape != (self.n, self.n):
            raise InputError(f"transition matrix must be {self.n}x{self.n}, got {self.values.shape}")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise InputError("transition entries must lie in [0, 1]")
        if self.n and np.max(np.abs(self.values.sum(axis=1) - 1.0)) > 1e-9:
            raise InputError("transition rows must sum to 1")


def _check_scale(gamma, horizon):
    """Reject a discount that is not a real number in [0, 1] or a horizon that is not a
    non-negative integer; returns the discount as a float, -0 as 0 (one scale, one file name)."""
    gamma = require_real("gamma", gamma)
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    if require_int("horizon", horizon) < 0:
        raise InputError(f"horizon must be non-negative, got {horizon}")
    return gamma + 0.0  # exact for every float but -0.0


@dataclass
class SuccessorMatrix:
    """Discounted occupancy matrix M = sum_{k=0}^{horizon} gamma^k T^k over the N training
    states in `state_words`."""

    gamma: float
    horizon: int
    values: np.ndarray
    state_words: list[str]

    @property
    def n(self):
        return len(self.state_words)

    def __post_init__(self):
        plain_fields(self)
        self.gamma = _check_scale(self.gamma, self.horizon)
        if self.values.shape != (self.n, self.n):
            raise InputError(f"successor matrix must be {self.n}x{self.n}, got {self.values.shape}")
        if np.any(self.values < 0.0):
            raise InputError("successor entries must be non-negative")
        with np.errstate(over="ignore"):
            row_sums = self.values.sum(axis=1)
        if np.any(row_sums == np.inf):
            raise InputError("successor matrix row sums overflow float64")
        if np.any(row_sums <= 0.0):  # each row normalizes to a training target
            raise InputError("successor matrix has a non-positive row sum")


def build_transition_matrix(states):
    """Clamp pairwise cosine similarities at 0, set the diagonal to 1, and row-normalize.

    `states` holds the training words and their embeddings. Every row sums to
    at least its diagonal 1, so every row normalizes; a word orthogonal (or
    opposed) to every other word keeps all its mass on itself. A vector whose
    squared norm overflows or falls below the smallest normal float64 would
    make its cosines inf/inf or 0/0, and is rejected by word.
    """
    vecs = states.points
    with np.errstate(over="ignore", under="ignore"):
        squared_norms = (vecs * vecs).sum(axis=1)
    bad = np.flatnonzero((squared_norms < _TINY) | (squared_norms == np.inf))
    if bad.size:
        raise InputError(f"vector for {states.lex.words[bad[0]]!r} has a norm too large or "
                         "too small for float64 cosines")
    norms = np.sqrt(squared_norms)
    raw = np.maximum((vecs @ vecs.T) / np.outer(norms, norms), 0.0)
    np.fill_diagonal(raw, 1.0)
    return TransitionMatrix(values=raw / raw.sum(axis=1)[:, None], state_words=states.lex.words)


def successor_matrix(t, gamma, horizon):
    """Accumulate sum_{k=0}^{horizon} gamma^k T^k; gamma = 0 gives the identity exactly.

    The scale is checked before any power is taken, and the record is built from the sum.
    """
    gamma = _check_scale(gamma, horizon)
    values = np.eye(t.n)
    for k in range(1, horizon + 1):
        power = t.values if k == 1 else power @ t.values  # I @ T would only copy T's bits
        values = values + (gamma ** k) * power
    return SuccessorMatrix(gamma=gamma, horizon=horizon, values=values, state_words=t.state_words)


def save_sr_json(m, path):
    """JSON envelope of the record's fields: gamma, horizon, state words and values."""
    dump_json({"gamma": m.gamma, "horizon": m.horizon, "state_words": m.state_words,
               "values": m.values}, path)


def load_sr_json(path):
    """The SuccessorMatrix of a JSON envelope; any key but its fields (an older `n`) is ignored."""
    names = [f.name for f in fields(SuccessorMatrix)]
    return load_json(path, lambda doc: SuccessorMatrix(**{name: doc[name] for name in names}),
                     "successor-matrix envelope")
