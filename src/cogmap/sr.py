"""Cosine-similarity transition matrices and finite-horizon discounted successor matrices.

The transition matrix T over the N training words has raw entries
max(0, cos(v_i, v_j)) with self-similarity 1 on the diagonal, each row then
normalized to sum 1. The successor matrix at scale gamma is the truncated sum

    M = sum_{k=0}^{H} gamma^k T^k,   T^0 = I,

accumulated by repeated matrix multiplication in float64. The truncated sum is
used instead of the (I - gamma T)^-1 closed form because the series diverges
at gamma = 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fileio import dump_json, load_json, reading, require_int, require_real

_TINY = np.finfo(np.float64).tiny


@dataclass
class TransitionMatrix:
    """Row-stochastic N x N matrix over the N training states in `state_words`."""

    values: np.ndarray
    state_words: list

    @property
    def n(self):
        return len(self.state_words)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.n, self.n):
            raise InputError(f"transition matrix must be {self.n}x{self.n}, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise InputError("transition entries must be finite")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise InputError("transition entries must lie in [0, 1]")
        if self.n and np.max(np.abs(self.values.sum(axis=1) - 1.0)) > 1e-9:
            raise InputError("transition rows must sum to 1")


def _check_scale(gamma, horizon):
    """Reject a discount that is not a real number in [0, 1] or a horizon that is not a
    non-negative integer; returns the discount as a float."""
    gamma = require_real("gamma", gamma)
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    if require_int("horizon", horizon) < 0:
        raise InputError(f"horizon must be non-negative, got {horizon}")
    return gamma


@dataclass
class SuccessorMatrix:
    """Discounted occupancy matrix M = sum_{k=0}^{horizon} gamma^k T^k over N states."""

    gamma: float
    horizon: int
    values: np.ndarray

    @property
    def n(self):
        return len(self.values)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.gamma = _check_scale(self.gamma, self.horizon)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise InputError(f"successor matrix must be square, got shape {self.values.shape}")
        if np.any(self.values < 0.0):
            raise InputError("successor entries must be non-negative")
        if np.any(self.values.sum(axis=1) <= 0.0):  # each row normalizes to a training target
            raise InputError("successor matrix has a non-positive row sum")


def build_transition_matrix(vecs, words):
    """Clamp pairwise cosine similarities at 0, set the diagonal to 1, and row-normalize.

    Row i of `vecs` is the embedding of training word `words[i]`. Every row
    sums to at least its diagonal 1, so every row normalizes; a word
    orthogonal (or opposed) to every other word keeps all its mass on itself.
    A vector whose squared norm overflows or falls below the smallest normal
    float64 would make its cosines inf/inf or 0/0, and is rejected by word.
    """
    if not words:
        raise InputError("lexicon has no training words")
    with np.errstate(over="ignore", under="ignore"):
        squared_norms = (vecs * vecs).sum(axis=1)
    bad = np.flatnonzero((squared_norms < _TINY) | (squared_norms == np.inf))
    if bad.size:
        raise InputError(f"vector for {words[bad[0]]!r} has a norm too large or too small "
                         "for float64 cosines")
    norms = np.sqrt(squared_norms)
    raw = np.maximum((vecs @ vecs.T) / np.outer(norms, norms), 0.0)
    np.fill_diagonal(raw, 1.0)
    return TransitionMatrix(values=raw / raw.sum(axis=1)[:, None], state_words=list(words))


def successor_matrix(t, gamma, horizon):
    """Accumulate sum_{k=0}^{horizon} gamma^k T^k; gamma = 0 gives the identity exactly.

    The T^0 term is built first, so SuccessorMatrix checks gamma and horizon
    before any power is taken.
    """
    m = SuccessorMatrix(gamma=gamma, horizon=horizon, values=np.eye(t.n))
    power = np.eye(t.n)
    for k in range(1, m.horizon + 1):
        power = power @ t.values
        m.values = m.values + (m.gamma ** k) * power
    return m


def rollout_occupancy_oracle(t, gamma, horizon, start, samples, seed):
    """Monte Carlo estimate of expected discounted occupancy from `start`.

    Samples trajectories of length `horizon` from T and averages
    sum_{k=0}^{horizon} gamma^k 1(s_k = s'). Independent of the closed-form
    accumulation in `successor_matrix`, which it validates; deterministic for
    a fixed seed. gamma = 0 or horizon = 0 returns the one-hot start vector exactly.
    Each step moves the samples in one state together, by a binary search of
    that state's cumulative row, so memory is O(samples + n^2).
    """
    gamma = _check_scale(gamma, horizon)
    if require_int("samples", samples) < 1:
        raise InputError(f"samples must be positive, got {samples}")
    if not 0 <= start < t.n:
        raise InputError(f"start state {start} out of range 0..{t.n - 1}")
    occ = np.zeros(t.n)
    occ[start] = float(samples)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(t.values, axis=1)
    states = np.full(samples, start, dtype=np.int64)
    for k in range(1, horizon + 1):
        u = rng.random(samples)
        groups = np.split(np.argsort(states), np.cumsum(np.bincount(states, minlength=t.n))[:-1])
        for s, rows in enumerate(groups):
            # on a nondecreasing row, the left insertion point is (cum[s] < u).sum()
            states[rows] = np.minimum(np.searchsorted(cum[s], u[rows], side="left"), t.n - 1)
        occ += (gamma ** k) * np.bincount(states, minlength=t.n)
    return occ / samples


def save_sr_json(m, state_words, path):
    """JSON envelope with n (the matrix size), gamma, horizon, state words, and values."""
    if len(state_words) != m.n:
        raise InputError("state_words length must equal matrix size")
    dump_json({"n": m.n, "gamma": m.gamma, "horizon": m.horizon,
               "state_words": list(state_words), "values": m.values}, path)


def load_sr_json(path):
    """Returns (SuccessorMatrix, state_words) from a JSON envelope whose n fits its values."""
    doc = load_json(path)
    with reading(path):
        try:
            n = require_int("n", doc["n"])
            m = SuccessorMatrix(gamma=doc["gamma"], horizon=doc["horizon"],
                                values=np.array(doc["values"], dtype=np.float64))
            words = list(doc["state_words"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed successor-matrix envelope ({exc})") from None
        if not np.isfinite(m.values).all():
            raise InputError("non-finite value in values")
        if n != m.n:
            raise InputError(f"n is {n} but values are {m.n}x{m.n}")
        if len(words) != m.n:
            raise InputError("state_words length does not match n")
    return m, words
