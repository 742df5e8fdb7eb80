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
from .fileio import dump_json, load_json


@dataclass
class TransitionMatrix:
    """Row-stochastic N x N matrix over the training states."""

    n: int
    values: np.ndarray
    state_words: list

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.n, self.n):
            raise InputError(f"transition matrix must be {self.n}x{self.n}")
        if len(self.state_words) != self.n:
            raise InputError("state_words length must equal n")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise InputError("transition entries must lie in [0, 1]")
        if self.n and np.max(np.abs(self.values.sum(axis=1) - 1.0)) > 1e-9:
            raise InputError("transition rows must sum to 1")


@dataclass
class SuccessorMatrix:
    """Discounted occupancy matrix M = sum_{k=0}^{horizon} gamma^k T^k."""

    n: int
    gamma: float
    horizon: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.horizon < 0:
            raise InputError(f"horizon must be non-negative, got {self.horizon}")
        if self.values.shape != (self.n, self.n):
            raise InputError(f"successor matrix must be {self.n}x{self.n}")
        if np.any(self.values < 0.0):
            raise InputError("successor entries must be non-negative")


def build_transition_matrix(table, lex, zero_diagonal=False):
    """Clamp pairwise cosine similarities at 0 and row-normalize.

    The diagonal carries self-similarity 1 unless `zero_diagonal` is set, in
    which case a word orthogonal (or opposed) to every other word leaves a row
    that cannot be normalized and is reported as an error.
    """
    words = lex.train_words
    if not words:
        raise InputError("lexicon has no training words")
    vecs = np.stack([table[w] for w in words])
    norms = np.linalg.norm(vecs, axis=1)
    raw = np.maximum((vecs @ vecs.T) / np.outer(norms, norms), 0.0)
    np.fill_diagonal(raw, 0.0 if zero_diagonal else 1.0)
    sums = raw.sum(axis=1)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        raise InputError(f"transition row for {words[dead[0]]!r} sums to 0 and cannot be normalized")
    return TransitionMatrix(n=len(words), values=raw / sums[:, None], state_words=list(words))


def successor_matrix(t, gamma, horizon):
    """Accumulate sum_{k=0}^{horizon} gamma^k T^k; gamma = 0 gives the identity exactly."""
    gamma = float(gamma)
    horizon = int(horizon)
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    if horizon < 0:
        raise InputError(f"horizon must be non-negative, got {horizon}")
    acc = np.eye(t.n)
    if gamma > 0.0:
        power = np.eye(t.n)
        for k in range(1, horizon + 1):
            power = power @ t.values
            acc = acc + (gamma ** k) * power
    return SuccessorMatrix(n=t.n, gamma=gamma, horizon=horizon, values=acc)


def rollout_occupancy_oracle(t, gamma, horizon, start, samples, seed):
    """Monte Carlo estimate of expected discounted occupancy from `start`.

    Samples trajectories of length `horizon` from T and averages
    sum_{k=0}^{horizon} gamma^k 1(s_k = s'). Independent of the closed-form
    accumulation in `successor_matrix`, which it validates; deterministic for
    a fixed seed. gamma = 0 returns the one-hot start vector exactly.
    """
    gamma = float(gamma)
    horizon = int(horizon)
    samples = int(samples)
    if samples < 1:
        raise InputError(f"samples must be positive, got {samples}")
    if not 0 <= start < t.n:
        raise InputError(f"start state {start} out of range 0..{t.n - 1}")
    occ = np.zeros(t.n)
    occ[start] = float(samples)
    if gamma > 0.0 and horizon > 0:
        rng = np.random.default_rng(seed)
        cum = np.cumsum(t.values, axis=1)
        states = np.full(samples, start, dtype=np.int64)
        for k in range(1, horizon + 1):
            u = rng.random(samples)
            states = np.minimum((cum[states] < u[:, None]).sum(axis=1), t.n - 1)
            occ += (gamma ** k) * np.bincount(states, minlength=t.n)
    return occ / samples


def save_sr_json(m, state_words, path):
    """JSON envelope with n, gamma, horizon, state words, and values."""
    if len(state_words) != m.n:
        raise InputError("state_words length must equal matrix size")
    dump_json({"n": m.n, "gamma": m.gamma, "horizon": m.horizon,
               "state_words": list(state_words), "values": m.values}, path)


def load_sr_json(path):
    """Returns (SuccessorMatrix, state_words) from a JSON envelope."""
    doc = load_json(path)
    try:
        m = SuccessorMatrix(n=int(doc["n"]), gamma=float(doc["gamma"]),
                            horizon=int(doc["horizon"]),
                            values=np.array(doc["values"], dtype=np.float64))
        words = list(doc["state_words"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed successor-matrix envelope ({exc})") from None
    if not np.isfinite(m.values).all():
        raise InputError(f"{path}: non-finite value in values")
    if len(words) != m.n:
        raise InputError(f"{path}: state_words length does not match n")
    return m, words
