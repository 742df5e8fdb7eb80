"""References that only the tests call: a Monte Carlo rollout of the successor
representation, a central finite-difference gradient check, the seeded initial
model, and a vector-text writer for building embedding files.

The rollout checks none of its arguments: every caller is a test that chose them.
"""

import numpy as np

from cogmap.fileio import float_text, replacing
from cogmap.neural import _forward_backward, _init_params, _views, loss

FD_STEP = 1e-5


def rollout_occupancy_oracle(t, gamma, horizon, start, samples, seed):
    """Monte Carlo estimate of expected discounted occupancy from `start`.

    Samples trajectories of length `horizon` from T and averages
    sum_{k=0}^{horizon} gamma^k 1(s_k = s'). Each step compares every sample's
    draw with every entry of its state's cumulative row, a samples x n array.
    Independent of the closed-form accumulation in `successor_matrix`, which
    it validates; deterministic for a fixed seed. gamma = 0 or horizon = 0
    returns the one-hot start vector exactly.
    """
    occ = np.zeros(t.n)
    occ[start] = float(samples)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(t.values, axis=1)
    states = np.full(samples, start, dtype=np.int64)
    for k in range(1, horizon + 1):
        u = rng.random(samples)
        states = np.minimum((cum[states] < u[:, None]).sum(axis=1), t.n - 1)
        occ += (gamma ** k) * np.bincount(states, minlength=t.n)
    return occ / samples


def init_model(config):
    """Seeded initial model; `train` starts from exactly these parameters."""
    return _init_params(config, np.random.default_rng(config.seed))


def gradient_check(config, example):
    """Max relative error of analytic vs central finite-difference (step FD_STEP) gradients.

    Runs `_forward_backward` on a freshly initialized model, perturbing one
    entry of the flat parameter vector at a time; the error for each entry is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    x, target = example
    x = np.asarray(x, dtype=np.float64)[None, :]
    target = np.asarray(target, dtype=np.float64)[None, :]
    model = init_model(config)
    theta = model.theta
    grad = np.empty_like(theta)
    _forward_backward(model, x, target, _views(grad, config))
    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + FD_STEP
        hi = loss(_forward_backward(model, x)[0], target)[0]
        theta[i] = orig - FD_STEP
        lo = loss(_forward_backward(model, x)[0], target)[0]
        theta[i] = orig
        numeric = (hi - lo) / (2.0 * FD_STEP)
        err = abs(grad[i] - numeric) / max(1e-8, abs(grad[i]) + abs(numeric))
        worst = max(worst, err)
    return worst


def save_embeddings(entries, path):
    """Write a `{word: vector}` dict as vector-text; every component reloads bit-exactly."""
    dim = len(next(iter(entries.values()), ()))
    with replacing(path) as fh:
        fh.write(f"{len(entries)} {dim}\n")
        for word, vec in entries.items():
            fh.write(word + " " + float_text(vec).replace(",", " ") + "\n")
