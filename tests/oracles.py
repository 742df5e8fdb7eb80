"""References and builders that only the tests call, each defined once: a
loop-by-loop GDV, a Monte Carlo rollout of the successor representation, the
two-state flip chain, a central finite-difference gradient check, the training
loop written one array per parameter, the forward pass of one row,
double-centering MDS and the condensed distances it is compared by, the seeded
initial model, the heap peak of one call, a vector-text writer for building
embedding files, the `LabeledPoints` records the tests score, map, train on and
predict, the listing of a directory tree that a refused call or command must
leave as it was, and the one check of a refused library call.

The references check none of their arguments: every caller is a test that chose them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cogmap.errors import InputError
from cogmap.fileio import LabeledPoints, Lexicon, float_text, replacing
from cogmap.neural import _forward_backward, _init_params, _views, loss
from cogmap.projection import classical_mds, pairwise_euclidean
from cogmap.sr import TransitionMatrix

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


def flip_chain():
    """The two-state chain that always moves to the other state."""
    return TransitionMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]), state_words=["a", "b"])


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


def reference_train(config, examples):
    """Reference for `train`: the same float operations, one array per parameter.

    A dict of velocities updated as vel = m*vel - lr*g, fresh gradient arrays
    and a float dropout mask drawn per batch, and the forward/backward pass
    written out in full. The forward product reads w1 as an input x hidden
    C-contiguous matrix, as `train`'s input-major storage does: on a one-row
    batch the two orientations of that product round differently.
    """
    rng = np.random.default_rng(config.seed)
    lim1 = np.sqrt(6.0 / (config.input_dim + config.hidden_dim))
    w1 = rng.uniform(-lim1, lim1, size=(config.hidden_dim, config.input_dim))
    lim2 = np.sqrt(6.0 / (config.hidden_dim + config.output_dim))
    w2 = rng.uniform(-lim2, lim2, size=(config.output_dim, config.hidden_dim))
    params = {"w1": w1, "b1": np.zeros(config.hidden_dim),
              "w2": w2, "b2": np.zeros(config.output_dim)}
    vel = {name: np.zeros_like(param) for name, param in params.items()}
    n = len(examples)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x, t = examples.inputs[idx], examples.targets[idx]
            mask = (rng.random(x.shape) >= config.dropout_rate).astype(np.float64)
            x = x * mask / (1.0 - config.dropout_rate)
            z1 = x @ np.ascontiguousarray(params["w1"].T) + params["b1"]
            h = np.maximum(z1, 0.0)
            z2 = h @ params["w2"].T + params["b2"]
            e = np.exp(z2 - np.max(z2, axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            loss_sum += float((-np.sum(t * np.log(np.maximum(p, 1e-12)), axis=-1)).sum())
            dz2 = (p - t) / len(x)
            dz1 = (dz2 @ params["w2"]) * (z1 > 0)
            grads = {"w2": dz2.T @ h, "b2": dz2.sum(axis=0),
                     "w1": dz1.T @ x, "b1": dz1.sum(axis=0)}
            for name, g in grads.items():
                vel[name] = config.momentum * vel[name] - config.learning_rate * g
                params[name] += vel[name]
        losses.append(loss_sum / n)
    return params, losses


def predictions(model, x):
    """Forward pass of a single input vector, as a batch of one row."""
    return _forward_backward(model, np.asarray(x)[None, :])[0][0]


def heap_peak(call):
    """`call()`'s result and the Python heap's peak in bytes while it ran (tracemalloc)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def save_embeddings(entries, path):
    """Write a `{word: vector}` dict as vector-text; every component reloads bit-exactly."""
    dim = len(next(iter(entries.values()), ()))
    with replacing(path) as fh:
        fh.write(f"{len(entries)} {dim}\n")
        for word, vec in entries.items():
            fh.write(word + " " + float_text(vec).replace(",", " ") + "\n")


def labeled(points, labels):
    """The `LabeledPoints` of `points` with `labels`, one training word `w<i>` per row."""
    n = len(labels)
    return LabeledPoints(Lexicon([f"w{i}" for i in range(n)], list(labels), ["train"] * n), points)


def training_states(vectors, words):
    """The training states `words`, one row of `vectors` each, as one record."""
    n = len(words)
    return LabeledPoints(Lexicon(words=list(words), labels=["c"] * n, splits=["train"] * n),
                         vectors)


def tree_listing(root):
    """Each path under `root` with its bytes, or None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def assert_refused(call, message, root):
    """`call()` raises an InputError whose text is `message`, whole, and leaves the tree under
    `root` byte-identical."""
    before = tree_listing(root)
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
    assert tree_listing(root) == before


def gdv_reference(points, labels):
    """Direct transcription of the GDV definition with explicit loops."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    mu = points.mean(axis=0)
    sigma = points.std(axis=0)
    scaled = np.zeros_like(points)
    for k in range(d):
        if sigma[k] > 0.0:
            scaled[:, k] = 0.5 * (points[:, k] - mu[k]) / sigma[k]

    classes = []
    for label in labels:
        if label not in classes:
            classes.append(label)

    def dist(i, j):
        return math.sqrt(sum((scaled[i, k] - scaled[j, k]) ** 2 for k in range(d)))

    members = {c: [i for i, l in enumerate(labels) if l == c] for c in classes}
    intra = []
    for c in classes:
        idx = members[c]
        total = sum(dist(idx[a], idx[b])
                    for a in range(len(idx)) for b in range(a + 1, len(idx)))
        intra.append(2.0 * total / (len(idx) * (len(idx) - 1)))
    inter = []
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            ia, ib = members[classes[a]], members[classes[b]]
            total = sum(dist(i, j) for i in ia for j in ib)
            inter.append(total / (len(ia) * len(ib)))
    big_l = len(classes)
    return (sum(intra) / big_l
            - 2.0 / (big_l * (big_l - 1)) * sum(inter)) / math.sqrt(d)


def mds(points):
    """`classical_mds` of a record of `points`, one word per row; returns (n x 2 array, stress)."""
    coords, stress = classical_mds(labeled(points, ["c"] * len(points)))
    return coords.points, stress


def condensed(points):
    """The distance of each pair i < j of the rows of `points`, in row-major pair order."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return np.array([np.linalg.norm(points[i] - points[j])
                     for i in range(n) for j in range(i + 1, n)])


def double_centering_mds(points):
    """The textbook route to the map, B = -1/2 J D^2 J from the distance matrix."""
    d = pairwise_euclidean(points)
    n = len(d)
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centering @ (d ** 2) @ centering
    evals, evecs = np.linalg.eigh(0.5 * (b + b.T))
    order = np.argsort(-evals, kind="stable")[:2]
    return evecs[:, order] * np.sqrt(np.maximum(evals[order], 0.0))[None, :]
