"""From-scratch feedforward network mapping embeddings to distributions over states.

Architecture: input -> inverted dropout -> hidden ReLU layer -> softmax output.
Trained with softmax cross-entropy against normalized successor rows, plain
SGD with momentum, analytic backprop. The model's arrays are views into one
flat float64 parameter vector (w1, b1, w2, b2). w1 is stored input-major
(input x hidden), so the forward product x @ w1.T reads a C-contiguous matrix;
`model.w1` is its hidden x input transpose. Training shuffles, gathers and
drops out a whole epoch of inputs at once, writes gradients into a buffer of
the parameter layout and steps on whole vectors in place. One batched pass,
`_forward_backward`, serves training, inference and the gradient check.
Trained and loaded models share the layout, so they predict through the same
kernel. Everything is driven by one seeded generator so a (config, examples)
pair determines the trained model bitwise.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InputError, TrainingError
from .fileio import dump_json, load_json

LOG_CLAMP = 1e-12
FD_STEP = 1e-5


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    output_dim: int
    hidden_dim: int
    dropout_rate: float
    learning_rate: float
    epochs: int
    batch_size: int
    momentum: float
    seed: int

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1 or self.output_dim < 1:
            raise InputError("layer sizes must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InputError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise InputError(f"learning rate must be finite and non-negative, got {self.learning_rate}")
        if self.epochs < 1:
            raise InputError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch size must be positive, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise InputError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass
class MlpModel:
    w1: np.ndarray  # hidden x input (the transpose of its input-major storage)
    b1: np.ndarray
    w2: np.ndarray  # output x hidden
    b2: np.ndarray
    config: MlpConfig


def _param_shapes(config):
    """Shape of each parameter, in its order in the flat parameter vector."""
    return {"w1": (config.hidden_dim, config.input_dim), "b1": (config.hidden_dim,),
            "w2": (config.output_dim, config.hidden_dim), "b2": (config.output_dim,)}


def _views(flat, config):
    """Views into a flat vector laid out like the parameters, keyed by name.

    Each block is reshaped to its parameter's shape, except w1's, which holds
    the input x hidden matrix and is returned as its hidden x input transpose.
    """
    views, start = {}, 0
    for name, shape in _param_shapes(config).items():
        stop = start + math.prod(shape)
        block = flat[start:stop]
        views[name] = block.reshape(shape[::-1]).T if name == "w1" else block.reshape(shape)
        start = stop
    return views


def _param_count(config):
    return sum(math.prod(shape) for shape in _param_shapes(config).values())


def _init_params(config, rng):
    """(flat parameter vector, model whose arrays are views into it).

    Weights are uniform(+-sqrt(6/(fan_in+fan_out))) per matrix, w1 drawn
    first; biases are zero.
    """
    theta = np.zeros(_param_count(config))
    model = MlpModel(**_views(theta, config), config=config)
    lim1 = np.sqrt(6.0 / (config.input_dim + config.hidden_dim))
    model.w1[...] = rng.uniform(-lim1, lim1, size=model.w1.shape)
    lim2 = np.sqrt(6.0 / (config.hidden_dim + config.output_dim))
    model.w2[...] = rng.uniform(-lim2, lim2, size=model.w2.shape)
    return theta, model


def init_model(config):
    """Seeded initial model; `train` starts from exactly these parameters."""
    return _init_params(config, np.random.default_rng(config.seed))[1]


def _softmax(z):
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def loss(prediction, target):
    """Cross-entropy -sum t_j ln p_j over the last axis, predictions clamped at 1e-12."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return -np.add.reduce(target * np.log(np.maximum(prediction, LOG_CLAMP)), axis=-1)


def _dropout(x, rng, rate):
    """Inverted dropout on x in place, which it returns.

    One uniform draw per entry, in row-major order; an entry whose draw is
    below `rate` is zeroed and every survivor is scaled by 1/(1-rate).
    """
    x *= rng.random(x.shape) >= rate
    x /= 1.0 - rate
    return x


def _forward_backward(model, x, target=None, grads=None):
    """Batched pass over the rows of x: (predictions, per-row losses).

    Predictions are softmax(w2 relu(w1 x + b1) + b2); the losses are None
    without a target. With a target and `grads` (the `_views` of a flat
    gradient buffer), the gradients of the mean loss over the rows are
    written into `grads`.
    """
    z1 = x @ model.w1.T
    z1 += model.b1
    h = np.maximum(z1, 0.0)
    z2 = h @ model.w2.T
    z2 += model.b2
    p = _softmax(z2)
    if target is None:
        return p, None
    if grads is not None:
        dz2 = p - target
        dz2 /= len(x)
        dz1 = dz2 @ model.w2
        dz1 *= z1 > 0
        np.matmul(dz2.T, h, out=grads["w2"])
        np.add.reduce(dz2, axis=0, out=grads["b2"])
        np.matmul(x.T, dz1, out=grads["w1"].T)
        np.add.reduce(dz1, axis=0, out=grads["b1"])
    return p, loss(p, target)


def gradient_check(config, example):
    """Max relative error of analytic vs central finite-difference (step FD_STEP) gradients.

    Runs `_forward_backward` on a freshly initialized model with dropout
    disabled, perturbing one entry of the flat parameter vector at a time;
    the error for each entry is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    x, target = example
    x = np.asarray(x, dtype=np.float64)[None, :]
    target = np.asarray(target, dtype=np.float64)[None, :]
    theta, model = _init_params(config, np.random.default_rng(config.seed))
    grad = np.empty_like(theta)
    _forward_backward(model, x, target, _views(grad, config))
    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + FD_STEP
        hi = _forward_backward(model, x, target)[1][0]
        theta[i] = orig - FD_STEP
        lo = _forward_backward(model, x, target)[1][0]
        theta[i] = orig
        numeric = (hi - lo) / (2.0 * FD_STEP)
        err = abs(grad[i] - numeric) / max(1e-8, abs(grad[i]) + abs(numeric))
        worst = max(worst, err)
    return worst


def train(config, examples):
    """Train against an ExampleSet; returns (model, list of per-epoch mean losses).

    Each epoch shuffles the examples with the seeded generator, gathers the
    shuffled inputs and targets once and drops out the whole epoch's inputs
    in one draw (the doubles per-batch draws would take, in the same order).
    It walks batches of `batch_size` as slices of those arrays (last batch
    may be short) and applies one SGD-with-momentum step per batch on the
    mean batch loss. The model's arrays are views into one flat vector
    theta; the velocity, the gradient buffer and its views are made once,
    and the step vel *= momentum; grad *= learning_rate; vel -= grad;
    theta += vel runs in place on whole vectors. Aborts on a non-finite loss
    or parameter; numpy's overflow and invalid-value warnings are silenced
    inside the loop, because those checks report the divergence.
    """
    n = len(examples)
    if n == 0:
        raise InputError("cannot train on an empty example set")
    if examples.inputs.shape[1] != config.input_dim:
        raise InputError(f"examples have input dim {examples.inputs.shape[1]}, "
                         f"config says {config.input_dim}")
    if examples.targets.shape[1] != config.output_dim:
        raise InputError(f"examples have target dim {examples.targets.shape[1]}, "
                         f"config says {config.output_dim}")

    rng = np.random.default_rng(config.seed)
    theta, model = _init_params(config, rng)
    vel = np.zeros_like(theta)
    grad = np.empty_like(theta)
    grads = _views(grad, config)
    losses = []

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            inputs = _dropout(examples.inputs[order], rng, config.dropout_rate)
            targets = examples.targets[order]
            loss_sum = 0.0
            for lo in range(0, n, config.batch_size):
                hi = lo + config.batch_size
                _, example_losses = _forward_backward(model, inputs[lo:hi], targets[lo:hi], grads)
                batch_loss = float(np.add.reduce(example_losses))
                if not math.isfinite(batch_loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}")
                loss_sum += batch_loss
                vel *= config.momentum
                grad *= config.learning_rate
                vel -= grad
                theta += vel

            if not np.isfinite(theta).all():
                name = next(name for name, param in _views(theta, config).items()
                            if not np.isfinite(param).all())
                raise TrainingError(f"non-finite parameter {name} at epoch {epoch}")
            losses.append(loss_sum / n)

    return model, losses


def predict_all(model, vecs):
    """Inference-mode distributions, one per row of `vecs`, order preserved."""
    if vecs.shape[1] != model.config.input_dim:
        raise InputError(f"embeddings have dim {vecs.shape[1]}, "
                         f"model expects {model.config.input_dim}")
    return _forward_backward(model, vecs)[0]


def save_model(model, path):
    """Checkpoint config plus all parameters as JSON (floats round-trip exactly)."""
    dump_json({"config": asdict(model.config), "w1": model.w1, "b1": model.b1,
               "w2": model.w2, "b2": model.b2}, path)


def load_model(path):
    doc = load_json(path)
    try:
        config = MlpConfig(**doc["config"])
        arrays = {name: np.array(doc[name], dtype=np.float64) for name in _param_shapes(config)}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed model checkpoint ({exc})") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    params = _views(np.empty(_param_count(config)), config)
    for name, param in params.items():
        if arrays[name].shape != param.shape:
            raise InputError(f"{path}: checkpoint shapes do not match its config: {name} is "
                             f"{arrays[name].shape}, expected {param.shape}")
        if not np.isfinite(arrays[name]).all():
            raise InputError(f"{path}: non-finite value in {name}")
        param[...] = arrays[name]
    return MlpModel(**params, config=config)
