"""From-scratch feedforward network mapping embeddings to distributions over states.

Architecture: input -> inverted dropout -> hidden ReLU layer -> softmax output.
Trained with softmax cross-entropy against normalized successor rows, plain
SGD with momentum, analytic backprop. Every model, drawn, trained, loaded or
built from arrays, holds its arrays as views into one flat float64 parameter
vector, `model.theta` (w1, b1, w2, b2), so all predict the same bits. w1 is
stored input-major (input x hidden), so the forward product x @ w1.T reads a
C-contiguous matrix; `model.w1` is its hidden x input transpose. Training
shuffles, gathers and drops out a whole epoch of inputs at once, writes
gradients into a buffer of the parameter layout and steps on whole vectors in
place. One pass, `_forward_backward`, serves training on batches and inference
on a `LabeledPoints` one row at a time (`predict_all`). One seeded generator
drives everything, so a (config, examples) pair determines the model bitwise.
"""

import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import InputError
from .fileio import LabeledPoints, dump_json, load_json, plain_fields

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class MlpConfig:
    # every workload trains 128 hidden units in batches of 20, momentum 0.9: not settings
    hidden_dim: ClassVar[int] = 128
    batch_size: ClassVar[int] = 20
    momentum: ClassVar[float] = 0.9
    input_dim: int
    output_dim: int
    dropout_rate: float
    learning_rate: float
    epochs: int
    seed: int

    def __post_init__(self):
        plain_fields(self)
        if self.input_dim < 1 or self.output_dim < 1:
            raise InputError("layer sizes must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InputError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise InputError(f"learning rate must be finite and non-negative, got {self.learning_rate}")
        if self.epochs < 1:
            raise InputError(f"epochs must be positive, got {self.epochs}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass
class MlpModel:
    """The network's parameters, each checked against the config and stored as a view into
    one flat float64 vector, `theta`, laid out as `_views` gives them."""

    w1: np.ndarray  # hidden x input (the transpose of its input-major storage)
    b1: np.ndarray
    w2: np.ndarray  # output x hidden
    b2: np.ndarray
    config: MlpConfig

    def __post_init__(self):
        plain_fields(self)
        for name, shape in _param_shapes(self.config).items():  # before theta is allocated
            if getattr(self, name).shape != shape:
                raise InputError(f"parameter shapes do not match the config: {name} is "
                                 f"{getattr(self, name).shape}, expected {shape}")
        self.theta = np.empty(_param_count(self.config))
        for name, view in _views(self.theta, self.config).items():
            view[...] = getattr(self, name)
            setattr(self, name, view)


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
    """A model drawn from `rng`: weights uniform(+-sqrt(6/(fan_in+fan_out))) per matrix,
    w1 drawn first; biases zero."""
    lim1 = np.sqrt(6.0 / (config.input_dim + config.hidden_dim))
    w1 = rng.uniform(-lim1, lim1, size=(config.hidden_dim, config.input_dim))
    lim2 = np.sqrt(6.0 / (config.hidden_dim + config.output_dim))
    w2 = rng.uniform(-lim2, lim2, size=(config.output_dim, config.hidden_dim))
    return MlpModel(w1=w1, b1=np.zeros(config.hidden_dim), w2=w2,
                    b2=np.zeros(config.output_dim), config=config)


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
    """Pass over the rows of x, a batch or a stack of batches: (predictions, per-row losses).

    Predictions are softmax(w2 relu(w1 x + b1) + b2); the losses are None
    without a target. With a target, the gradients of the mean loss over the
    rows are written into `grads`, the `_views` of a flat gradient buffer.
    """
    z1 = x @ model.w1.T
    z1 += model.b1
    h = np.maximum(z1, 0.0)
    z2 = h @ model.w2.T
    z2 += model.b2
    p = _softmax(z2)
    if target is None:
        return p, None
    dz2 = p - target
    dz2 /= len(x)
    dz1 = dz2 @ model.w2
    dz1 *= z1 > 0
    np.matmul(dz2.T, h, out=grads["w2"])
    np.add.reduce(dz2, axis=0, out=grads["b2"])
    np.matmul(x.T, dz1, out=grads["w1"].T)
    np.add.reduce(dz1, axis=0, out=grads["b1"])
    return p, loss(p, target)


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
    model = _init_params(config, rng)
    theta = model.theta
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
                    raise InputError(f"non-finite loss at epoch {epoch}")
                loss_sum += batch_loss
                vel *= config.momentum
                grad *= config.learning_rate
                vel -= grad
                theta += vel

            if not np.isfinite(theta).all():
                name = next(name for name, param in _views(theta, config).items()
                            if not np.isfinite(param).all())
                raise InputError(f"non-finite parameter {name} at epoch {epoch}")
            losses.append(loss_sum / n)

    return model, losses


def predict_all(model, points):
    """`points`, a `LabeledPoints`, with each row replaced by its inference-mode distribution."""
    if points.points.shape[1] != model.config.input_dim:
        raise InputError(f"embeddings have dim {points.points.shape[1]}, "
                         f"model expects {model.config.input_dim}")
    # a stack of one-row batches, so no row's rounding depends on the rows beside it
    return LabeledPoints(points.lex, _forward_backward(model, points.points[:, None, :])[0][:, 0])


def save_model(model, path):
    """Checkpoint config plus all parameters as JSON (floats round-trip exactly)."""
    dump_json({"config": asdict(model.config), "w1": model.w1, "b1": model.b1,
               "w2": model.w2, "b2": model.b2}, path)


def load_model(path):
    what, keys = "model checkpoint", [f.name for f in fields(MlpConfig)]

    def build(doc):
        config = doc["config"]
        if not isinstance(config, dict):
            raise InputError(f"malformed {what} (config is not a JSON object)")
        for key in config:  # a setting that became a constant of MlpConfig among them
            if key not in keys:
                raise InputError(f"malformed {what} (unknown config key {key!r})")
        config = MlpConfig(**{key: config[key] for key in keys})  # a missing key is a KeyError
        return MlpModel(**{name: doc[name] for name in _param_shapes(config)}, config=config)
    return load_json(path, build, what)
