"""MLP configuration, the batched forward/backward pass, training loop, and checkpoints."""

import json
import math

import numpy as np
import pytest

from cogmap.dataset import ExampleSet
from cogmap.errors import InputError, TrainingError
from cogmap.neural import (MlpConfig, MlpModel, _dropout, _forward_backward, _param_count,
                           _views, gradient_check, init_model, load_model, loss,
                           predict_all, save_model, train)


def small_config(**overrides):
    base = dict(input_dim=4, output_dim=3, hidden_dim=5, dropout_rate=0.0,
                learning_rate=0.05, epochs=5, batch_size=2, momentum=0.9, seed=1)
    base.update(overrides)
    return MlpConfig(**base)


def zero_model(config):
    return MlpModel(w1=np.zeros((config.hidden_dim, config.input_dim)),
                    b1=np.zeros(config.hidden_dim),
                    w2=np.zeros((config.output_dim, config.hidden_dim)),
                    b2=np.zeros(config.output_dim), config=config)


def toy_examples(n_per=3, seed=0):
    """Two separable 2-D clusters whose targets are distinct distributions."""
    rng = np.random.default_rng(seed)
    inputs, targets = [], []
    for center, dist in [((4.0, 0.0), (0.9, 0.1)), ((0.0, 4.0), (0.1, 0.9))]:
        for _ in range(n_per):
            inputs.append(np.array(center) + 0.1 * rng.standard_normal(2))
            targets.append(np.array(dist))
    return ExampleSet(inputs=np.array(inputs), targets=np.array(targets))


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(InputError):
        small_config(input_dim=0)
    with pytest.raises(InputError):
        small_config(hidden_dim=-1)
    with pytest.raises(InputError):
        small_config(dropout_rate=1.0)
    with pytest.raises(InputError):
        small_config(dropout_rate=-0.1)
    with pytest.raises(InputError):
        small_config(learning_rate=-1e-9)
    with pytest.raises(InputError):
        small_config(epochs=0)
    with pytest.raises(InputError):
        small_config(batch_size=0)
    with pytest.raises(InputError):
        small_config(momentum=1.0)
    with pytest.raises(InputError, match="seed must be non-negative"):
        small_config(seed=-1)
    # boundary values that must be accepted
    small_config(dropout_rate=0.0, learning_rate=0.0, momentum=0.0, seed=0)


def test_init_is_seeded_glorot():
    cfg = small_config(seed=42)
    a = init_model(cfg)
    b = init_model(cfg)
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)
    np.testing.assert_array_equal(a.b1, np.zeros(cfg.hidden_dim))
    np.testing.assert_array_equal(a.b2, np.zeros(cfg.output_dim))
    lim1 = math.sqrt(6.0 / (cfg.input_dim + cfg.hidden_dim))
    lim2 = math.sqrt(6.0 / (cfg.hidden_dim + cfg.output_dim))
    assert np.all(np.abs(a.w1) <= lim1) and np.all(np.abs(a.w2) <= lim2)
    c = init_model(small_config(seed=43))
    assert not np.array_equal(a.w1, c.w1)


# ----------------------------------------------------------------- forward

def predictions(model, x):
    """Forward pass of a single input vector."""
    return _forward_backward(model, np.asarray(x)[None, :])[0][0]


class FixedDraws:
    """Stands in for a Generator whose uniform draws all equal `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def test_zero_model_predicts_uniform():
    cfg = small_config()
    p = predictions(zero_model(cfg), np.ones(cfg.input_dim))
    np.testing.assert_allclose(p, np.full(cfg.output_dim, 1.0 / cfg.output_dim),
                               atol=1e-15)


def test_all_ones_mask_matches_scaled_input():
    # inverted dropout with a full mask multiplies the input by 1/(1-rate);
    # at rate .8 the float divisor is 0.19999999999999996, so comparison
    # against the notional 5x input agrees to rounding, not bitwise
    cfg = small_config(dropout_rate=0.8, seed=3)
    model = init_model(cfg)
    x = np.random.default_rng(5).standard_normal(cfg.input_dim)
    masked = _dropout(x.copy(), FixedDraws(0.9), cfg.dropout_rate)
    np.testing.assert_allclose(predictions(model, masked), predictions(model, 5.0 * x),
                               rtol=1e-12)


def test_zero_mask_drops_everything():
    cfg = small_config(dropout_rate=0.5, seed=3)
    model = init_model(cfg)
    dropped = _dropout(np.full(cfg.input_dim, 2.0), FixedDraws(0.1), cfg.dropout_rate)
    np.testing.assert_array_equal(predictions(model, dropped),
                                  predictions(model, np.zeros(cfg.input_dim)))


def test_epoch_dropout_draws_what_per_batch_draws_would():
    # one draw for a whole epoch of 7 rows gives the doubles that batches of 3,
    # 3 and 1 drew one after another, so the masks and the generator state
    # after the epoch are the same bits
    rate = 0.3
    x = np.random.default_rng(4).standard_normal((7, 5))
    epoch_rng, batch_rng = np.random.default_rng(21), np.random.default_rng(21)
    epoch = _dropout(x.copy(), epoch_rng, rate)
    batches = [x[lo:lo + 3] * (batch_rng.random(x[lo:lo + 3].shape) >= rate) / (1.0 - rate)
               for lo in range(0, 7, 3)]
    assert epoch.tobytes() == np.concatenate(batches).tobytes()
    assert epoch_rng.random() == batch_rng.random()
    # survivors are scaled by 1/(1-rate), everything else is zero
    kept = epoch != 0.0
    assert 0 < kept.sum() < x.size
    assert epoch[kept].tobytes() == (x[kept] / (1.0 - rate)).tobytes()


def test_predict_all_rejects_wrong_input_dim():
    model = init_model(small_config())
    with pytest.raises(InputError, match="expects 4"):
        predict_all(model, np.ones((1, 7)))


# -------------------------------------------------------------------- loss

def test_loss_against_uniform_prediction():
    p = np.full(60, 1.0 / 60.0)
    t = np.zeros(60)
    t[7] = 1.0
    assert loss(p, t) == pytest.approx(math.log(60.0), abs=1e-12)


def test_loss_half_mass():
    assert loss(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == \
        pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_is_per_row_over_the_last_axis():
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(loss(p, t), [loss(p[0], t[0]), loss(p[1], t[1])])


def test_loss_clamps_zero_predictions():
    val = loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert val == pytest.approx(-math.log(1e-12), abs=1e-9)
    assert math.isfinite(val)


# --------------------------------------------------------------- gradients

def forward_backward(model, x, target):
    """(predictions, per-row losses, gradient views) of one batched pass."""
    grads = _views(np.empty(_param_count(model.config)), model.config)
    p, losses = _forward_backward(model, x, target, grads)
    return p, losses, grads


def test_zero_model_output_gradient_is_prediction_minus_target():
    cfg = small_config()
    model = zero_model(cfg)
    target = np.array([1.0, 0.0, 0.0])
    _, _, grads = forward_backward(model, np.ones((1, cfg.input_dim)), target[None, :])
    uniform = np.full(cfg.output_dim, 1.0 / cfg.output_dim)
    np.testing.assert_allclose(grads["b2"], uniform - target, atol=1e-15)
    # hidden activations are zero, so every upstream gradient vanishes
    np.testing.assert_array_equal(grads["w2"], 0.0)
    np.testing.assert_array_equal(grads["w1"], 0.0)
    np.testing.assert_array_equal(grads["b1"], 0.0)


def test_gradient_zero_when_target_equals_prediction():
    cfg = small_config(seed=8)
    model = init_model(cfg)
    x = np.random.default_rng(2).standard_normal((3, cfg.input_dim))
    target = _forward_backward(model, x)[0]
    _, _, grads = forward_backward(model, x, target)
    for g in grads.values():
        assert np.linalg.norm(g) < 1e-9


def test_batch_gradient_is_mean_of_row_gradients():
    cfg = small_config(seed=4)
    model = init_model(cfg)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, cfg.input_dim))
    t = rng.random((3, cfg.output_dim))
    t /= t.sum(axis=1, keepdims=True)
    _, losses, batch = forward_backward(model, x, t)
    rows = [forward_backward(model, x[i:i + 1], t[i:i + 1]) for i in range(3)]
    np.testing.assert_allclose(losses, [r[1][0] for r in rows], rtol=1e-14)
    for name, g in batch.items():
        np.testing.assert_allclose(g, sum(r[2][name] for r in rows) / 3, atol=1e-15)


def test_gradient_buffer_holds_the_same_bits_as_fresh_gradients():
    cfg = small_config(seed=4)
    model = init_model(cfg)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, cfg.input_dim))
    t = rng.random((3, cfg.output_dim))
    t /= t.sum(axis=1, keepdims=True)
    fresh = _views(np.zeros(_param_count(cfg)), cfg)
    p_fresh, losses_fresh = _forward_backward(model, x, t, fresh)
    # stale contents of the buffer must not leak into the gradients
    buf = np.full(_param_count(cfg), np.nan)
    grads = _views(buf, cfg)
    p, losses = _forward_backward(model, x, t, grads)
    assert p.tobytes() == p_fresh.tobytes() and losses.tobytes() == losses_fresh.tobytes()
    # without gradient views the pass computes the same predictions and losses only
    p_only, losses_only = _forward_backward(model, x, t)
    assert p_only.tobytes() == p.tobytes() and losses_only.tobytes() == losses.tobytes()
    assert list(grads) == ["w1", "b1", "w2", "b2"]
    for name, g in grads.items():
        assert g.shape == fresh[name].shape and g.tobytes() == fresh[name].tobytes()
        assert g.base is buf
    # laid end to end in parameter order, w1 input-major, the views are the whole buffer
    assert grads["w1"].shape == (cfg.hidden_dim, cfg.input_dim) and grads["w1"].T.flags.c_contiguous
    stored = [grads["w1"].T] + [grads[name] for name in ("b1", "w2", "b2")]
    assert np.concatenate([g.ravel() for g in stored]).tobytes() == buf.tobytes()


def test_gradient_check_small_network():
    cfg = MlpConfig(input_dim=4, output_dim=3, hidden_dim=3, dropout_rate=0.0,
                    learning_rate=0.01, epochs=1, batch_size=1, momentum=0.0, seed=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4)
    t = rng.random(3)
    t /= t.sum()
    assert gradient_check(cfg, (x, t)) < 1e-4


# ---------------------------------------------------------------- training

def test_zero_lr_single_epoch_preserves_init_bitwise():
    ex = toy_examples()
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dim=4, dropout_rate=0.5,
                    learning_rate=0.0, epochs=1, batch_size=2, momentum=0.9, seed=17)
    model, losses = train(cfg, ex)
    ref = init_model(cfg)
    np.testing.assert_array_equal(model.w1, ref.w1)
    np.testing.assert_array_equal(model.b1, ref.b1)
    np.testing.assert_array_equal(model.w2, ref.w2)
    np.testing.assert_array_equal(model.b2, ref.b2)
    assert len(losses) == 1


def test_training_is_deterministic_bitwise():
    ex = toy_examples()
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dim=6, dropout_rate=0.3,
                    learning_rate=0.01, epochs=20, batch_size=2, momentum=0.9, seed=5)
    m1, r1 = train(cfg, ex)
    m2, r2 = train(cfg, ex)
    np.testing.assert_array_equal(m1.w1, m2.w1)
    np.testing.assert_array_equal(m1.w2, m2.w2)
    assert r1 == r2


def test_training_reduces_loss_on_separable_toy():
    ex = toy_examples()
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dim=8, dropout_rate=0.0,
                    learning_rate=0.05, epochs=200, batch_size=3, momentum=0.9, seed=2)
    _, losses = train(cfg, ex)
    assert losses[-1] < losses[0]
    assert len(losses) == 200


def test_training_aborts_on_divergence():
    # +x and -x share every batch, so however the exploding updates sign the
    # weights some hidden unit stays active and the magnitudes keep compounding
    # until the loss (or a parameter) goes non-finite
    ex = ExampleSet(inputs=np.array([[3.0, 1.0], [-3.0, -1.0]]),
                    targets=np.array([[0.8, 0.2], [0.2, 0.8]]))
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dim=4, dropout_rate=0.0,
                    learning_rate=1e30, epochs=60, batch_size=2, momentum=0.0, seed=1)
    with pytest.raises(TrainingError, match="non-finite"):
        train(cfg, ex)


def reference_train(config, examples):
    """Reference for `train`: the same float operations, one array per parameter.

    A dict of velocities updated as vel = m*vel - lr*g, a float dropout mask
    drawn per batch, and the forward/backward pass written out in full. The
    forward product reads w1 as an input x hidden C-contiguous matrix, as
    `train`'s input-major storage does: on a one-row batch the two orientations
    of that product round differently.
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


def test_training_matches_the_per_array_reference_bitwise():
    # 7 examples in batches of 3: every epoch ends on a short batch
    rng = np.random.default_rng(11)
    targets = rng.random((7, 4))
    ex = ExampleSet(inputs=rng.standard_normal((7, 5)),
                    targets=targets / targets.sum(axis=1, keepdims=True))
    cfg = MlpConfig(input_dim=5, output_dim=4, hidden_dim=6, dropout_rate=0.3,
                    learning_rate=0.05, epochs=30, batch_size=3, momentum=0.9, seed=21)
    model, losses = train(cfg, ex)
    params, reference_losses = reference_train(cfg, ex)
    for name, param in params.items():
        assert getattr(model, name).tobytes() == param.tobytes(), name
    assert np.array(losses).tobytes() == np.array(reference_losses).tobytes()


def test_integer_inputs_train_like_their_float64_values():
    # the dropout scaling divides the epoch's inputs in place, which an integer array cannot hold
    inputs = np.array([[3, 1], [-3, -1], [2, 0], [0, 2]])
    targets = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dim=4, dropout_rate=0.5,
                    learning_rate=0.05, epochs=10, batch_size=3, momentum=0.9, seed=3)
    as_ints = train(cfg, ExampleSet(inputs=inputs, targets=targets))
    as_floats = train(cfg, ExampleSet(inputs=inputs.astype(np.float64),
                                      targets=targets.astype(np.float64)))
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(as_ints[0], name).tobytes() == getattr(as_floats[0], name).tobytes(), name
    assert as_ints[1] == as_floats[1]
    # float64 arrays are kept as given, not copied
    ex = ExampleSet(inputs=inputs.astype(np.float64), targets=targets.astype(np.float64))
    assert ex.inputs.dtype == ex.targets.dtype == np.float64
    view = ex.inputs[:2]
    assert ExampleSet(inputs=view, targets=ex.targets[:2]).inputs is view


def test_train_validates_example_shapes():
    ex = toy_examples()
    with pytest.raises(InputError, match="input dim"):
        train(small_config(input_dim=3, output_dim=2), ex)
    with pytest.raises(InputError, match="target dim"):
        train(small_config(input_dim=2, output_dim=5), ex)


# --------------------------------------------------------------- inference

def test_predict_all_matches_forward_and_handles_duplicates():
    cfg = small_config(input_dim=3, output_dim=4, seed=9)
    model = init_model(cfg)
    a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
    preds = predict_all(model, np.stack([a, b, a]))
    assert preds.shape == (3, 4)
    np.testing.assert_allclose(preds.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(preds[0], preds[2])
    np.testing.assert_allclose(preds[1], predictions(model, b), atol=1e-15)


def test_predict_all_empty_word_list():
    cfg = small_config(output_dim=3)
    preds = predict_all(init_model(cfg), np.zeros((0, 4)))
    assert preds.shape == (0, 3)


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    ex = toy_examples()
    cfg = MlpConfig(input_dim=2, output_dim=2, hidden_dim=4, dropout_rate=0.3,
                    learning_rate=0.01, epochs=5, batch_size=2, momentum=0.9, seed=13)
    model, _ = train(cfg, ex)
    p = tmp_path / "model.json"
    save_model(model, p)
    back = load_model(p)
    assert back.config == cfg
    # the trained arrays are views into one parameter vector; each reads back whole
    assert model.w1.base is model.b2.base
    for name in ("w1", "b1", "w2", "b2"):
        trained, loaded = getattr(model, name), getattr(back, name)
        assert loaded.shape == trained.shape
        assert loaded.tobytes() == trained.tobytes()


def test_loaded_checkpoint_predicts_the_trained_models_bits(tmp_path):
    # at input 50 and hidden 16 the hidden x input and input x hidden
    # orientations of the w1 product round differently, on a batch and on a
    # single row; a loaded model gives the trained model's bits only if it
    # stores w1 input-major too
    rng = np.random.default_rng(3)
    targets = rng.random((12, 6))
    ex = ExampleSet(inputs=rng.standard_normal((12, 50)),
                    targets=targets / targets.sum(axis=1, keepdims=True))
    cfg = MlpConfig(input_dim=50, output_dim=6, hidden_dim=16, dropout_rate=0.2,
                    learning_rate=0.05, epochs=3, batch_size=4, momentum=0.9, seed=8)
    model, _ = train(cfg, ex)
    p = tmp_path / "model.json"
    save_model(model, p)
    back = load_model(p)
    assert back.w1.base is back.b2.base and back.w1.T.flags.c_contiguous
    vecs = rng.standard_normal((20, 50))
    assert predict_all(back, vecs).tobytes() == predict_all(model, vecs).tobytes()
    for row in vecs:
        assert predict_all(back, row[None, :]).tobytes() == \
            predict_all(model, row[None, :]).tobytes()


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    cfg = small_config()
    model = init_model(cfg)
    p = tmp_path / "model.json"
    save_model(model, p)
    text = p.read_text(encoding="utf-8").replace('"hidden_dim": 5', '"hidden_dim": 6')
    p.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match="shapes"):
        load_model(p)


def _short_b1(doc):
    doc["b1"].pop()


def _short_b2(doc):
    doc["b2"].pop()


def _ragged_w1(doc):
    doc["w1"][0].pop()


def _huge_int_b1(doc):
    doc["b1"][0] = 10 ** 400


def _bad_dropout(doc):
    doc["config"]["dropout_rate"] = 1.5


@pytest.mark.parametrize("edit,match", [(_short_b1, "shapes .* b1"), (_short_b2, "shapes .* b2"),
                                        (_ragged_w1, "malformed"), (_huge_int_b1, "malformed"),
                                        (_bad_dropout, r"dropout rate must be in \[0, 1\)")],
                         ids=["short-b1", "short-b2", "ragged-w1", "huge-int-b1", "bad-config"])
def test_checkpoint_arrays_checked_against_config(tmp_path, edit, match):
    # a short bias, a ragged matrix, an integer beyond float range or a config
    # its own checks reject names the file
    p = tmp_path / "model.json"
    save_model(init_model(small_config()), p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    edit(doc)
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match=f"model.json: .*{match}"):
        load_model(p)
