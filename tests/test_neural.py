"""MLP configuration, the batched forward/backward pass, training loop, and checkpoints.

The finite-difference gradient check is acceptance criterion 6.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from cogmap.dataset import ExampleSet
from cogmap.fileio import LabeledPoints, Lexicon
from cogmap.neural import (MlpConfig, MlpModel, _dropout, _forward_backward, _param_count,
                           _views, load_model, loss, predict_all, save_model, train)

from oracles import assert_refused, init_model, labeled, predictions, reference_train


def small_config(**overrides):
    base = dict(input_dim=4, output_dim=3, dropout_rate=0.0,
                learning_rate=0.05, epochs=5, seed=1)
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
    # boundary values that must be accepted, and numpy integers; each refused value is a row
    # of test_rejections.py or of test_pipeline_cli.py's test_resolve_rejects_bad_network_settings
    small_config(dropout_rate=0.0, learning_rate=0.0, seed=0)
    small_config(input_dim=np.int64(4), seed=np.uint32(7))


def test_config_stores_the_plain_number_of_a_numpy_scalar():
    # so a config built from numpy sizes or rates holds the types its fields declare
    cfg = small_config(input_dim=np.int64(4), epochs=np.int8(2), seed=np.uint32(7),
                       learning_rate=np.float32(0.5), dropout_rate=np.float64(0.5))
    assert {name: type(value) for name, value in vars(cfg).items()} == \
        {f.name: f.type for f in fields(MlpConfig)}


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


# ---------------------------------------------------------------- training

def distributions(rng, n, k):
    """`n` random distributions over `k` states."""
    raw = rng.random((n, k))
    return raw / raw.sum(axis=1, keepdims=True)


def short_last_batch():
    # 47 examples in batches of MlpConfig.batch_size (20): every epoch takes two full batches
    # and ends on a short one
    rng = np.random.default_rng(11)
    return (MlpConfig(input_dim=5, output_dim=4, dropout_rate=0.3, learning_rate=0.05,
                      epochs=30, seed=21),
            ExampleSet(inputs=rng.standard_normal((47, 5)), targets=distributions(rng, 47, 4)))


def integer_inputs():
    # the dropout scaling divides the epoch's inputs in place, which an integer array cannot hold
    return (MlpConfig(input_dim=2, output_dim=2, dropout_rate=0.5, learning_rate=0.05,
                      epochs=10, seed=3),
            ExampleSet(inputs=np.array([[3, 1], [-3, -1], [2, 0], [0, 2]]),
                       targets=np.array([[1, 0], [0, 1], [1, 0], [0, 1]])))


TRAINING = {
    # no step moves a parameter, so the model is its seeded init
    "zero-lr-one-epoch": lambda: (MlpConfig(input_dim=2, output_dim=2, dropout_rate=0.5,
                                            learning_rate=0.0, epochs=1, seed=17), toy_examples()),
    "toy-dropout-0": lambda: (MlpConfig(input_dim=2, output_dim=2, dropout_rate=0.0,
                                        learning_rate=0.05, epochs=200, seed=2), toy_examples()),
    "integer-inputs": integer_inputs,
}


def assert_train_meets_the_reference(config, examples):
    # the reference draws its dropout mask per batch, takes fresh gradient arrays every batch
    # and steps each array alone: `train`'s whole-epoch draw, reused gradient buffer and
    # whole-vector step must give the same bits
    model, losses = train(config, examples)
    params, reference_losses = reference_train(config, examples)
    for name, param in params.items():
        assert getattr(model, name).tobytes() == param.tobytes(), name
    assert np.array(losses).tobytes() == np.array(reference_losses).tobytes()
    if config.learning_rate == 0.0:
        assert model.theta.tobytes() == init_model(config).theta.tobytes()


def test_training_matches_the_per_array_reference_bitwise():
    assert_train_meets_the_reference(*short_last_batch())


@pytest.mark.parametrize("make", TRAINING.values(), ids=list(TRAINING))
def test_train_meets_the_per_array_reference_bitwise(make):
    assert_train_meets_the_reference(*make())


# --------------------------------------------------------------- inference

def shipped_width_record(n_train, n_validation, seed):
    """A model at 300-D inputs and the shipped width with `n_train` output states, and a
    record of `n_train` training then `n_validation` validation words of 300-D rows."""
    model = init_model(MlpConfig(input_dim=300, output_dim=n_train, dropout_rate=0.8,
                                 learning_rate=1e-5, epochs=1, seed=seed))
    n = n_train + n_validation
    lex = Lexicon([f"w{i}" for i in range(n)], [f"c{i % 3}" for i in range(n)],
                  ["train"] * n_train + ["validation"] * n_validation)
    return model, LabeledPoints(lex, np.random.default_rng(seed).standard_normal((n, 300)))


def validation_split():
    # at the shipped width a batched product's rounding of one row depends on the rows beside
    # it; predicted one row at a time, a split predicts its rows of the whole record
    model, points = shipped_width_record(30, 15, seed=4)
    return model, points.split("validation")


def permuted(seed):
    model, points = shipped_width_record(27, 0, seed=3)
    order = np.random.default_rng(seed).permutation(27)
    columns = (points.lex.words, points.lex.labels, points.lex.splits)
    return model, LabeledPoints(Lexicon(*([column[i] for i in order] for column in columns)),
                                points.points[order])


def duplicate_rows():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
    model = init_model(small_config(input_dim=3, output_dim=4, seed=9))
    return model, labeled(np.stack([a, b, a]), ["c"] * 3)


RECORDS = {
    "whole": lambda: shipped_width_record(27, 3, seed=9),
    "validation-split": validation_split,
    **{f"permuted-{seed}": lambda seed=seed: permuted(seed) for seed in range(10)},
    "duplicate-rows": duplicate_rows,
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_predict_all_keeps_the_words_and_gives_the_forward_rows(make):
    model, points = make()
    preds = predict_all(model, points)
    assert preds.lex is points.lex
    # the reference: the forward pass called on each row alone
    assert preds.points.tobytes() == \
        np.stack([predictions(model, row) for row in points.points]).tobytes()
    np.testing.assert_allclose(preds.points.sum(axis=1), 1.0, atol=1e-12)


# -------------------------------------------------------------- checkpoint

# at input 50 and the shipped width the hidden x input and input x hidden orientations of the
# one-row w1 product round differently: a model predicts its checkpoint's bits only if every
# way of making one stores w1 input-major
CHECKPOINT_CONFIG = MlpConfig(input_dim=50, output_dim=6, dropout_rate=0.2,
                              learning_rate=0.05, epochs=3, seed=8)


def trained_model():
    rng = np.random.default_rng(3)
    examples = ExampleSet(inputs=rng.standard_normal((12, 50)), targets=distributions(rng, 12, 6))
    return train(CHECKPOINT_CONFIG, examples)[0]


def model_from_arrays():
    rng = np.random.default_rng(5)
    return MlpModel(w1=rng.standard_normal((128, 50)), b1=rng.standard_normal(128),
                    w2=rng.standard_normal((6, 128)), b2=rng.standard_normal(6),
                    config=CHECKPOINT_CONFIG)


def assert_checkpoint_roundtrip(model, path):
    save_model(model, path)
    back = load_model(path)
    assert back.config == model.config
    assert back.theta.tobytes() == model.theta.tobytes()
    for m in (model, back):
        assert all(getattr(m, name).base is m.theta for name in ("w1", "b1", "w2", "b2"))
        assert m.w1.T.flags.c_contiguous
    words = labeled(np.random.default_rng(7).standard_normal((20, 50)), ["c"] * 20)
    assert predict_all(back, words).points.tobytes() == predict_all(model, words).points.tobytes()


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    assert_checkpoint_roundtrip(trained_model(), tmp_path / "model.json")


def test_model_built_from_arrays_predicts_its_checkpoints_bits(tmp_path):
    assert_checkpoint_roundtrip(model_from_arrays(), tmp_path / "model.json")


def _short_b1(doc):
    doc["b1"].pop()


def _short_b2(doc):
    doc["b2"].pop()


def _ragged_w1(doc):
    doc["w1"][0].pop()


def _first_entry(name, value):
    def edit(doc):
        array = doc[name]
        (array[0] if isinstance(array[0], list) else array)[0] = value
    return edit


def _config_value(key, value):
    def edit(doc):
        doc["config"][key] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_short_b1, "parameter shapes do not match the config: b1 is (127,), expected (128,)"),
    (_short_b2, "parameter shapes do not match the config: b2 is (2,), expected (3,)"),
    (_ragged_w1, "malformed w1 (rows of unequal length)"),
    (_first_entry("b1", 10 ** 400), "each entry in b1 must be within float64 range"),
    (_config_value("learning_rate", 10 ** 400), "learning_rate must be within float64 range"),
    (_config_value("dropout_rate", 1.5), "dropout rate must be in [0, 1), got 1.5"),
    (_config_value("output_dim", 3.0), "output_dim must be an integer, got 3.0"),
    (_config_value("seed", 1.5), "seed must be an integer, got 1.5"),
    (_config_value("epochs", 2.5), "epochs must be an integer, got 2.5"),
    (_config_value("learning_rate", True), "learning_rate must be a real number, got True"),
    (_config_value("dropout_rate", False), "dropout_rate must be a real number, got False"),
    (_config_value("learning_rate", "0.1"), "learning_rate must be a real number, got '0.1'"),
    # keys a checkpoint held before they became constants of MlpConfig: it must be retrained
    (_config_value("batch_size", 20),
     "malformed model checkpoint (unknown config key 'batch_size')"),
    (_config_value("momentum", 0.9), "malformed model checkpoint (unknown config key 'momentum')"),
    (_config_value("hidden_dim", 128),
     "malformed model checkpoint (unknown config key 'hidden_dim')"),
    (_first_entry("b2", "0.5"), "each entry in b2 must be a real number, got '0.5'"),
    (_first_entry("w1", True), "each entry in w1 must be a real number, got True"),
    (_first_entry("w2", None), "each entry in w2 must be a real number, got None"),
], ids=["short-b1", "short-b2", "ragged-w1", "huge-int-b1", "learning-rate-401-digits",
        "bad-config", "float-output-dim", "float-seed", "float-epochs", "bool-learning-rate",
        "bool-dropout-rate", "string-learning-rate", "stale-batch-size", "stale-momentum",
        "stale-hidden-dim", "string-b2", "bool-w1", "null-w2"])
def test_checkpoint_arrays_checked_against_config(tmp_path, edit, message):
    # a short bias, a ragged matrix, an integer beyond float range or a config
    # its own checks reject (a non-integer size among them) names the file
    p = tmp_path / "model.json"
    save_model(init_model(small_config()), p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    edit(doc)
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert_refused(lambda: load_model(p), f"{p}: {message}", tmp_path)
