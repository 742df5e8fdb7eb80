"""Transition matrix, truncated successor representation, and the rollout oracle."""

import json
import re

import numpy as np
import pytest

from cogmap.errors import InputError
from cogmap.sr import (SuccessorMatrix, TransitionMatrix, build_transition_matrix, load_sr_json,
                       rollout_occupancy_oracle, save_sr_json, successor_matrix)


def chain_from_gram(gram):
    """Build a transition matrix from vectors realizing an exact Gram matrix."""
    # the Cholesky factor's rows have the prescribed inner products
    chol = np.linalg.cholesky(np.asarray(gram, dtype=np.float64))
    return build_transition_matrix(chol, [f"w{i}" for i in range(len(chol))])


# ------------------------------------------------------------- transition

def test_transition_rows_from_exact_gram():
    # unit vectors with cosines .8/.2/.5; row 0 weights are (1, .8, .2)/2.0
    t = chain_from_gram([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    np.testing.assert_allclose(t.values[0], [0.5, 0.4, 0.1], atol=1e-12)
    np.testing.assert_allclose(t.values.sum(axis=1), 1.0, atol=1e-12)


def test_negative_similarities_clamp_to_zero():
    t = build_transition_matrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                                ["a", "b", "c"])
    # cos(a,b) = -1 clamps to 0: row a = (1, 0, 0)/1
    np.testing.assert_allclose(t.values[0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(t.values[1], [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_vector_whose_cosines_overflow_or_underflow_is_rejected(scale):
    # finite and non-zero, but its squared norm is inf (1e200) or 0 (1e-200)
    vecs = np.array([[1.0, 0.5], [0.5 * scale, scale], [0.2, 1.0]])
    with pytest.raises(InputError, match="vector for 'b' has a norm too large or too small"):
        build_transition_matrix(vecs, ["a", "b", "c"])


def test_transition_constructor_validates_rows():
    bad = np.array([[0.6, 0.3], [0.5, 0.5]])
    with pytest.raises(InputError):
        TransitionMatrix(values=bad, state_words=["a", "b"])
    with pytest.raises(InputError):
        TransitionMatrix(values=np.array([[1.2, -0.2], [0.5, 0.5]]), state_words=["a", "b"])
    # NaN compares false, so the range and row-sum checks let it through
    with pytest.raises(InputError, match="finite"):
        TransitionMatrix(values=np.array([[np.nan, 1.0], [0.5, 0.5]]), state_words=["a", "b"])


def test_matrix_sizes_come_from_the_data():
    # n is read from the state words and the values, so it cannot disagree with them
    assert TransitionMatrix(values=np.eye(3), state_words=list("abc")).n == 3
    with pytest.raises(InputError, match=r"transition matrix must be 2x2, got \(3, 3\)"):
        TransitionMatrix(values=np.eye(3), state_words=["a", "b"])
    assert SuccessorMatrix(gamma=0.5, horizon=1, values=np.eye(4)).n == 4
    for values in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(InputError, match=re.escape(f"must be square, got shape {values.shape}")):
            SuccessorMatrix(gamma=0.5, horizon=1, values=values)


# --------------------------------------------------------------------- SR

def flip_chain():
    return TransitionMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]), state_words=["a", "b"])


def test_flip_chain_closed_form():
    # T alternates states; gamma=.5, horizon=2:
    # M = I + .5 T + .25 I = [[1.25, .5], [.5, 1.25]]
    m = successor_matrix(flip_chain(), 0.5, 2)
    np.testing.assert_array_equal(m.values, [[1.25, 0.5], [0.5, 1.25]])


def test_gamma_zero_is_identity():
    t = chain_from_gram([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    m = successor_matrix(t, 0.0, 5)
    np.testing.assert_array_equal(m.values, np.eye(3))


def test_undiscounted_row_sums():
    t = chain_from_gram([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    m = successor_matrix(t, 1.0, 5)
    np.testing.assert_allclose(m.values.sum(axis=1), 6.0, atol=1e-6)


def test_horizon_recursion():
    # M(gamma, H) - M(gamma, H-1) == gamma^H T^H
    rng = np.random.default_rng(3)
    raw = rng.random((4, 4)) + 1e-3
    values = raw / raw.sum(axis=1, keepdims=True)
    t = TransitionMatrix(values=values, state_words=list("abcd"))
    for gamma in (0.3, 0.7, 1.0):
        m5 = successor_matrix(t, gamma, 5).values
        m4 = successor_matrix(t, gamma, 4).values
        np.testing.assert_allclose(m5 - m4,
                                   gamma ** 5 * np.linalg.matrix_power(values, 5),
                                   atol=1e-9)


def test_successor_matrix_validates_parameters():
    # the closed form and the rollout oracle share one check and its messages;
    # gamma = 10 at horizon 400 would overflow a Python float in its last weight
    t = flip_chain()
    for compute in (successor_matrix,
                    lambda t, gamma, horizon: rollout_occupancy_oracle(t, gamma, horizon,
                                                                       0, 10, 1)):
        for gamma, horizon, message in [(-0.1, 5, "gamma must be in"),
                                        (1.1, 5, "gamma must be in"),
                                        (1.5, 3, "gamma must be in"),
                                        (10.0, 400, "gamma must be in"),
                                        (0.5, -1, "horizon must be non-negative"),
                                        (0.5, -2, "horizon must be non-negative")]:
            with pytest.raises(InputError, match=message):
                compute(t, gamma, horizon)


def test_successor_matrix_checks_gamma_before_taking_powers():
    # the weight 10^400 of the last power would overflow a Python float
    with pytest.raises(InputError, match="gamma must be in"):
        successor_matrix(flip_chain(), 10.0, 400)


# ------------------------------------------------------------------ oracle

def test_oracle_gamma_zero_is_exact_one_hot():
    t = chain_from_gram([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    occ = rollout_occupancy_oracle(t, 0.0, 5, start=1, samples=500, seed=9)
    np.testing.assert_array_equal(occ, [0.0, 1.0, 0.0])


def test_oracle_absorbing_state_is_exact():
    t = TransitionMatrix(values=np.eye(2), state_words=["a", "b"])
    occ = rollout_occupancy_oracle(t, 0.5, 2, start=0, samples=200, seed=1)
    # every rollout stays put: 1 + .5 + .25 = 1.75 exactly
    np.testing.assert_array_equal(occ, [1.75, 0.0])


def test_oracle_flip_chain_is_exact():
    # deterministic chain: every sample follows the same path
    occ = rollout_occupancy_oracle(flip_chain(), 1.0, 3, start=0, samples=50, seed=4)
    np.testing.assert_array_equal(occ, [2.0, 2.0])


def test_oracle_is_seeded():
    t = chain_from_gram([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    a = rollout_occupancy_oracle(t, 0.7, 5, start=0, samples=2000, seed=11)
    b = rollout_occupancy_oracle(t, 0.7, 5, start=0, samples=2000, seed=11)
    c = rollout_occupancy_oracle(t, 0.7, 5, start=0, samples=2000, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- file I/O

def test_sr_json_roundtrip(tmp_path):
    t = chain_from_gram([[1.0, 0.8, 0.2], [0.8, 1.0, 0.5], [0.2, 0.5, 1.0]])
    m = successor_matrix(t, 0.3, 5)
    p = tmp_path / "sr.json"
    save_sr_json(m, t.state_words, p)
    back, words = load_sr_json(p)
    assert words == t.state_words
    assert back.gamma == 0.3 and back.horizon == 5
    np.testing.assert_array_equal(back.values, m.values)


def test_sr_json_is_plain_json(tmp_path):
    t = flip_chain()
    m = successor_matrix(t, 0.5, 2)
    p = tmp_path / "sr.json"
    save_sr_json(m, t.state_words, p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    assert doc["gamma"] == 0.5
    assert doc["horizon"] == 2
    assert doc["state_words"] == ["a", "b"]


def test_sr_json_ragged_values_name_the_file(tmp_path):
    t = flip_chain()
    p = tmp_path / "sr.json"
    save_sr_json(successor_matrix(t, 0.5, 2), t.state_words, p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    doc["values"][1] = doc["values"][1][:1]
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="sr.json: malformed"):
        load_sr_json(p)
