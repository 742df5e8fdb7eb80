"""Controls for the pipeline's separability scores on the shipped lexicon.

Negative control: structureless Gaussian vectors in place of the shipped embeddings. With
no category structure to find, the transition matrix has no eigengap, and neither the SR
targets nor the fitted network's predictions may score a separation. Positive control: the
shipped vectors, fitted the same way, must score one at the broad scale.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cogmap.dataset import build_examples
from cogmap.fileio import LabeledPoints
from cogmap.metrics import gdv
from cogmap.pipeline import GDV_SPLITS, PipelineConfig, fit_scale, load_inputs
from cogmap.sr import build_transition_matrix, successor_matrix

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# the fitting regime: a network that fits its targets, so its maps say what the targets hold
FITTING = PipelineConfig(embeddings=str(DATA_DIR / "embeddings_300d.txt"),
                         lexicon=str(DATA_DIR / "lexicon.csv"),
                         learning_rate=0.05, dropout_rate=0.2, epochs=300)


def scores(inputs):
    """T's second eigenvalue, then per γ the target GDV and the prediction-space GDVs of every
    split, in the fitting regime, with scale i fitted under seed `seed + i` as `run` fits it."""
    states = inputs.split("train")
    transition = build_transition_matrix(states)
    second = np.sort(np.linalg.eigvals(transition.values).real)[-2]
    per_gamma = {}
    for i, gamma in enumerate(FITTING.gammas):
        sr = successor_matrix(transition, gamma, FITTING.horizon)
        targets = LabeledPoints(states.lex, build_examples(states, sr).targets)
        fit = fit_scale(inputs, sr, replace(FITTING, seed=FITTING.seed + i))
        per_gamma[gamma] = {"targets": gdv(targets)["gdv"],
                            **{split: fit.entry["gdv_prediction_space"][split]
                               for split in GDV_SPLITS}}
    return second, per_gamma


def shown(second, per_gamma):
    return (f"second eigenvalue of T {second:.3f}; GDVs "
            + "; ".join(f"gamma={gamma}: " + ", ".join(f"{name} {value:+.4f}"
                                                       for name, value in values.items())
                        for gamma, values in per_gamma.items()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_structureless_vectors_score_no_separation(seed):
    shipped = load_inputs(FITTING)
    noise = np.random.default_rng(seed).standard_normal(shipped.points.shape)
    second, per_gamma = scores(LabeledPoints(shipped.lex, noise))
    print(f"seed {seed}: {shown(second, per_gamma)}")
    assert second < 0.9  # no eigengap: the shipped vectors' is 0.970, then 0.0125
    for gamma, values in per_gamma.items():
        for name, value in values.items():
            assert abs(value) < 0.02, (gamma, name, value)


def test_shipped_vectors_score_a_broad_scale_separation():
    second, per_gamma = scores(load_inputs(FITTING))
    print(f"shipped: {shown(second, per_gamma)}")
    assert per_gamma[1.0]["all"] < -0.3
