"""Metamorphic relations of one scale's fit: what reordering, rescaling or renaming the words,
or extra words in the vector file, must and must not change.

The tests call `build_transition_matrix`, `successor_matrix`, `fit_scale` or `classical_mds`
directly on a small dataset held in memory, so no tree is written; only the vector-file test writes its inputs, to a
temporary directory.
"""

import builtins
from dataclasses import replace

import numpy as np
import pytest

from cogmap.dataset import build_examples
from cogmap.fileio import LabeledPoints, Lexicon
from cogmap.pipeline import GDV_SPLITS, PipelineConfig, fit_scale, load_inputs, resolve_config
from cogmap.projection import classical_mds
from cogmap.sr import build_transition_matrix, successor_matrix

from oracles import save_embeddings

CONFIG = PipelineConfig(gammas=[1.0, 0.3], dropout_rate=0.2, learning_rate=0.05, epochs=4,
                        seed=11)


def words_in_three_categories(n_train, n_validation, dim=10, seed=5):
    """`n_train` training then `n_validation` validation words per category, near one axis each."""
    rng = np.random.default_rng(seed)
    words, labels, splits, rows = [], [], [], []
    for split, count in (("train", n_train), ("validation", n_validation)):
        for c, category in enumerate(("reds", "greens", "blues")):
            for i in range(count):
                words.append(f"{category}_{split}_{i}")
                labels.append(category)
                splits.append(split)
                rows.append(np.eye(dim)[2 * c] + 0.4 * rng.standard_normal(dim))
    return LabeledPoints(Lexicon(words, labels, splits), np.array(rows))


def reordered(points, order):
    """The record with its rows taken in `order`."""
    columns = (points.lex.words, points.lex.labels, points.lex.splits)
    return LabeledPoints(Lexicon(*([column[i] for i in order] for column in columns)),
                         points.points[order])


def fitted(inputs, gamma):
    transition = build_transition_matrix(inputs.split("train"))
    sr = successor_matrix(transition, gamma, CONFIG.horizon)
    return transition, sr, fit_scale(inputs, sr, CONFIG)


@pytest.mark.parametrize("gamma", CONFIG.gammas)
def test_permuting_the_training_states_permutes_t_the_sr_and_the_targets(gamma):
    inputs = words_in_three_categories(6, 3)
    n_train, n = len(inputs.split("train").points), len(inputs.points)
    perm = np.random.default_rng(1).permutation(n_train)
    moved = reordered(inputs, list(perm) + list(range(n_train, n)))
    (t, sr, fit), (t_moved, sr_moved, fit_moved) = fitted(inputs, gamma), fitted(moved, gamma)
    assert sr_moved.state_words == [sr.state_words[i] for i in perm]
    targets, targets_moved = (build_examples(points.split("train"), record).targets
                              for points, record in ((inputs, sr), (moved, sr_moved)))
    for before, after in ((t.values, t_moved.values), (sr.values, sr_moved.values),
                          (targets, targets_moved)):
        np.testing.assert_allclose(after, before[np.ix_(perm, perm)], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("gamma", CONFIG.gammas)
def test_permuting_the_validation_rows_moves_only_their_predictions(gamma):
    inputs = words_in_three_categories(6, 3)
    n_train, n = len(inputs.split("train").points), len(inputs.points)
    order = list(range(n_train)) + list(n_train + np.random.default_rng(2).permutation(n - n_train))
    fit, fit_moved = fitted(inputs, gamma)[2], fitted(reordered(inputs, order), gamma)[2]
    assert fit_moved.model.theta.tobytes() == fit.model.theta.tobytes()
    assert fit_moved.entry["loss_per_epoch"] == fit.entry["loss_per_epoch"]
    assert fit_moved.predictions.lex == reordered(fit.predictions, order).lex
    assert fit_moved.predictions.points.tobytes() == fit.predictions.points[order].tobytes()
    for space in ("gdv_prediction_space", "gdv_projection_2d"):
        for split in GDV_SPLITS:
            assert abs(fit_moved.entry[space][split] - fit.entry[space][split]) <= 1e-12, \
                (space, split)


@pytest.mark.parametrize("seed", range(5))
def test_permuting_a_records_rows_permutes_its_map(seed):
    predictions = fitted(words_in_three_categories(6, 3), 1.0)[2].predictions
    order = list(np.random.default_rng(seed).permutation(len(predictions.points)))
    moved = reordered(predictions, order)
    coords, stress = classical_mds(predictions)
    coords_moved, stress_moved = classical_mds(moved)
    assert coords.lex is predictions.lex and coords_moved.lex is moved.lex
    scale = np.abs(coords.points).max()
    np.testing.assert_allclose(coords_moved.points, coords.points[order], rtol=0.0,
                               atol=1e-12 * scale)
    assert abs(stress_moved - stress) <= 1e-12


def test_fit_scale_creates_no_file_and_no_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = words_in_three_categories(4, 2)
    sr = successor_matrix(build_transition_matrix(inputs.split("train")), 0.3, CONFIG.horizon)
    opened, real_open = [], builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((file, mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    fit = fit_scale(inputs, sr, CONFIG)
    monkeypatch.setattr(builtins, "open", real_open)
    assert opened == [] and list(tmp_path.iterdir()) == []
    assert fit.predictions.points.shape == (len(inputs.points), sr.n)


@pytest.mark.parametrize("factor", [3.7, 1e-3])
def test_rescaling_every_embedding_leaves_t(factor):
    states = words_in_three_categories(6, 3).split("train")
    t = build_transition_matrix(states)
    scaled = build_transition_matrix(LabeledPoints(states.lex, factor * states.points))
    assert scaled.state_words == t.state_words
    np.testing.assert_allclose(scaled.values, t.values, rtol=0.0, atol=1e-15)


def test_extra_words_in_the_vector_file_change_no_loaded_row(tmp_path):
    inputs = words_in_three_categories(4, 2)
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text("word,category,split\n" + "".join(
        f"{w},{c},{s}\n" for w, c, s in zip(inputs.lex.words, inputs.lex.labels, inputs.lex.splits)),
        encoding="utf-8")
    plain = dict(zip(inputs.lex.words, inputs.points))
    rng = np.random.default_rng(3)
    extra = {f"extra_{i}": rng.standard_normal(inputs.points.shape[1]) for i in range(len(plain))}
    mixed = dict(item for pair in zip(extra.items(), plain.items()) for item in pair)
    loaded = []
    for name, entries in (("plain.txt", plain), ("mixed.txt", mixed)):
        save_embeddings(entries, tmp_path / name)
        loaded.append(load_inputs(resolve_config({"embeddings": tmp_path / name,
                                                  "lexicon": lexicon})))
    for record in loaded:
        assert record.lex == inputs.lex
        assert record.points.tobytes() == inputs.points.tobytes()


@pytest.mark.parametrize("gamma", CONFIG.gammas)
def test_renaming_every_word_changes_only_the_words(gamma):
    inputs = words_in_three_categories(6, 3)
    # descending names, so a step that sorted or keyed anything by word would move its rows
    names = [f"z{len(inputs.lex.words) - i:03d}" for i in range(len(inputs.lex.words))]
    renamed = LabeledPoints(replace(inputs.lex, words=names), inputs.points)
    (t, sr, fit), (t_renamed, sr_renamed, fit_renamed) = fitted(inputs, gamma), fitted(renamed, gamma)
    assert sr_renamed.state_words == t_renamed.state_words == names[:sr.n]
    assert t_renamed.values.tobytes() == t.values.tobytes()
    assert sr_renamed.values.tobytes() == sr.values.tobytes()
    assert fit_renamed.model.theta.tobytes() == fit.model.theta.tobytes()
    for record in ("predictions", "coordinates"):
        before, after = getattr(fit, record), getattr(fit_renamed, record)
        assert after.lex == replace(before.lex, words=names)
        assert after.points.tobytes() == before.points.tobytes()
    assert fit_renamed.entry == fit.entry
    assert fit_renamed.gdv_doc == fit.gdv_doc
