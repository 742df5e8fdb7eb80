"""Embedding-file parsing, lexicon validation, and example assembly."""

from pathlib import Path

import numpy as np
import pytest

from cogmap.dataset import (EmbeddingTable, Lexicon, build_examples,
                            load_embeddings, load_lexicon, save_embeddings)
from cogmap.errors import InputError
from cogmap.sr import SuccessorMatrix, build_transition_matrix, successor_matrix

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- embeddings

def test_minimal_embedding_file(tmp_path):
    p = write(tmp_path / "e.txt", "2 3\napple 1 0 0\ncar 0 1 0\n")
    table = load_embeddings(p)
    assert table.dimension == 3
    assert len(table) == 2
    np.testing.assert_array_equal(table["apple"], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(table["car"], [0.0, 1.0, 0.0])


def test_wrong_component_count_reports_line(tmp_path):
    p = write(tmp_path / "e.txt", "1 2\napple 1 0 0\n")
    with pytest.raises(InputError, match="line 2"):
        load_embeddings(p)


def test_zero_vector_rejected(tmp_path):
    p = write(tmp_path / "e.txt", "1 3\napple 0 0 0\n")
    with pytest.raises(InputError, match="zero"):
        load_embeddings(p)


def test_malformed_header(tmp_path):
    p = write(tmp_path / "e.txt", "apple 1 0 0\n")
    with pytest.raises(InputError, match="line 1"):
        load_embeddings(p)


def test_duplicate_word_rejected(tmp_path):
    p = write(tmp_path / "e.txt", "2 2\ndog 1 0\ndog 0 1\n")
    with pytest.raises(InputError, match="duplicate"):
        load_embeddings(p)


def test_nonfinite_component_rejected(tmp_path):
    p = write(tmp_path / "e.txt", "1 2\ndog nan 1\n")
    with pytest.raises(InputError):
        load_embeddings(p)


def test_header_count_mismatch(tmp_path):
    p = write(tmp_path / "e.txt", "3 2\ndog 1 0\ncat 0 1\n")
    with pytest.raises(InputError):
        load_embeddings(p)


def test_missing_word_lookup_is_error(tmp_path):
    p = write(tmp_path / "e.txt", "1 2\ndog 1 0\n")
    table = load_embeddings(p)
    with pytest.raises(InputError, match="ghost"):
        table["ghost"]


def test_trailing_spaces_load_like_clean_file(tmp_path):
    clean = "3 2\napple 1 0.5\ncar -2 1e-3\ndog 0 7\n"
    trailing = "".join(line + " \n" if i else line + "\n"
                       for i, line in enumerate(clean.splitlines()))
    a = load_embeddings(write(tmp_path / "clean.txt", clean))
    b = load_embeddings(write(tmp_path / "trailing.vec", trailing))
    assert b.dimension == a.dimension and b.words == a.words
    for word in a.words:
        np.testing.assert_array_equal(b[word], a[word])


def test_embedding_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    entries = {f"w{i}": rng.standard_normal(8) * 10.0 ** rng.integers(-12, 12)
               for i in range(40)}
    entries["third"] = np.full(8, 1.0 / 3.0)
    entries["edges"] = np.array([5e-324, -0.0, 1e300, 1.0 / 3.0, 2.0, 1e16,
                                 np.float64(0.1), np.int64(7)], dtype=np.float64)
    table = EmbeddingTable(dimension=8, entries=entries)
    p = tmp_path / "round.txt"
    save_embeddings(table, p)
    back = load_embeddings(p)
    assert back.dimension == 8
    for word in entries:
        np.testing.assert_array_equal(back[word].view(np.uint64),
                                      table[word].view(np.uint64))


# ------------------------------------------------------------------- lexicon

def test_shipped_lexicon_shape():
    lex = load_lexicon(DATA_DIR / "lexicon.csv")
    assert lex.n_states == 60
    assert len(lex.validation) == 30
    assert lex.categories == ["animals", "vehicles", "furniture"]
    for cat in lex.categories:
        assert lex.train_categories.count(cat) == 20
        assert lex.validation_categories.count(cat) == 10


def test_single_record_lexicon(tmp_path):
    p = write(tmp_path / "l.csv", "word,category,split\ndog,animal,train\n")
    lex = load_lexicon(p)
    assert lex.n_states == 1
    assert lex.training == [("dog", "animal")]
    assert lex.validation == []


def test_duplicate_lexicon_word(tmp_path):
    p = write(tmp_path / "l.csv",
              "word,category,split\ndog,animal,train\ndog,animal,validation\n")
    with pytest.raises(InputError, match="duplicate"):
        load_lexicon(p)


def test_unknown_split_token(tmp_path):
    p = write(tmp_path / "l.csv", "word,category,split\ndog,animal,test\n")
    with pytest.raises(InputError, match="split"):
        load_lexicon(p)


def test_empty_category(tmp_path):
    p = write(tmp_path / "l.csv", "word,category,split\ndog,,train\n")
    with pytest.raises(InputError):
        load_lexicon(p)


def test_lexicon_header_required(tmp_path):
    p = write(tmp_path / "l.csv", "dog,animal,train\n")
    with pytest.raises(InputError):
        load_lexicon(p)


# ---------------------------------------------------------------- examples

def toy_table_and_lexicon():
    entries = {
        "dog": np.array([1.0, 0.1, 0.0]),
        "cat": np.array([0.9, 0.2, 0.0]),
        "car": np.array([0.0, 0.1, 1.0]),
        "pup": np.array([1.0, 0.05, 0.05]),  # validation word: never an example
    }
    table = EmbeddingTable(dimension=3, entries=entries)
    lex = Lexicon(training=[("dog", "animal"), ("cat", "animal"), ("car", "vehicle")],
                  validation=[("pup", "animal")],
                  categories=["animal", "vehicle"])
    return table, lex


def test_train_targets_are_distributions():
    table, lex = toy_table_and_lexicon()
    t = build_transition_matrix(table, lex)
    sr = successor_matrix(t, 0.7, 3)
    ex = build_examples(table, lex, sr)
    assert len(ex) == 3
    assert ex.words == ["dog", "cat", "car"]
    assert ex.labels == ["animal", "animal", "vehicle"]
    np.testing.assert_allclose(ex.targets.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(ex.inputs[0], table["dog"])


def test_identity_sr_gives_one_hot_targets():
    table, lex = toy_table_and_lexicon()
    t = build_transition_matrix(table, lex)
    sr = successor_matrix(t, 0.0, 5)
    ex = build_examples(table, lex, sr)
    np.testing.assert_array_equal(ex.targets, np.eye(3))


def test_hand_built_sr_rows_become_targets():
    # two-state chain by hand: T = [[.2,.8],[.8,.2]], gamma=1, horizon=1
    # M = I + T = [[1.2,.8],[.8,1.2]]; rows normalize to (.6,.4)/(.4,.6)
    entries = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    table = EmbeddingTable(dimension=2, entries=entries)
    lex = Lexicon(training=[("a", "x"), ("b", "x")], validation=[], categories=["x"])
    sr = SuccessorMatrix(n=2, gamma=1.0, horizon=1,
                         values=np.array([[1.2, 0.8], [0.8, 1.2]]))
    ex = build_examples(table, lex, sr)
    np.testing.assert_allclose(ex.targets, [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)


def test_missing_embedding_reported_by_word():
    table, lex = toy_table_and_lexicon()
    t = build_transition_matrix(table, lex)
    sr = successor_matrix(t, 0.7, 3)
    lex2 = Lexicon(training=lex.training[:2] + [("yeti", "vehicle")],
                   validation=lex.validation, categories=lex.categories)
    with pytest.raises(InputError, match="yeti"):
        build_examples(table, lex2, sr)
