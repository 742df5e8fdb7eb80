"""Embedding-file parsing, lexicon validation, and example assembly."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cogmap.dataset import (Lexicon, build_examples, load_embeddings, load_lexicon,
                            save_embeddings)
from cogmap.errors import InputError
from cogmap.pipeline import load_inputs, resolve_config
from cogmap.sr import SuccessorMatrix, build_transition_matrix, successor_matrix

REPO = Path(__file__).resolve().parents[1]
DATA_DIR = REPO / "data"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- embeddings

def test_minimal_embedding_file(tmp_path):
    p = write(tmp_path / "e.txt", "2 3\napple 1 0 0\ncar 0 1 0\n")
    vectors = load_embeddings(p, ["apple", "car"])
    assert vectors.dtype == np.float64
    np.testing.assert_array_equal(vectors, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_rows_follow_requested_order_not_file_order(tmp_path):
    p = write(tmp_path / "e.txt", "4 2\na 1 0\nb 2 0\nc 3 0\nd 4 0\n")
    np.testing.assert_array_equal(load_embeddings(p, ["c", "a", "d"]),
                                  [[3.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
    assert load_embeddings(p, []).shape == (0, 2)


def test_wrong_component_count_reports_line(tmp_path):
    p = write(tmp_path / "e.txt", "1 2\napple 1 0 0\n")
    with pytest.raises(InputError, match="line 2"):
        load_embeddings(p, ["apple"])


def test_zero_vector_rejected(tmp_path):
    p = write(tmp_path / "e.txt", "1 3\napple 0 0 0\n")
    with pytest.raises(InputError, match="zero"):
        load_embeddings(p, ["apple"])


def test_malformed_header(tmp_path):
    p = write(tmp_path / "e.txt", "apple 1 0 0\n")
    with pytest.raises(InputError, match="line 1"):
        load_embeddings(p, ["apple"])


def test_duplicate_word_rejected(tmp_path):
    p = write(tmp_path / "e.txt", "2 2\ndog 1 0\ndog 0 1\n")
    with pytest.raises(InputError, match="duplicate"):
        load_embeddings(p, ["dog"])


def test_nonfinite_component_rejected(tmp_path):
    p = write(tmp_path / "e.txt", "1 2\ndog nan 1\n")
    with pytest.raises(InputError):
        load_embeddings(p, ["dog"])


def test_header_count_mismatch(tmp_path):
    p = write(tmp_path / "e.txt", "3 2\ndog 1 0\ncat 0 1\n")
    with pytest.raises(InputError):
        load_embeddings(p, ["dog", "cat"])


@pytest.mark.parametrize("line,problem", [
    ("odd 1 0 0", "expected 2 components for 'odd', found 3"),
    ("odd 1 x", "non-numeric component for 'odd'"),
    ("odd inf 1", "non-finite component for 'odd'"),
    ("odd 0 0", "zero vector for 'odd'"),
    ("dog 0 1", "duplicate word 'dog'"),
], ids=["components", "non-numeric", "non-finite", "zero", "duplicate"])
def test_malformed_line_of_unrequested_word_is_rejected(tmp_path, line, problem):
    # the bad line is line 3; only dog and cat are requested
    p = write(tmp_path / "e.txt", f"3 2\ndog 1 0\n{line}\ncat 0 1\n")
    with pytest.raises(InputError, match=f"line 3: {problem}"):
        load_embeddings(p, ["dog", "cat"])


def test_missing_word_lookup_is_error(tmp_path):
    p = write(tmp_path / "e.txt", "1 2\ndog 1 0\n")
    with pytest.raises(InputError, match="^lexicon word 'ghost' missing from embedding table$"):
        load_embeddings(p, ["dog", "ghost"])


def test_trailing_spaces_load_like_clean_file(tmp_path):
    clean = "3 2\napple 1 0.5\ncar -2 1e-3\ndog 0 7\n"
    trailing = "".join(line + " \n" if i else line + "\n"
                       for i, line in enumerate(clean.splitlines()))
    words = ["apple", "car", "dog"]
    a = load_embeddings(write(tmp_path / "clean.txt", clean), words)
    b = load_embeddings(write(tmp_path / "trailing.vec", trailing), words)
    np.testing.assert_array_equal(b, a)


def test_embedding_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    entries = {f"w{i}": rng.standard_normal(8) * 10.0 ** rng.integers(-12, 12)
               for i in range(40)}
    entries["third"] = np.full(8, 1.0 / 3.0)
    entries["edges"] = np.array([5e-324, -0.0, 1e300, 1.0 / 3.0, 2.0, 1e16,
                                 np.float64(0.1), np.int64(7)], dtype=np.float64)
    p = tmp_path / "round.txt"
    save_embeddings(entries, p)
    back = load_embeddings(p, list(entries))
    assert back.shape == (len(entries), 8)
    np.testing.assert_array_equal(back.view(np.uint64),
                                  np.stack(list(entries.values())).view(np.uint64))


def test_loader_memory_grows_with_requested_words_not_file(tmp_path):
    # 4,000 words x 50-d (about 3.9 MB of text); keeping every vector costs
    # about 2.3 MB of heap, keeping the 3 requested ones about 0.4 MB
    rng = np.random.default_rng(3)
    p = tmp_path / "big.txt"
    save_embeddings({f"w{i}": rng.standard_normal(50) for i in range(4000)}, p)
    tracemalloc.start()
    try:
        vectors = load_embeddings(p, ["w3999", "w0", "w1234"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vectors.shape == (3, 50)
    assert peak < 1.0e6, f"heap peak {peak / 1e6:.2f} MB"


def test_shipped_data_regenerates_byte_for_byte(tmp_path):
    subprocess.run([sys.executable, str(REPO / "scripts" / "make_word_vectors.py"),
                    "--out-dir", str(tmp_path)], check=True, capture_output=True)
    for name in ("embeddings_300d.txt", "lexicon.csv"):
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name


# ------------------------------------------------------------------- lexicon

def test_shipped_lexicon_shape():
    lex = load_lexicon(DATA_DIR / "lexicon.csv")
    assert lex.n_states == 60
    assert lex.splits == ["train"] * 60 + ["validation"] * 30
    assert list(dict.fromkeys(lex.labels)) == ["animals", "vehicles", "furniture"]
    for cat in ("animals", "vehicles", "furniture"):
        assert lex.labels[:60].count(cat) == 20
        assert lex.labels[60:].count(cat) == 10


def test_single_record_lexicon(tmp_path):
    p = write(tmp_path / "l.csv", "word,category,split\ndog,animal,train\n")
    lex = load_lexicon(p)
    assert lex.n_states == 1
    assert (lex.words, lex.labels, lex.splits) == (["dog"], ["animal"], ["train"])


def test_lexicon_rows_put_training_first(tmp_path):
    # a validation word listed before training rows still follows every training row
    p = write(tmp_path / "l.csv", "word,category,split\ndog,animal,train\n"
              "bus,vehicle,validation\nchair,furniture,train\ncar,vehicle,train\n"
              "pup,animal,validation\n")
    lex = load_lexicon(p)
    assert lex.n_states == 3
    assert lex.words == ["dog", "chair", "car", "bus", "pup"]
    assert lex.labels == ["animal", "furniture", "vehicle", "vehicle", "animal"]
    assert lex.splits == ["train"] * 3 + ["validation"] * 2


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


def test_lexicon_takes_exactly_the_three_key_columns(tmp_path):
    # a labeled-points header is not a lexicon header, though its rows pass the row checks
    p = write(tmp_path / "l.csv", "word,category,split,v0\ndog,animal,train,1.0\n")
    with pytest.raises(InputError, match="l.csv: line 1: expected header `word,category,split`"):
        load_lexicon(p)


def test_empty_lexicon_rejected(tmp_path):
    p = write(tmp_path / "l.csv", "word,category,split\n")
    with pytest.raises(InputError, match="l.csv: no data rows"):
        load_lexicon(p)


# ---------------------------------------------------------------- examples

def toy_vectors_and_lexicon():
    """Rows in lexicon order: three training words, then one validation word."""
    vectors = np.array([[1.0, 0.1, 0.0],     # dog
                        [0.9, 0.2, 0.0],     # cat
                        [0.0, 0.1, 1.0],     # car
                        [1.0, 0.05, 0.05]])  # pup, a validation word: never an example
    lex = Lexicon(words=["dog", "cat", "car", "pup"],
                  labels=["animal", "animal", "vehicle", "animal"],
                  splits=["train", "train", "train", "validation"])
    return vectors, lex


def test_train_targets_are_distributions():
    vectors, lex = toy_vectors_and_lexicon()
    t = build_transition_matrix(vectors[:3], lex.words[:3])
    sr = successor_matrix(t, 0.7, 3)
    ex = build_examples(vectors[:3], sr)
    assert len(ex) == 3
    np.testing.assert_allclose(ex.targets.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(ex.inputs, vectors[:3])


def test_identity_sr_gives_one_hot_targets():
    vectors, lex = toy_vectors_and_lexicon()
    t = build_transition_matrix(vectors[:3], lex.words[:3])
    sr = successor_matrix(t, 0.0, 5)
    ex = build_examples(vectors[:3], sr)
    np.testing.assert_array_equal(ex.targets, np.eye(3))


def test_hand_built_sr_rows_become_targets():
    # two-state chain by hand: T = [[.2,.8],[.8,.2]], gamma=1, horizon=1
    # M = I + T = [[1.2,.8],[.8,1.2]]; rows normalize to (.6,.4)/(.4,.6)
    sr = SuccessorMatrix(gamma=1.0, horizon=1, values=np.array([[1.2, 0.8], [0.8, 1.2]]))
    ex = build_examples(np.eye(2), sr)
    np.testing.assert_allclose(ex.targets, [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)


def test_examples_must_match_the_successor_matrix():
    vectors, lex = toy_vectors_and_lexicon()
    sr = successor_matrix(build_transition_matrix(vectors[:3], lex.words[:3]), 0.7, 3)
    with pytest.raises(InputError, match=r"successor matrix is \(3, 3\), lexicon has 4"):
        build_examples(vectors, sr)


def test_missing_embedding_reported_by_word(tmp_path):
    # the load stage names the first lexicon word that the file lacks
    vectors, lex = toy_vectors_and_lexicon()
    emb = tmp_path / "e.txt"
    save_embeddings(dict(zip(lex.words, vectors)), emb)
    lexicon = write(tmp_path / "l.csv", "word,category,split\ndog,animal,train\n"
                    "yeti,vehicle,train\npup,animal,validation\nnessie,animal,validation\n")
    config = resolve_config({"embeddings": str(emb), "lexicon": str(lexicon)})
    with pytest.raises(InputError, match="^lexicon word 'yeti' missing from embedding table$"):
        load_inputs(config)
