"""File writers: floats read back bit for bit, non-finite values are rejected, JSON bytes
equal one `json.dumps` call, and a target is replaced only on success."""

import csv
import io
import json
import math
import os
import stat
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cogmap import neural, pipeline, sr
from cogmap.dataset import load_embeddings
from cogmap.errors import InputError
from cogmap.fileio import (LabeledPoints, Lexicon, _plain, committing, dump_json, load_json,
                           load_labeled_points_csv, save_labeled_points_csv, save_matrix_csv)
from cogmap.neural import MlpConfig, MlpModel, save_model
from cogmap.pipeline import resolve_config, run_pipeline

from oracles import assert_refused, heap_peak, labeled, save_embeddings

REPO = Path(__file__).resolve().parents[1]

# smallest subnormal, negative zero, huge, non-terminating, integral, past 2^53,
# and the numpy scalar types the pipeline hands to the writers
EDGES = [5e-324, -0.0, 1e300, 1.0 / 3.0, 2.0, 1e16, np.float64(0.1), np.int64(7)]
NONFINITE = [math.nan, math.inf, -math.inf]
TWO_WORDS = Lexicon(["a", "b"], ["x", "y"], ["train", "train"])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_json_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "doc.json"
    dump_json({"list": EDGES, "array": np.array([EDGES, EDGES[::-1]], dtype=np.float64)},
              path)
    back = load_json(path, dict, "document")
    np.testing.assert_array_equal(bits(back["list"]), bits(EDGES))
    assert type(back["list"][-1]) is int
    np.testing.assert_array_equal(bits(back["array"]), bits([EDGES, EDGES[::-1]]))
    assert path.read_text(encoding="utf-8").count("\n") == 1


def test_matrix_csv_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv([EDGES, EDGES[::-1]], path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    np.testing.assert_array_equal(bits(back), bits([EDGES, EDGES[::-1]]))


def test_labeled_points_roundtrip_is_bit_exact(tmp_path):
    # plain names are written bare; a comma, quote or newline gets CSV quoting
    path = tmp_path / "p.csv"
    lex = Lexicon(["a", 'say "hi"', "a\nb"], ["x", "animals, wild", "y"],
                  ["train", "train", "validation"])
    save_labeled_points_csv(path, LabeledPoints(lex, [EDGES, EDGES[::-1], EDGES]))
    assert path.read_text(encoding="utf-8").startswith("word,category,split,v0,")
    assert path.read_text(encoding="utf-8").splitlines()[1].startswith("a,x,train,5e-324,")
    read = load_labeled_points_csv(path)
    back, values = read.lex, read.points
    assert back == lex
    np.testing.assert_array_equal(bits(values), bits([EDGES, EDGES[::-1], EDGES]))
    # with no CR in a name, the bytes are those of the stdlib csv writer
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(["word", "category", "split"] + [f"v{i}" for i in range(len(EDGES))])
    for word, category, split, row in zip(lex.words, lex.labels, lex.splits, values.tolist()):
        writer.writerow([word, category, split, *map(repr, row)])
    assert path.read_text(encoding="utf-8") == reference.getvalue()


def test_labeled_points_quote_a_carriage_return(tmp_path):
    # csv.writer before Python 3.13 leaves a bare CR unquoted, which the reader
    # then takes for the end of a row
    path = tmp_path / "p.csv"
    lex = Lexicon(["a\rb", "c"], ["x\ry", "z"], ["train", "validation"])
    save_labeled_points_csv(path, LabeledPoints(lex, [[1.0, 2.0], [3.0, 4.0]]))
    assert path.read_bytes().split(b"\n")[1] == b'"a\rb","x\ry",train,1.0,2.0'
    read = load_labeled_points_csv(path)
    back, values = read.lex, read.points
    assert back == lex
    np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("shape", [(2,), (2, 0), (2, 1, 1)], ids=["1-d", "no-components", "3-d"])
def test_labeled_points_writer_takes_what_the_reader_reads(tmp_path, shape):
    # the reader needs one row per word and at least one component column
    assert_refused(lambda: save_labeled_points_csv(tmp_path / "p.csv", LabeledPoints(
        TWO_WORDS, np.ones(shape))),
        f"points must be an (n, >= 1) array with n >= 1, got shape {shape}", tmp_path)


@pytest.mark.parametrize("shape", [(2,), (2, 1, 1)], ids=["1-d", "3-d"])
def test_matrix_writer_takes_rows_of_numbers(tmp_path, shape):
    # a 3-D array used to be written as the text of nested lists
    assert_refused(lambda: save_matrix_csv(np.ones(shape), tmp_path / "m.csv"),
                   f"expected one row of values, got shape {shape[1:]}", tmp_path)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("wrap", [list, np.array])
def test_json_rejects_nonfinite_and_leaves_no_file(tmp_path, bad, wrap):
    assert_refused(lambda: dump_json({"values": wrap([1.0, bad])}, tmp_path / "doc.json"),
                   "cannot serialize a non-finite number to JSON", tmp_path)


@pytest.mark.parametrize("bad", NONFINITE)
def test_csv_writers_reject_nonfinite(tmp_path, bad):
    # the rejected value sits in the second row: the first must not reach a file
    rows = [[1.0, 2.0], [3.0, bad]]
    assert_refused(lambda: save_matrix_csv(rows, tmp_path / "m.csv"),
                   f"non-finite value {bad!r}", tmp_path)
    assert_refused(lambda: save_labeled_points_csv(tmp_path / "p.csv", LabeledPoints(
        TWO_WORDS, rows)), f"non-finite value {bad!r} in points", tmp_path)


@pytest.mark.parametrize("lex, points, message", [
    (Lexicon(["a"], ["x"], ["train"]), [[1.0], [2.0]], "1 lexicon rows for 2 points"),
    (TWO_WORDS, [1.0, 2.0], "points must be an (n, >= 1) array with n >= 1, got shape (2,)"),
    (Lexicon([], [], []), np.zeros((0, 2)),
     "points must be an (n, >= 1) array with n >= 1, got shape (0, 2)"),
    (TWO_WORDS, [[1.0], [math.nan]], "non-finite value nan in points"),
], ids=["misaligned", "1-d", "empty", "nan"])
def test_labeled_points_need_one_finite_row_per_lexicon_row(tmp_path, lex, points, message):
    # checked once, when the record is built, so no writer, map or score sees a misfit
    assert_refused(lambda: LabeledPoints(lex, points), message, tmp_path)


def test_labeled_points_split_keeps_file_order():
    lex = Lexicon(["a", "b", "c", "d"], ["x", "y", "x", "y"],
                  ["validation", "train", "validation", "train"])
    points = LabeledPoints(lex, [[0.0], [1.0], [2.0], [3.0]])
    validation = points.split("validation")
    assert validation.lex == Lexicon(["a", "c"], ["x", "x"], ["validation", "validation"])
    assert validation.points.tolist() == [[0.0], [2.0]]
    assert points.split("train").lex.words == ["b", "d"]
    assert points.split("all").lex == lex
    assert points.split("all").points.tolist() == points.points.tolist()
    with pytest.raises(InputError, match="^no points with split 'train'$"):
        points.split("validation").split("train")


@pytest.mark.parametrize("column", ["words", "labels", "splits"])
def test_lexicon_columns_must_be_lists_of_words(tmp_path, column):
    # an int word used to pass here and fail in render_svg with an AttributeError
    columns = {"words": ["a", "b"], "labels": ["x", "y"], "splits": ["train", "train"]}
    assert_refused(lambda: Lexicon(**{**columns, column: [columns[column][0], 0]}),
                   f"each entry in {column} must be a word, got 0", tmp_path)
    assert_refused(lambda: Lexicon(**{**columns, column: "ab"}),
                   f"{column} must be a list of words, got 'ab'", tmp_path)
    assert Lexicon(**{**columns, column: tuple(columns[column])}) == Lexicon(**columns)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_reader_rejects_nonfinite_naming_the_file(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"values": [1.0, {token}]}}\n', encoding="utf-8")
    assert_refused(lambda: load_json(path, dict, "document"),
                   f"{path}: non-finite value {token}", tmp_path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_labeled_points_reader_rejects_nonfinite_naming_the_file(tmp_path, token):
    path = tmp_path / "p.csv"
    path.write_text(f"word,category,split,v0\na,x,train,1.0\nb,y,train,{token}\n",
                    encoding="utf-8")
    assert_refused(lambda: load_labeled_points_csv(path),
                   f"{path}: line 3: non-finite component for 'b'", tmp_path)


def one_call(obj):
    """The text of the single-call encoder that `dump_json` must match byte for byte."""
    return json.dumps(obj, allow_nan=False, default=_plain) + "\n"


def test_pipeline_documents_match_one_dumps_call(tmp_path, monkeypatch):
    # every document `cogmap run` writes: models, SR envelopes, GDV reports, manifest
    expected = {}

    def recording(obj, path):
        expected[Path(path).name] = one_call(obj)
        dump_json(obj, path)

    for module in (neural, sr, pipeline):
        monkeypatch.setattr(module, "dump_json", recording)
    run_pipeline(resolve_config({"embeddings": str(REPO / "data" / "embeddings_300d.txt"),
                                 "lexicon": str(REPO / "data" / "lexicon.csv"),
                                 "output_dir": str(tmp_path), "epochs": "2"}))
    # the SR envelope is written by `cogmap build-sr`, not by `cogmap run`
    values = np.loadtxt(tmp_path / "sr_gamma_1.0.csv", delimiter=",")
    sr.save_sr_json(sr.SuccessorMatrix(gamma=1.0, horizon=5, values=values,
                                       state_words=[f"w{i}" for i in range(len(values))]),
                    tmp_path / "sr_gamma_1.0.json")
    assert {"manifest.json", "model_gamma_1.0.json", "sr_gamma_1.0.json",
            "gdv_gamma_1.0.json"} <= set(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text, name


@pytest.mark.parametrize("obj", [
    {"rows": np.zeros((0, 3))},
    {"cols": np.zeros((3, 0)), "after": 1},
    {"vector": np.array(EDGES[:6]), "scalars": [np.float64(0.5), np.int64(-3), np.bool_(True)]},
    {"matrix": np.array([[5e-324, -0.0, 1e300], [-1e300, 0.1, 2.0]]), "ints": np.eye(2, dtype=np.int64)},
    {1: np.eye(2), 2.5: None, None: np.ones((1, 1)), True: "text \u00e9 \"quoted\""},
    {"nested": {"inner": np.eye(2)}, "empty": {}},
    {},
], ids=["0-rows", "0-cols", "1-d-and-scalars", "edge-values", "non-str-keys", "nested",
        "empty-dict"])
def test_json_bytes_match_one_dumps_call(tmp_path, obj):
    path = tmp_path / "doc.json"
    dump_json(obj, path)
    assert path.read_text(encoding="utf-8") == one_call(obj)


def model_document(states):
    cfg = MlpConfig(input_dim=300, output_dim=states, dropout_rate=0.5,
                    learning_rate=0.001, epochs=1, seed=1)
    rng = np.random.default_rng(0)
    return MlpModel(w1=rng.standard_normal((128, 300)), b1=rng.standard_normal(128),
                    w2=rng.standard_normal((states, 128)), b2=rng.standard_normal(states),
                    config=cfg)


def _csv(write):
    """A CSV writer's row: it writes a 1000 x 200 matrix, whose conversion to Python floats as a
    whole peaks at about 6 MB, and the file's last line ends with the last row's text."""
    def prepare(tmp):
        values = np.random.default_rng(0).standard_normal((1000, 200))
        last = ",".join(map(repr, values[-1].tolist()))
        return (lambda: write(tmp / "m.csv", values),
                lambda _: (tmp / "m.csv").read_text(encoding="utf-8").endswith(last + "\n"))
    return prepare


def _model_json(tmp):
    # the single-call encoder holds the whole 2000-state document's text (18.7 MB peak)
    model = model_document(2000)
    doc = {"config": asdict(model.config), "w1": model.w1, "b1": model.b1,
           "w2": model.w2, "b2": model.b2}
    return (lambda: save_model(model, tmp / "model.json"),
            lambda _: (tmp / "model.json").read_text(encoding="utf-8") == one_call(doc))


def _embeddings_loader(tmp):
    # 4,000 words x 50-d (about 3.9 MB of text); keeping every vector costs
    # about 2.3 MB of heap, keeping the 3 requested ones about 0.4 MB
    rng = np.random.default_rng(3)
    save_embeddings({f"w{i}": rng.standard_normal(50) for i in range(4000)}, tmp / "big.txt")
    return (lambda: load_embeddings(tmp / "big.txt", ["w3999", "w0", "w1234"]),
            lambda vectors: vectors.shape == (3, 50))


# each row prepares its inputs and returns the call to trace and the check of its result
STREAMED = {"matrix-csv": _csv(lambda path, values: save_matrix_csv(values, path)),
            "labeled-points-csv": _csv(lambda path, values: save_labeled_points_csv(
                path, labeled(values, ["x"] * len(values)))),
            "model-json": _model_json, "embeddings-loader": _embeddings_loader}


@pytest.mark.parametrize("prepare", STREAMED.values(), ids=STREAMED)
def test_streaming_heap_peak_stays_under_1_mb(tmp_path, prepare):
    # writers hold one row's text at a time, and the loader keeps only the requested vectors
    call, check = prepare(tmp_path)
    result, peak = heap_peak(call)
    assert peak < 1_000_000, f"heap peak {peak / 1e6:.2f} MB"
    assert check(result)


def test_rejected_last_row_leaves_existing_file_and_no_temporary(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("previous\n", encoding="utf-8")
    values = np.ones((50, 4))
    values[-1, -1] = math.nan
    with pytest.raises(InputError, match="^cannot serialize a non-finite number to JSON$"):
        dump_json({"head": [1.0], "values": values}, path)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "w", encoding="utf-8"):
        pass
    dump_json({"values": np.eye(2)}, tmp_path / "doc.json")
    save_matrix_csv(np.eye(2), tmp_path / "m.csv")
    save_labeled_points_csv(tmp_path / "p.csv",
                            LabeledPoints(Lexicon(["a"], ["x"], ["train"]), [[1.0]]))
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "doc.json", "m.csv", "p.csv")}
    assert set(modes.values()) == {modes["plain"]}, modes


def test_symlinked_target_is_replaced_and_the_link_kept(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("previous\n", encoding="utf-8")
    link.symlink_to(target)
    dump_json({"values": np.eye(2)}, link)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text(encoding="utf-8") == one_call({"values": np.eye(2)})
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_pipe_target_is_written_in_place(tmp_path):
    # like `--out /dev/stdout`: there is no file to replace, so nothing is renamed onto it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        dump_json({"values": [1.5]}, fifo)
        assert os.read(reader, 1024) == b'{"values": [1.5]}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]


def test_unwritable_target_error_names_the_target(tmp_path):
    path = tmp_path / "missing" / "doc.json"
    with pytest.raises(FileNotFoundError) as info:
        dump_json({"values": [1.0]}, path)
    assert info.value.filename == str(path)


# ------------------------------------------------------------- commit rule

def test_commit_moves_every_staged_file_with_the_manifest_last(tmp_path, monkeypatch):
    out_dir = tmp_path / "fresh" / "nested"
    moved, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (moved.append(Path(dst).name),
                                                         replace(src, dst)))
    with committing(out_dir) as staging:
        for name in ("manifest.json", "a.csv", "z.csv"):
            (staging / name).write_text(name, encoding="utf-8")
    assert sorted(moved[:2]) == ["a.csv", "z.csv"] and moved[2:] == ["manifest.json"]
    assert sorted(os.listdir(out_dir)) == ["a.csv", "manifest.json", "z.csv"]
    assert os.listdir(tmp_path) == ["fresh"] and os.listdir(tmp_path / "fresh") == ["nested"]


@pytest.mark.parametrize("error", [KeyboardInterrupt, InputError])
def test_failed_block_creates_no_directory(tmp_path, error):
    with pytest.raises(error):
        with committing(tmp_path / "fresh" / "nested") as staging:
            (staging / "a.csv").write_text("new\n", encoding="utf-8")
            raise error("stop")
    assert os.listdir(tmp_path) == []


def test_staging_failure_names_the_requested_directory(tmp_path):
    # the nearest existing ancestor is a regular file, so no staging directory
    # can be made in it, whatever the permissions
    (tmp_path / "file").write_text("", encoding="utf-8")
    out_dir = tmp_path / "file" / "out"
    with pytest.raises(NotADirectoryError) as info:
        with committing(out_dir):
            pass
    assert info.value.filename == str(out_dir)
    assert os.listdir(tmp_path) == ["file"]


def test_failed_block_leaves_an_existing_tree_as_it_was(tmp_path):
    (tmp_path / "a.csv").write_text("old\n", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        with committing(tmp_path) as staging:
            (staging / "a.csv").write_text("new\n", encoding="utf-8")
            (staging / "b.csv").write_text("new\n", encoding="utf-8")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == ["a.csv"]
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "old\n"


def test_commit_onto_a_directory_fails_before_any_file_moves(tmp_path):
    out_dir = tmp_path / "out"
    (out_dir / "manifest.json").mkdir(parents=True)
    (out_dir / "a.csv").write_text("old\n", encoding="utf-8")
    with pytest.raises(IsADirectoryError) as info:
        with committing(out_dir) as staging:
            for name in ("a.csv", "manifest.json"):
                (staging / name).write_text("new\n", encoding="utf-8")
    assert info.value.filename == str(out_dir / "manifest.json")
    assert sorted(os.listdir(out_dir)) == ["a.csv", "manifest.json"]
    assert (out_dir / "a.csv").read_text(encoding="utf-8") == "old\n"
    assert os.listdir(out_dir / "manifest.json") == [] and os.listdir(tmp_path) == ["out"]


def test_commit_replaces_a_symlink_to_a_directory(tmp_path):
    out_dir = tmp_path / "out"
    (tmp_path / "elsewhere").mkdir()
    out_dir.mkdir()
    (out_dir / "a.csv").symlink_to(tmp_path / "elsewhere")
    with committing(out_dir) as staging:
        (staging / "a.csv").write_text("new\n", encoding="utf-8")
    assert (out_dir / "a.csv").read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path / "elsewhere") == []


def test_failed_commit_removes_the_directories_it_created(tmp_path, monkeypatch):
    replace = os.replace

    def second_move_fails(src, dst):
        if os.listdir(Path(dst).parent):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_move_fails)
    with pytest.raises(OSError, match="disk full"):
        with committing(tmp_path / "fresh" / "nested") as staging:
            for name in ("a.csv", "b.csv"):
                (staging / name).write_text(name, encoding="utf-8")
    assert os.listdir(tmp_path) == []
