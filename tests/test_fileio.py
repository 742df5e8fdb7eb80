"""File writers: floats read back bit for bit, non-finite values are rejected,
JSON bytes equal one `json.dumps` call, and a target is replaced only on success."""

import csv
import io
import json
import math
import os
import re
import stat
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cogmap import neural, pipeline, sr
from cogmap.cli import main
from cogmap.errors import InputError
from cogmap.fileio import (LabeledPoints, Lexicon, _plain, committing, dump_json, load_json,
                           load_labeled_points_csv, save_labeled_points_csv, save_matrix_csv)
from cogmap.neural import MlpConfig, MlpModel, save_model
from cogmap.pipeline import resolve_config, run_pipeline

REPO = Path(__file__).resolve().parents[1]

# smallest subnormal, negative zero, huge, non-terminating, integral, past 2^53,
# and the numpy scalar types the pipeline hands to the writers
EDGES = [5e-324, -0.0, 1e300, 1.0 / 3.0, 2.0, 1e16, np.float64(0.1), np.int64(7)]
NONFINITE = [math.nan, math.inf, -math.inf]


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
    path = tmp_path / "p.csv"
    with pytest.raises(InputError, match=r"points must be an \(n, >= 1\) array"):
        save_labeled_points_csv(path, LabeledPoints(
            Lexicon(["a", "b"], ["x", "y"], ["train", "train"]), np.ones(shape)))
    assert not path.exists()


@pytest.mark.parametrize("shape", [(2,), (2, 1, 1)], ids=["1-d", "3-d"])
def test_matrix_writer_takes_rows_of_numbers(tmp_path, shape):
    # a 3-D array used to be written as the text of nested lists
    path = tmp_path / "m.csv"
    with pytest.raises(InputError, match="expected one row of values"):
        save_matrix_csv(np.ones(shape), path)
    assert not path.exists()


@pytest.mark.parametrize("write", [
    lambda path, values: save_matrix_csv(values, path),
    lambda path, values: save_labeled_points_csv(path, LabeledPoints(
        Lexicon([f"w{i}" for i in range(len(values))], ["x"] * len(values),
                ["train"] * len(values)), values)),
], ids=["matrix", "labeled-points"])
def test_csv_writer_heap_stays_near_one_row(tmp_path, write):
    # converting the whole 1000 x 200 matrix to Python floats first peaks at about 6 MB
    values = np.random.default_rng(0).standard_normal((1000, 200))
    tracemalloc.start()
    try:
        write(tmp_path / "m.csv", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    last = (tmp_path / "m.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert last.endswith(",".join(map(repr, values[-1].tolist())))


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("wrap", [list, np.array])
def test_json_rejects_nonfinite_and_leaves_no_file(tmp_path, bad, wrap):
    path = tmp_path / "doc.json"
    with pytest.raises(InputError):
        dump_json({"values": wrap([1.0, bad])}, path)
    assert not path.exists()


def test_json_rejects_unknown_types_and_leaves_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(InputError, match="set"):
        dump_json({"values": {1.0}}, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", NONFINITE)
def test_csv_writers_reject_nonfinite(tmp_path, bad):
    # the rejected value sits in the second row: the first must not reach a file
    rows = [[1.0, 2.0], [3.0, bad]]
    matrix, points = tmp_path / "m.csv", tmp_path / "p.csv"
    with pytest.raises(InputError, match="non-finite"):
        save_matrix_csv(rows, matrix)
    assert not matrix.exists()
    with pytest.raises(InputError, match="non-finite"):
        save_labeled_points_csv(points, LabeledPoints(
            Lexicon(["a", "b"], ["x", "y"], ["train", "train"]), rows))
    assert not points.exists()


@pytest.mark.parametrize("lex, points, message", [
    (Lexicon(["a"], ["x"], ["train"]), [[1.0], [2.0]], "1 lexicon rows for 2 points"),
    (Lexicon(["a", "b"], ["x", "y"], ["train", "train"]), [1.0, 2.0],
     "points must be an (n, >= 1) array with n >= 1, got shape (2,)"),
    (Lexicon([], [], []), np.zeros((0, 2)),
     "points must be an (n, >= 1) array with n >= 1, got shape (0, 2)"),
    (Lexicon(["a", "b"], ["x", "y"], ["train", "train"]), [[1.0], [math.nan]],
     "non-finite value nan in points"),
], ids=["misaligned", "1-d", "empty", "nan"])
def test_labeled_points_need_one_finite_row_per_lexicon_row(lex, points, message):
    # checked once, when the record is built, so no writer, map or score sees a misfit
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        LabeledPoints(lex, points)


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


def test_labeled_points_writer_rejects_a_lexicon_of_another_length(tmp_path):
    path = tmp_path / "p.csv"
    with pytest.raises(InputError, match="1 lexicon rows for 2 points"):
        save_labeled_points_csv(path, LabeledPoints(Lexicon(["a"], ["x"], ["train"]), [[1.0], [2.0]]))
    assert not path.exists()


def test_labeled_points_writer_needs_one_name_per_component(tmp_path):
    path = tmp_path / "p.csv"
    with pytest.raises(InputError, match="component_names length must match the point dimension"):
        save_labeled_points_csv(path, LabeledPoints(Lexicon(["a"], ["x"], ["train"]), [[1.0, 2.0]]),
                                component_names=["v0"])
    assert not path.exists()


def test_lexicon_columns_must_have_equal_length():
    # a ragged record would let zip drop rows from every writer silently
    with pytest.raises(InputError, match="equal length"):
        Lexicon(["a", "b"], ["x"], ["train", "train"])


@pytest.mark.parametrize("column", ["words", "labels", "splits"])
def test_lexicon_columns_must_be_lists_of_words(column):
    # an int word used to pass here and fail in render_svg with an AttributeError
    columns = {"words": ["a", "b"], "labels": ["x", "y"], "splits": ["train", "train"]}
    with pytest.raises(InputError, match=f"^each entry in {column} must be a word, got 0$"):
        Lexicon(**{**columns, column: [columns[column][0], 0]})
    with pytest.raises(InputError, match=f"^{column} must be a list of words, got 'ab'$"):
        Lexicon(**{**columns, column: "ab"})
    assert Lexicon(**{**columns, column: tuple(columns[column])}) == Lexicon(**columns)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_reader_rejects_nonfinite_naming_the_file(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"values": [1.0, {token}]}}\n', encoding="utf-8")
    with pytest.raises(InputError, match=f"doc.json: non-finite value {token}"):
        load_json(path, dict, "document")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_labeled_points_reader_rejects_nonfinite_naming_the_file(tmp_path, token):
    path = tmp_path / "p.csv"
    path.write_text(f"word,category,split,v0\na,x,train,1.0\nb,y,train,{token}\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match="p.csv: line 3: non-finite component for 'b'$"):
        load_labeled_points_csv(path)


def test_labeled_points_reader_rejects_header_without_components(tmp_path, capsys):
    # no component columns: `gdv` would print nan and `project` draw an all-zero map
    path = tmp_path / "p.csv"
    path.write_text("word,category,split\na,x,train\nb,y,train\n", encoding="utf-8")
    with pytest.raises(InputError, match="p.csv: no component columns"):
        load_labeled_points_csv(path)
    for argv in (["gdv", "--points", path],
                 ["project", "--predictions", path, "--out-csv", tmp_path / "r.csv",
                  "--out-svg", tmp_path / "r.svg"]):
        assert main([str(a) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: no component columns")
    assert sorted(tmp_path.iterdir()) == [path]


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


def test_model_dump_heap_stays_near_one_row(tmp_path):
    # the single-call encoder holds the whole 2000-state document's text (18.7 MB peak)
    model = model_document(2000)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "model.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    doc = {"config": asdict(model.config), "w1": model.w1, "b1": model.b1,
           "w2": model.w2, "b2": model.b2}
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == one_call(doc)


def test_rejected_last_row_leaves_existing_file_and_no_temporary(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("previous\n", encoding="utf-8")
    values = np.ones((50, 4))
    values[-1, -1] = math.nan
    with pytest.raises(InputError, match="not JSON compliant"):
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
