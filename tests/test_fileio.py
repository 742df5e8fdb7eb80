"""File writers: floats read back bit for bit, non-finite values are rejected,
JSON bytes equal one `json.dumps` call, and a target is replaced only on success."""

import json
import math
import os
import stat
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cogmap import neural, pipeline, sr
from cogmap.cli import main
from cogmap.errors import InputError
from cogmap.fileio import (Lexicon, _plain, dump_json, load_json, load_labeled_points_csv,
                           save_labeled_points_csv, save_matrix_csv)
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
    back = load_json(path)
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
    save_labeled_points_csv(path, lex, [EDGES, EDGES[::-1], EDGES])
    assert path.read_text(encoding="utf-8").startswith("word,category,split,v0,")
    assert path.read_text(encoding="utf-8").splitlines()[1].startswith("a,x,train,5e-324,")
    back, values = load_labeled_points_csv(path)
    assert back == lex
    np.testing.assert_array_equal(bits(values), bits([EDGES, EDGES[::-1], EDGES]))


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
        save_labeled_points_csv(points, Lexicon(["a", "b"], ["x", "y"], ["train", "train"]), rows)
    assert not points.exists()


def test_labeled_points_writer_rejects_a_lexicon_of_another_length(tmp_path):
    path = tmp_path / "p.csv"
    with pytest.raises(InputError, match="1 lexicon rows for 2 points"):
        save_labeled_points_csv(path, Lexicon(["a"], ["x"], ["train"]), [[1.0], [2.0]])
    assert not path.exists()


def test_lexicon_columns_must_have_equal_length():
    # a ragged record would let zip drop rows from every writer silently
    with pytest.raises(InputError, match="equal length"):
        Lexicon(["a", "b"], ["x"], ["train", "train"])


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_reader_rejects_nonfinite_naming_the_file(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"values": [1.0, {token}]}}\n', encoding="utf-8")
    with pytest.raises(InputError, match=f"doc.json: non-finite value {token}"):
        load_json(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_labeled_points_reader_rejects_nonfinite_naming_the_file(tmp_path, token):
    path = tmp_path / "p.csv"
    path.write_text(f"word,category,split,v0\na,x,train,1.0\nb,y,train,{token}\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match="p.csv: non-finite value"):
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
    sr.save_sr_json(sr.SuccessorMatrix(gamma=1.0, horizon=5, values=values),
                    [f"w{i}" for i in range(len(values))], tmp_path / "sr_gamma_1.0.json")
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
    cfg = MlpConfig(input_dim=300, output_dim=states, hidden_dim=128, dropout_rate=0.5,
                    learning_rate=0.001, epochs=1, batch_size=8, momentum=0.9, seed=1)
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
    save_labeled_points_csv(tmp_path / "p.csv", Lexicon(["a"], ["x"], ["train"]), [[1.0]])
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
