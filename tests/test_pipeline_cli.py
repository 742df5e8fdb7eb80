"""Config resolution, pipeline orchestration, CLI subcommands, and the SVG map."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogmap.cli import build_parser, main
from cogmap.dataset import load_lexicon, save_embeddings
from cogmap.errors import InputError
from cogmap.fileio import Lexicon, load_labeled_points_csv
from cogmap.pipeline import (CONFIG_FIELDS, config_hash, parse_config_file,
                             resolve_config, run_pipeline)
from cogmap.sr import load_sr_json, save_sr_json
from cogmap.svg import render_svg

REPO = Path(__file__).resolve().parents[1]
DATA_DIR = REPO / "data"

CATEGORIES = ["reds", "greens", "blues"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small separable dataset: 9 training + 6 validation words in 8-D."""
    root = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(42)
    entries = {}
    lex_lines = ["word,category,split"]
    for c, cat in enumerate(CATEGORIES):
        axis = np.zeros(8)
        axis[2 * c] = 1.0
        for i in range(5):
            vec = axis + 0.12 * rng.standard_normal(8)
            entries[f"{cat[0]}{i}"] = 3.0 * vec / np.linalg.norm(vec)
    for cat in CATEGORIES:
        for i in range(3):
            lex_lines.append(f"{cat[0]}{i},{cat},train")
    for cat in CATEGORIES:
        for i in (3, 4):
            lex_lines.append(f"{cat[0]}{i},{cat},validation")

    emb = root / "embeddings.txt"
    save_embeddings(entries, emb)
    lexicon = root / "lexicon.csv"
    lexicon.write_text("\n".join(lex_lines) + "\n", encoding="utf-8")
    cfg = root / "tiny.cfg"
    cfg.write_text(
        f"embeddings = {emb}\n"
        f"lexicon = {lexicon}\n"
        "output_dir = out\n"
        "gammas = 1.0,0.3\n"
        "epochs = 3\n"
        "hidden_dim = 16\n"
        "batch_size = 4\n"
        "learning_rate = 0.001\n"
        "dropout_rate = 0.5\n"
        "seed = 7\n",
        encoding="utf-8")
    return {"root": root, "embeddings": emb, "entries": entries, "lexicon": lexicon,
            "cfg": cfg}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def svg_payload(path):
    return [line for line in Path(path).read_text(encoding="utf-8").splitlines()
            if not line.startswith("<!-- generated")]


def masked_manifest(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    doc["created_utc"] = "MASKED"
    return doc


# ----------------------------------------------------------- configuration

def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\n\nseed = 9\nepochs=12  # trailing comment\n",
                 encoding="utf-8")
    assert parse_config_file(p) == {"seed": "9", "epochs": "12"}


def test_config_file_unknown_key_reports_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("seed = 9\nlr = 3\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 2"):
        parse_config_file(p)


def test_config_file_requires_key_value(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("just-a-token\n", encoding="utf-8")
    with pytest.raises(InputError, match="key=value"):
        parse_config_file(p)


def test_resolve_defaults():
    config = resolve_config()
    assert config.embeddings_path == "data/embeddings_300d.txt"
    assert config.lexicon_path == "data/lexicon.csv" and config.output_dir == "out"
    assert config.gammas == [1.0, 0.3]
    assert config.horizon == 5 and config.seed == 1234
    assert config.hidden_dim == 128 and config.dropout_rate == 0.8
    assert config.learning_rate == 1e-5 and config.epochs == 500
    assert config.batch_size == 20 and config.momentum == 0.9


def test_resolve_precedence():
    assert resolve_config({"output_dir": "from-file"}).output_dir == "from-file"
    assert resolve_config({"output_dir": "from-file"},
                          {"output_dir": "from-flag"}).output_dir == "from-flag"


def test_resolve_parses_gammas():
    assert resolve_config({"gammas": "0.5, 0.25"}).gammas == [0.5, 0.25]
    with pytest.raises(InputError, match="gammas"):
        resolve_config({"gammas": "abc"})
    with pytest.raises(InputError, match="unknown config key"):
        resolve_config(overrides={"velocity": "1"})
    with pytest.raises(InputError, match="outside"):
        resolve_config({"gammas": "1.5"})
    with pytest.raises(InputError, match="horizon"):
        resolve_config({"horizon": "-1"})
    with pytest.raises(InputError, match="nonempty"):
        resolve_config({"gammas": ","})


def test_resolve_rejects_unknown_file_key():
    # library callers pass file values without parse_config_file's check
    with pytest.raises(InputError, match="unknown config key 'epoch'"):
        resolve_config({"epoch": "3"})


@pytest.mark.parametrize("key,value", [("epochs", "0"), ("batch_size", "0"),
                                       ("hidden_dim", "0"), ("dropout_rate", "1.0"),
                                       ("momentum", "1.0"), ("learning_rate", "-1"),
                                       ("seed", "-1")])
def test_resolve_rejects_bad_network_settings(key, value):
    # checked when the config resolves, before any stage reads or writes a file
    with pytest.raises(InputError):
        resolve_config(overrides={key: value})


def _table_values(text):
    """key -> default from README's configuration table."""
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    return {row[1].strip().strip("`"): row[2].strip().strip("`") for row in rows}


def test_default_cfg_lists_every_key_with_resolved_defaults():
    values = parse_config_file(REPO / "default.cfg")
    assert list(values) == list(CONFIG_FIELDS)
    assert resolve_config(values) == resolve_config()


def test_readme_table_lists_every_key_with_resolved_defaults():
    values = _table_values((REPO / "README.md").read_text(encoding="utf-8"))
    assert list(values) == list(CONFIG_FIELDS)
    assert resolve_config(values) == resolve_config()


def test_readme_flag_table_matches_parser():
    # one row per subcommand that takes --config, listing its config flags in order
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("| subcommand | config flags |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    documented = {row[1].strip().strip("`"): row[2].strip().strip("`") for row in rows}
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    parsed = {}
    for name, sub in subcommands.items():
        keyed = [action for action in sub._actions if action.dest in CONFIG_FIELDS]
        if "--config" in sub._option_string_actions:
            parsed[name] = ("all of them" if {a.dest for a in keyed} == set(CONFIG_FIELDS)
                            else " ".join(flag for a in keyed for flag in a.option_strings))
        else:
            assert keyed == [], name
    assert documented == parsed


@pytest.mark.parametrize("line", ["zero_diagonal = false", "smacof_iterations = 0"])
def test_config_file_with_removed_key_is_input_error(tiny, tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(tiny["cfg"].read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", cfg, "--out-dir", tmp_path / "out")
    key = line.split(" ")[0]
    assert code == 1 and out == "" and f"unknown config key {key!r}" in err
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,flags", [("run", ["--zero-diagonal"]),
                                           ("project", ["--config", REPO / "default.cfg"]),
                                           ("project", ["--smacof-iterations", "4"])])
def test_cli_removed_flags_are_usage_errors(tmp_path, capsys, command, flags):
    outputs = {"run": ["--out-dir", tmp_path / "out"],
               "project": ["--predictions", DATA_DIR / "gdv_fixture_1d.csv",
                           "--out-csv", tmp_path / "p.csv", "--out-svg", tmp_path / "p.svg"]}
    code, out, err = run_cli(capsys, command, *flags, *outputs[command])
    assert code == 1 and out == "" and f"unrecognized arguments: {flags[0]}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gammas", ["0.5,0.5", "1,1.0"])
def test_cli_run_duplicate_gammas_is_input_error(tiny, tmp_path, capsys, gammas):
    # equal tags name the same artifact files, so one run would overwrite another
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--gammas", gammas, "--out-dir", out_dir)
    assert code == 1 and "distinct" in err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


# the documented flag of each config key, and the value the test gives it
FLAGS = {"embeddings": (["--embeddings", "e.txt"], "e.txt"),
         "lexicon": (["--lexicon", "l.csv"], "l.csv"),
         "output_dir": (["--out-dir", "elsewhere"], "elsewhere"),
         "gammas": (["--gammas", "0.5,0.25"], "0.5,0.25"),
         "horizon": (["--horizon", "3"], "3"),
         "seed": (["--seed", "9"], "9"),
         "hidden_dim": (["--hidden-dim", "7"], "7"),
         "dropout_rate": (["--dropout-rate", "0.25"], "0.25"),
         "learning_rate": (["--learning-rate", "0.5"], "0.5"),
         "epochs": (["--epochs", "2"], "2"),
         "batch_size": (["--batch-size", "3"], "3"),
         "momentum": (["--momentum", "0.5"], "0.5")}


@pytest.mark.parametrize("key", list(CONFIG_FIELDS))
def test_run_flag_resolves_like_config_file_line(tmp_path, capsys, monkeypatch, key):
    seen = []
    monkeypatch.setattr("cogmap.cli.run_pipeline",
                        lambda config: seen.append(config) or {"runs": []})
    argv, value = FLAGS[key]
    code, _, err = run_cli(capsys, "run", *argv)
    assert code == 0, err
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert seen == [resolve_config(parse_config_file(cfg))]
    assert seen[0] != resolve_config()


@pytest.mark.parametrize("flag,key", [("--epochs", "epochs"),
                                      ("--learning-rate", "learning_rate")])
def test_cli_unparsable_value_names_its_key(tiny, tmp_path, capsys, flag, key):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"], flag, "x",
                           "--out-dir", out_dir)
    assert code == 1 and f"config key {key} expects" in err and "'x'" in err
    assert not out_dir.exists()


SHIPPED_INPUTS = {"embeddings": str(DATA_DIR / "embeddings_300d.txt"),
                  "lexicon": str(DATA_DIR / "lexicon.csv")}


def test_config_hash_is_stable_sha256():
    a = resolve_config(SHIPPED_INPUTS)
    b = resolve_config(SHIPPED_INPUTS)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert set(config_hash(a)) <= set("0123456789abcdef")
    assert config_hash(resolve_config(SHIPPED_INPUTS, {"seed": "1"})) != config_hash(a)
    # the same settings written to another directory are the same science
    assert config_hash(resolve_config(SHIPPED_INPUTS, {"output_dir": "elsewhere"})) == \
        config_hash(a)


def test_config_hash_covers_input_bytes_not_path_text(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    digest = config_hash(resolve_config(SHIPPED_INPUTS))
    for spelling in ("data/lexicon.csv", "./data/lexicon.csv"):
        assert config_hash(resolve_config(SHIPPED_INPUTS, {"lexicon": spelling})) == digest
    copy = tmp_path / "lexicon.csv"
    shutil.copyfile(DATA_DIR / "lexicon.csv", copy)
    assert config_hash(resolve_config(SHIPPED_INPUTS, {"lexicon": copy})) == digest
    data = bytearray(copy.read_bytes())
    data[-2] ^= 1  # the last character of the last split name
    copy.write_bytes(bytes(data))
    assert config_hash(resolve_config(SHIPPED_INPUTS, {"lexicon": copy})) != digest


# ---------------------------------------------------------------- pipeline

def test_run_pipeline_manifest_round_trip(tiny, tmp_path):
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"output_dir": str(tmp_path / "out")})
    manifest = run_pipeline(config)
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert on_disk == manifest
    assert len(manifest["runs"]) == 2
    assert [r["gamma"] for r in manifest["runs"]] == [1.0, 0.3]
    assert [r["seed"] for r in manifest["runs"]] == [7, 8]
    for run in manifest["runs"]:
        for key in ("all", "train", "validation"):
            assert -2.0 < run["gdv_prediction_space"][key] < 2.0
            assert -2.0 < run["gdv_projection_2d"][key] < 2.0
        for name in run["files"].values():
            assert (tmp_path / "out" / name).is_file()
    assert manifest["config"]["epochs"] == 3
    assert manifest["config_hash"] == config_hash(config)


def test_run_pipeline_horizon_zero_identity_sr(tiny, tmp_path):
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"output_dir": str(tmp_path / "out"),
                             "gammas": "1.0", "horizon": "0", "epochs": "2"})
    manifest = run_pipeline(config)
    assert len(manifest["runs"]) == 1
    sr = np.loadtxt(tmp_path / "out" / "sr_gamma_1.0.csv", delimiter=",", ndmin=2)
    np.testing.assert_array_equal(sr, np.eye(9))


def test_run_pipeline_cleans_up_after_failure(tiny, tmp_path):
    # training diverges after transition.csv and the first SR file were
    # written to the staging directory; none of them may be left behind
    out_dir = tmp_path / "out"
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"learning_rate": "1e300", "output_dir": str(out_dir)})
    with pytest.raises(InputError, match="stage train"):
        run_pipeline(config)
    assert list(out_dir.glob("*")) == []


def shipped_lexicon_lines(keep):
    """The shipped lexicon's lines for which `keep(word, category, split)` holds."""
    lines = (DATA_DIR / "lexicon.csv").read_text(encoding="utf-8").splitlines()
    return lines[:1] + [line for line in lines[1:] if keep(*line.split(","))]


@pytest.mark.parametrize("keep, message", [
    # one furniture validation word: the validation split has a singleton class
    (lambda w, c, s: s == "train" or c != "furniture" or w == "futon",
     "class 'furniture' has 1 point(s); GDV needs at least 2"),
    (lambda w, c, s: c == "animals", "GDV needs at least 2 classes, got 1"),
    (lambda w, c, s: s == "train", "no points with split 'validation'"),
], ids=["singleton-class", "one-class", "no-validation"])
def test_run_rejects_lexicon_the_gdv_cannot_score_in_load(tmp_path, capsys, keep, message):
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text("\n".join(shipped_lexicon_lines(keep)) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text("previous run\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", REPO / "default.cfg",
                             "--embeddings", DATA_DIR / "embeddings_300d.txt",
                             "--lexicon", lexicon, "--out-dir", out_dir)
    assert code == 1 and out == ""
    assert err == f"error: stage load: {message}\n"
    assert [(p.name, p.read_text(encoding="utf-8")) for p in out_dir.iterdir()] == \
        [("manifest.json", "previous run\n")]


def test_failed_rerun_leaves_previous_tree_untouched(tiny, tmp_path):
    out_dir = tmp_path / "out"
    base = parse_config_file(tiny["cfg"])
    run_pipeline(resolve_config(base, {"output_dir": str(out_dir), "epochs": "2"}))
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    diverging = resolve_config(base, {"output_dir": str(out_dir), "epochs": "2",
                                      "learning_rate": "1e300"})
    with pytest.raises(InputError, match="stage train"):
        run_pipeline(diverging)
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_run_pipeline_missing_word_fails_in_load(tiny, tmp_path):
    bad_lexicon = tmp_path / "bad.csv"
    text = tiny["lexicon"].read_text(encoding="utf-8")
    bad_lexicon.write_text(text + "yeti,reds,validation\n", encoding="utf-8")
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"lexicon": str(bad_lexicon),
                             "output_dir": str(tmp_path / "out")})
    with pytest.raises(InputError, match="yeti"):
        run_pipeline(config)
    assert list((tmp_path / "out").glob("*")) == []


# --------------------------------------------------------------- CLI: run

def test_cli_run_end_to_end(tiny, tmp_path, capsys):
    out_dir = tmp_path / "cli-out"
    code, out, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                             "--out-dir", out_dir)
    assert code == 0 and err == ""
    assert "manifest.json" in out
    assert "gamma=1.0" in out and "gamma=0.3" in out
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    expected = {"transition.csv", "manifest.json"}
    for tag in ("1.0", "0.3"):
        expected |= {f"sr_gamma_{tag}.csv", f"model_gamma_{tag}.json",
                     f"predictions_gamma_{tag}.csv", f"projection_gamma_{tag}.csv",
                     f"map_gamma_{tag}.svg", f"gdv_gamma_{tag}.json"}
    assert {p.name for p in out_dir.iterdir()} == expected
    assert manifest["runs"][0]["files"]["map_svg"] == "map_gamma_1.0.svg"


def test_cli_run_is_deterministic(tiny, tmp_path, capsys, monkeypatch):
    # identical relative inputs in two working directories must agree byte for
    # byte everywhere except the recorded timestamps
    workspaces = []
    for name in ("a", "b"):
        ws = tmp_path / name
        ws.mkdir()
        shutil.copy(tiny["embeddings"], ws / "embeddings.txt")
        shutil.copy(tiny["lexicon"], ws / "lexicon.csv")
        (ws / "rel.cfg").write_text(
            "embeddings = embeddings.txt\nlexicon = lexicon.csv\n"
            "output_dir = out\ngammas = 1.0,0.3\nepochs = 3\nhidden_dim = 16\n"
            "batch_size = 4\nlearning_rate = 0.001\ndropout_rate = 0.5\nseed = 7\n",
            encoding="utf-8")
        monkeypatch.chdir(ws)
        code, _, err = run_cli(capsys, "run", "--config", "rel.cfg")
        assert code == 0, err
        workspaces.append(ws)

    a, b = (ws / "out" for ws in workspaces)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":
            assert masked_manifest(a / name) == masked_manifest(b / name)
        elif name.endswith(".svg"):
            assert svg_payload(a / name) == svg_payload(b / name)
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes()


INTERLEAVED_LEXICON = """word,category,split
r0,reds,train
b3,blues,validation
g0,greens,train
r3,reds,validation
r1,reds,train
g1,greens,train
b0,blues,train
g3,greens,validation
b1,blues,train
r2,reds,train
b4,blues,validation
g2,greens,train
r4,reds,validation
b2,blues,train
g4,greens,validation
"""


def test_interleaved_lexicon_gives_one_category_order(tiny, tmp_path, capsys):
    # a blues validation word precedes the greens training rows in the file; the
    # run's legend, its GDV classes and a `project` rerun all order categories
    # by first appearance among the rows, training rows first
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text(INTERLEAVED_LEXICON, encoding="utf-8")
    lex = load_lexicon(lexicon)
    assert lex.words == ["r0", "g0", "r1", "g1", "b0", "b1", "r2", "g2", "b2",
                         "b3", "r3", "g3", "b4", "r4", "g4"]
    assert lex.splits == ["train"] * 9 + ["validation"] * 6
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"], "--lexicon", lexicon,
                           "--epochs", "2", "--out-dir", out_dir)
    assert code == 0, err
    for tag in ("1.0", "0.3"):
        run_svg = out_dir / f"map_gamma_{tag}.svg"
        code, _, err = run_cli(capsys, "project",
                               "--predictions", out_dir / f"predictions_gamma_{tag}.csv",
                               "--out-csv", tmp_path / "proj.csv",
                               "--out-svg", tmp_path / "map.svg")
        assert code == 0, err
        assert (tmp_path / "proj.csv").read_bytes() == \
            (out_dir / f"projection_gamma_{tag}.csv").read_bytes()
        assert svg_payload(tmp_path / "map.svg") == svg_payload(run_svg)
        legend = re.findall(r'<text x="38"[^>]*>([^<]*)</text>',
                            run_svg.read_text(encoding="utf-8"))
        assert legend == ["reds", "greens", "blues", "validation"]
        gdv_doc = json.loads((out_dir / f"gdv_gamma_{tag}.json").read_text(encoding="utf-8"))
        for space in ("prediction_space", "projection_2d"):
            assert gdv_doc[space]["all"]["classes"] == legend[:-1]


def test_names_with_commas_survive_the_run_csvs(tiny, tmp_path, capsys):
    # a quoted category "reds, warm" and word "r,0" are valid lexicon CSV; the
    # run's predictions CSV must read back in `gdv` and `project`
    emb = tmp_path / "embeddings.txt"
    save_embeddings({("r,0" if w == "r0" else w): v for w, v in tiny["entries"].items()}, emb)
    lexicon = tmp_path / "lexicon.csv"
    text = tiny["lexicon"].read_text(encoding="utf-8")
    lexicon.write_text(text.replace(",reds,", ',"reds, warm",').replace("r0,", '"r,0",'),
                       encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"], "--embeddings", emb,
                           "--lexicon", lexicon, "--gammas", "1.0", "--epochs", "2",
                           "--out-dir", out_dir)
    assert code == 0, err
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    predictions = out_dir / "predictions_gamma_1.0.csv"
    code, out, err = run_cli(capsys, "gdv", "--points", predictions)
    assert code == 0, err
    assert out == f"{manifest['runs'][0]['gdv_prediction_space']['all']:.4f}\n"
    code, _, err = run_cli(capsys, "project", "--predictions", predictions,
                           "--out-csv", tmp_path / "proj.csv", "--out-svg", tmp_path / "map.svg")
    assert code == 0, err
    assert (tmp_path / "proj.csv").read_bytes() == \
        (out_dir / "projection_gamma_1.0.csv").read_bytes()
    lex = load_labeled_points_csv(tmp_path / "proj.csv")[0]
    assert lex.words[0] == "r,0"


# ---------------------------------------------------------- CLI: build-sr

def test_cli_build_sr_gamma_zero_identity(tiny, tmp_path, capsys):
    out_dir = tmp_path / "sr-out"
    code, out, _ = run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                           "--gamma", "0", "--out-dir", out_dir)
    assert code == 0
    t = np.loadtxt(out_dir / "transition.csv", delimiter=",", ndmin=2)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(
        np.loadtxt(out_dir / "sr_gamma_0.0.csv", delimiter=",", ndmin=2), np.eye(9))
    assert "sr_gamma_0.0.csv" in out


def test_cli_build_sr_default_gammas(tiny, tmp_path, capsys):
    out_dir = tmp_path / "sr-out"
    code, _, _ = run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                         "--out-dir", out_dir)
    assert code == 0
    for tag in ("1.0", "0.3"):
        assert (out_dir / f"sr_gamma_{tag}.csv").is_file()
        sr, words = load_sr_json(out_dir / f"sr_gamma_{tag}.json")
        assert sr.horizon == 5 and len(words) == 9


# ------------------------------------------------- CLI: staged train flow

def test_cli_staged_flow(tiny, tmp_path, capsys):
    out_dir = tmp_path / "flow"
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                   "--out-dir", out_dir)[0] == 0

    model = out_dir / "model.json"
    code, out, _ = run_cli(capsys, "train", "--config", tiny["cfg"],
                           "--sr", out_dir / "sr_gamma_1.0.json", "--out", model)
    assert code == 0 and "final loss" in out

    preds = out_dir / "preds.csv"
    code, out, _ = run_cli(capsys, "predict", "--config", tiny["cfg"],
                           "--model", model, "--split", "all", "--out", preds)
    assert code == 0 and "15 distributions over 9 states" in out
    header = preds.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("word,category,split,v0")

    proj_csv = out_dir / "proj.csv"
    proj_svg = out_dir / "map.svg"
    code, out, _ = run_cli(capsys, "project", "--predictions", preds,
                           "--out-csv", proj_csv, "--out-svg", proj_svg)
    assert code == 0 and "stress" in out
    assert proj_csv.read_text(encoding="utf-8").splitlines()[0] == \
        "word,category,split,x,y"
    assert proj_svg.read_text(encoding="utf-8").count("<circle") == 15

    code, out, _ = run_cli(capsys, "gdv", "--points", proj_csv)
    assert code == 0
    float(out.strip())  # exactly one parseable number
    code, out, _ = run_cli(capsys, "gdv", "--points", proj_csv,
                           "--split", "validation")
    assert code == 0


def test_cli_chain_reproduces_run_byte_for_byte(tiny, tmp_path, capsys):
    # `run` seeds its i-th gamma with seed + i and `train` seeds with --seed as
    # given, so the chain gets run's model and predictions from --seed 7 + i
    run_dir, flow = tmp_path / "run", tmp_path / "flow"
    assert run_cli(capsys, "run", "--config", tiny["cfg"], "--out-dir", run_dir)[0] == 0
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", flow)[0] == 0
    for i, tag in enumerate(["1.0", "0.3"]):
        model, preds = flow / f"model_gamma_{tag}.json", flow / f"predictions_gamma_{tag}.csv"
        assert run_cli(capsys, "train", "--config", tiny["cfg"], "--seed", 7 + i,
                       "--sr", flow / f"sr_gamma_{tag}.json", "--out", model)[0] == 0
        assert run_cli(capsys, "predict", "--config", tiny["cfg"], "--model", model,
                       "--split", "all", "--out", preds)[0] == 0
        for path in (model, preds):
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # training's GEMMs run on one BLAS thread or two; every file must come out the
    # same, apart from the run's timestamps and its own output directory
    volatile = re.compile(r'"created_utc": "[^"]*"|"output_dir": "[^"]*"|<!-- generated [^>]* -->')
    trees = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "cogmap.cli", "run", "--config", "default.cfg",
                        "--epochs", "20", "--out-dir", str(out_dir)],
                       cwd=REPO, env=env, check=True, capture_output=True)
        trees.append({p.name: volatile.sub("", p.read_text(encoding="utf-8"))
                      for p in out_dir.iterdir()})
    assert len(trees[0]) == 14 and trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


def test_cli_predict_validation_split(tiny, tmp_path, capsys):
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    model = out_dir / "model.json"
    run_cli(capsys, "train", "--config", tiny["cfg"],
            "--sr", out_dir / "sr_gamma_1.0.json", "--out", model)
    preds = out_dir / "val.csv"
    code, out, _ = run_cli(capsys, "predict", "--config", tiny["cfg"],
                           "--model", model, "--split", "validation", "--out", preds)
    assert code == 0 and "6 distributions" in out
    lines = preds.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7
    assert all(line.split(",")[2] == "validation" for line in lines[1:])


def test_cli_predict_rejects_a_split_the_lexicon_lacks(tiny, tmp_path, capsys):
    # the training states match the model; the lexicon just has no validation rows
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    model = out_dir / "model.json"
    run_cli(capsys, "train", "--config", tiny["cfg"],
            "--sr", out_dir / "sr_gamma_1.0.json", "--out", model)
    lexicon = tmp_path / "train_only.csv"
    lines = tiny["lexicon"].read_text(encoding="utf-8").splitlines()
    lexicon.write_text("\n".join(line for line in lines if not line.endswith(",validation"))
                       + "\n", encoding="utf-8")
    preds = out_dir / "val.csv"
    code, out, err = run_cli(capsys, "predict", "--config", tiny["cfg"], "--lexicon", lexicon,
                             "--model", model, "--split", "validation", "--out", preds)
    assert code == 1 and out == "" and err == "error: no points with split 'validation'\n"
    assert not preds.exists()


def test_cli_train_rejects_mismatched_state_words(tiny, tmp_path, capsys):
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    sr, words = load_sr_json(out_dir / "sr_gamma_1.0.json")
    scrambled = out_dir / "scrambled.json"
    save_sr_json(sr, list(reversed(words)), scrambled)
    code, _, err = run_cli(capsys, "train", "--config", tiny["cfg"],
                           "--sr", scrambled, "--out", out_dir / "m.json")
    assert code == 1
    assert "error:" in err and "state words" in err


def _edit_sr_nan(doc):
    doc["values"][0][0] = float("nan")


def _edit_sr_ragged(doc):
    doc["values"][1].pop()


def _edit_sr_negative(doc):
    doc["values"][0][1] = -0.5


def _edit_sr_gamma(doc):
    doc["gamma"] = 5


def _edit_sr_n(doc):
    doc["n"] = len(doc["values"]) + 1


@pytest.mark.parametrize("edit", [_edit_sr_nan, _edit_sr_ragged, _edit_sr_negative, _edit_sr_gamma,
                                  _edit_sr_n],
                         ids=["nan", "ragged", "negative", "gamma-5", "n-mismatch"])
def test_cli_train_rejects_bad_sr_envelope(tiny, tmp_path, capsys, edit):
    # reported against the file, not as a training failure or a numpy error
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    sr = out_dir / "sr_gamma_1.0.json"
    doc = json.loads(sr.read_text(encoding="utf-8"))
    edit(doc)
    sr.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "train", "--config", tiny["cfg"],
                           "--sr", sr, "--out", out_dir / "m.json")
    assert code == 1 and err.startswith(f"error: {sr}") and "loss" not in err
    assert not (out_dir / "m.json").exists()


def test_cli_predict_rejects_short_bias_checkpoint(tiny, tmp_path, capsys):
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    model = out_dir / "model.json"
    run_cli(capsys, "train", "--config", tiny["cfg"],
            "--sr", out_dir / "sr_gamma_1.0.json", "--out", model)
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["b1"].pop()
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "predict", "--config", tiny["cfg"],
                           "--model", model, "--out", out_dir / "p.csv")
    assert code == 1 and err.startswith(f"error: {model}") and "b1" in err
    assert not (out_dir / "p.csv").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_cli_out_of_range_number_is_reported_against_the_file(tiny, tmp_path, capsys, command):
    # JSON 1e400 parses to inf: reported as the file's fault, before arithmetic warns
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    sr, model = out_dir / "sr_gamma_1.0.json", out_dir / "model.json"
    run_cli(capsys, "train", "--config", tiny["cfg"], "--sr", sr, "--out", model)
    bad, out = (sr, out_dir / "m2.json") if command == "train" else (model, out_dir / "p.csv")
    doc = json.loads(bad.read_text(encoding="utf-8"))
    if command == "train":
        doc["values"][0][0] = 1234.5
    else:
        doc["b2"][-1] = 1234.5
    bad.write_text(json.dumps(doc).replace("1234.5", "1e400"), encoding="utf-8")
    inputs = ["--sr", sr] if command == "train" else ["--model", model]
    code, _, err = run_cli(capsys, command, "--config", tiny["cfg"], *inputs, "--out", out)
    assert code == 1 and err.startswith(f"error: {bad}: non-finite value")
    assert "Warning" not in err and not out.exists()


# ---------------------------------------------------------------- CLI: gdv

def test_cli_gdv_fixture_prints_known_value(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "gdv", "--points", DATA_DIR / "gdv_fixture_1d.csv",
                           "--out", report)
    assert code == 0
    assert out == "-0.8955\n"
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["gdv"] == pytest.approx(-0.8955334711889903, abs=1e-12)
    assert doc["classes"] == ["A", "B"]


def test_cli_gdv_split_without_points_fails(capsys):
    code, _, err = run_cli(capsys, "gdv", "--points", DATA_DIR / "gdv_fixture_1d.csv",
                           "--split", "validation")
    assert code == 1 and "no points" in err


@pytest.mark.parametrize("command", ["gdv", "project"])
@pytest.mark.parametrize("token", ["nan", "inf"])
def test_cli_nonfinite_points_are_input_errors(tmp_path, capsys, command, token):
    points = tmp_path / "points.csv"
    text = (DATA_DIR / "gdv_fixture_1d.csv").read_text(encoding="utf-8")
    points.write_text(text.replace("a1,A,train,1.0", f"a1,A,train,{token}"), encoding="utf-8")
    outputs = {"gdv": ["--points", points, "--out", tmp_path / "r.json"],
               "project": ["--predictions", points, "--out-csv", tmp_path / "r.csv",
                           "--out-svg", tmp_path / "r.svg"]}
    code, out, err = run_cli(capsys, command, *outputs[command])
    assert code == 1 and out == "" and err == f"error: {points}: non-finite value {token}\n"
    assert sorted(tmp_path.iterdir()) == [points]


@pytest.mark.parametrize("command", ["gdv", "project"])
@pytest.mark.parametrize("row, message", [
    ("a0,A,train,1.0", "duplicate word 'a0'"),
    ("a1,,train,1.0", "empty category for 'a1'"),
    ("a1,A,trian,1.0", "unknown split 'trian'"),
], ids=["duplicate-word", "empty-category", "misspelt-split"])
def test_cli_points_csv_gets_the_lexicon_row_checks(tmp_path, capsys, command, row, message):
    points = tmp_path / "points.csv"
    text = (DATA_DIR / "gdv_fixture_1d.csv").read_text(encoding="utf-8")
    points.write_text(text.replace("a1,A,train,1.0", row), encoding="utf-8")
    outputs = {"gdv": ["--points", points, "--out", tmp_path / "r.json"],
               "project": ["--predictions", points, "--out-csv", tmp_path / "r.csv",
                           "--out-svg", tmp_path / "r.svg"]}
    code, out, err = run_cli(capsys, command, *outputs[command])
    assert code == 1 and out == "" and err == f"error: {points}: line 3: {message}\n"
    assert sorted(tmp_path.iterdir()) == [points]


def test_cli_project_rejects_flags_it_never_reads(tmp_path, capsys):
    code, _, err = run_cli(capsys, "project", "--seed", "3",
                           "--predictions", DATA_DIR / "gdv_fixture_1d.csv",
                           "--out-csv", tmp_path / "p.csv", "--out-svg", tmp_path / "p.svg")
    assert code == 1 and "unrecognized arguments: --seed 3" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-sr", "oracle", "run"])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cli_names_vector_whose_norm_overflows_or_underflows(tiny, tmp_path, capsys,
                                                              command, scale):
    # finite components whose squared norm is inf (1e200) or 0 (1e-200)
    entries = dict(tiny["entries"])
    entries["r0"] = entries["r0"] * scale
    emb = tmp_path / "scaled.txt"
    save_embeddings(entries, emb)
    out_dir = tmp_path / "out"
    args = {"build-sr": ["--out-dir", out_dir], "run": ["--out-dir", out_dir],
            "oracle": ["--start", "0"]}
    code, out, err = run_cli(capsys, command, "--config", tiny["cfg"], "--embeddings", emb,
                             *args[command])
    assert code == 1 and out == ""
    assert "vector for 'r0' has a norm too large or too small for float64 cosines" in err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


# ------------------------------------------------------------- CLI: oracle

def test_cli_oracle_compare(tiny, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--config", tiny["cfg"],
                           "--start", "r0", "--gamma", "0.5", "--samples", "2000",
                           "--compare")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    estimate = [float(tok) for tok in lines[0].split(",")]
    closed = [float(tok) for tok in lines[1].split(",")]
    assert len(estimate) == len(closed) == 9
    assert lines[2].startswith("max-abs-difference ")
    # both accumulate up to sum_k gamma^k = 1.96875 of discounted mass
    assert sum(closed) == pytest.approx(1.96875, abs=1e-9)


def test_cli_oracle_start_index_and_csv_out(tiny, tmp_path, capsys):
    est_csv = tmp_path / "est.csv"
    code, out, _ = run_cli(capsys, "oracle", "--config", tiny["cfg"],
                           "--start", "0", "--samples", "500", "--out", est_csv)
    assert code == 0
    row = np.loadtxt(est_csv, delimiter=",", ndmin=2)
    assert row.shape == (1, 9)
    np.testing.assert_allclose(row[0], [float(t) for t in
                                        out.strip().splitlines()[0].split(",")],
                               atol=1e-15)


def test_cli_oracle_bad_start(tiny, capsys):
    assert run_cli(capsys, "oracle", "--config", tiny["cfg"],
                   "--start", "nosuchword")[0] == 1
    assert run_cli(capsys, "oracle", "--config", tiny["cfg"],
                   "--start", "99")[0] == 1


@pytest.mark.parametrize("gamma", ["5", "nan"])
def test_cli_oracle_validates_gamma(tiny, capsys, gamma):
    code, out, err = run_cli(capsys, "oracle", "--config", tiny["cfg"], "--start", "r0",
                             "--gamma", gamma, "--samples", "10")
    assert code == 1 and out == "" and f"gamma {float(gamma)} outside" in err


# -------------------------------------------------------- CLI: exit codes

def test_cli_unknown_flag_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "--frobnicate")
    assert code == 1 and "error:" in err


def test_cli_unknown_command_is_input_error(capsys):
    assert run_cli(capsys, "transmogrify")[0] == 1


def test_cli_missing_input_file_is_input_error(tiny, tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--embeddings", tmp_path / "nope.txt",
                           "--out-dir", tmp_path / "out")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_cli_nonfinite_learning_rate_is_input_error(tiny, tmp_path, capsys, rate):
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--learning-rate", rate, "--out-dir", tmp_path / "out")
    assert code == 1 and "learning rate" in err


@pytest.mark.parametrize("command", ["run", "train"])
def test_cli_diverging_training_is_input_error(tiny, tmp_path, capsys, command):
    # a learning rate that makes training diverge is a settings problem
    out_dir = tmp_path / "out"
    args = ["--config", tiny["cfg"], "--epochs", "2", "--learning-rate", "1e300"]
    if command == "train":
        assert run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                       "--out-dir", out_dir)[0] == 0
        args += ["--sr", out_dir / "sr_gamma_1.0.json", "--out", out_dir / "m.json"]
    else:
        args += ["--out-dir", out_dir]
    code, _, err = run_cli(capsys, command, *args)
    assert code == 1 and err.startswith("error:") and "non-finite" in err


def test_cli_negative_seed_is_input_error(tiny, tmp_path, capsys):
    # rejected while the config resolves, before any stage reads or writes
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("previous run\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", tiny["cfg"], "--seed", "-1",
                             "--out-dir", out_dir)
    assert code == 1 and out == ""
    assert err == "error: seed must be non-negative, got -1\n"
    assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
    assert (out_dir / "keep.txt").read_text(encoding="utf-8") == "previous run\n"


def test_cli_internal_error_exit_code(tiny, tmp_path, capsys, monkeypatch):
    def boom(config):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("cogmap.cli.run_pipeline", boom)
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--out-dir", tmp_path / "out")
    assert code == 2 and "internal error:" in err and "wires crossed" in err


# --------------------------------------------------------------------- SVG

def test_svg_structure(tmp_path):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lex = Lexicon(words=["a", "b<c", "d&e", "f"], labels=["one", "one", "two", "two"],
                  splits=["train", "train", "validation", "train"])
    out = tmp_path / "m.svg"
    render_svg(coords, lex, out)
    text = out.read_text(encoding="utf-8")
    assert text.count("<circle") == 4
    assert text.count('stroke="#d62728"') == 2  # one ringed point + legend swatch
    assert "<title>b&lt;c</title>" in text and "<title>d&amp;e</title>" in text
    assert ">one</text>" in text and ">two</text>" in text and ">validation</text>" in text
    assert re.fullmatch(r"<!-- generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00 -->",
                        text.splitlines()[1])
    # with the timestamp comment masked, the render is reproducible line for line
    out2 = tmp_path / "m2.svg"
    render_svg(coords, lex, out2)
    assert svg_payload(out) == svg_payload(out2)


def test_svg_validation():
    coords = np.zeros((2, 2))
    with pytest.raises(InputError, match="empty"):
        render_svg(np.zeros((0, 2)), Lexicon([], [], []), "unused.svg")
    with pytest.raises(InputError, match="1 lexicon rows for 2 points"):
        render_svg(coords, Lexicon(["a"], ["x"], ["train"]), "unused.svg")
