"""Config resolution, pipeline orchestration, CLI subcommands, and the SVG map."""

import argparse
import ast
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cogmap.cli import build_parser, main
from cogmap.dataset import load_lexicon
from cogmap.errors import InputError
from cogmap.fileio import (LabeledPoints, Lexicon, dump_json, load_labeled_points_csv,
                           save_labeled_points_csv)
from cogmap.neural import MlpConfig, load_model
from cogmap.pipeline import (CONFIG_FIELDS, PipelineConfig, config_hash, fit_scale, load_inputs,
                             parse_config_file, resolve_config, run_pipeline)
from cogmap.sr import build_transition_matrix, load_sr_json, save_sr_json, successor_matrix
from cogmap.svg import render_svg

from oracles import save_embeddings

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


def test_config_file_rejects_a_key_given_twice(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = 3\nseed = 1\nepochs = 5\n", encoding="utf-8")
    message = f"{p}: line 3: duplicate config key 'epochs'"
    with pytest.raises(InputError) as info:
        parse_config_file(p)
    assert str(info.value) == message
    code, out, err = run_cli(capsys, "build-sr", "--config", p, "--out-dir", tmp_path / "tree")
    assert code == 1 and out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "tree").exists()


def test_resolve_defaults():
    config = resolve_config()
    assert config.embeddings == "data/embeddings_300d.txt"
    assert config.lexicon == "data/lexicon.csv" and config.output_dir == "out"
    assert config.gammas == [1.0, 0.3]
    assert config.horizon == 5 and config.seed == 1234
    assert config.dropout_rate == 0.8
    assert config.learning_rate == 1e-5 and config.epochs == 500
    assert MlpConfig.hidden_dim == 128 and MlpConfig.batch_size == 20
    assert MlpConfig.momentum == 0.9


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
    with pytest.raises(InputError, match=r"gamma must be in \[0, 1\], got 1.5"):
        resolve_config({"gammas": "1.5"})
    with pytest.raises(InputError, match=r"gamma must be in \[0, 1\], got nan"):
        resolve_config(overrides={"gammas": "nan"})  # NaN fails every comparison
    with pytest.raises(InputError, match="horizon"):
        resolve_config({"horizon": "-1"})
    with pytest.raises(InputError, match="nonempty"):
        resolve_config({"gammas": ","})


def test_resolve_rejects_unknown_file_key():
    # library callers pass file values without parse_config_file's check
    with pytest.raises(InputError, match="unknown config key 'epoch'"):
        resolve_config({"epoch": "3"})


@pytest.mark.parametrize("key,value", [("epochs", "0"), ("dropout_rate", "1.0"),
                                       ("learning_rate", "-1"), ("seed", "-1")])
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


@pytest.mark.parametrize("line", ["zero_diagonal = false", "smacof_iterations = 0",
                                  "batch_size = 20", "momentum = 0.9", "hidden_dim = 128"])
def test_config_file_with_removed_key_is_input_error(tiny, tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(tiny["cfg"].read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", cfg, "--out-dir", tmp_path / "out")
    key = line.split(" ")[0]
    assert code == 1 and out == "" and f"unknown config key {key!r}" in err
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command,flags", [("run", ["--zero-diagonal"]),
                                           ("project", ["--config", REPO / "default.cfg"]),
                                           ("project", ["--smacof-iterations", "4"]),
                                           ("run", ["--batch-size", "20"]),
                                           ("run", ["--momentum", "0.9"]),
                                           ("train", ["--batch-size", "20"]),
                                           ("train", ["--momentum", "0.9"]),
                                           ("run", ["--hidden-dim", "128"]),
                                           ("train", ["--hidden-dim", "128"])])
def test_cli_removed_flags_are_usage_errors(tmp_path, capsys, command, flags):
    outputs = {"run": ["--out-dir", tmp_path / "out"],
               "train": ["--sr", DATA_DIR / "sr_gamma_1.0.json", "--out", tmp_path / "m.json"],
               "project": ["--predictions", DATA_DIR / "gdv_fixture_1d.csv",
                           "--out-csv", tmp_path / "p.csv", "--out-svg", tmp_path / "p.svg"]}
    code, out, err = run_cli(capsys, command, *flags, *outputs[command])
    assert code == 1 and out == "" and f"unrecognized arguments: {flags[0]}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flags", [("build-sr", ["--gamma", "0.5"]),
                                           ("run", ["--gamma", "0.5"]),
                                           ("train", ["--epoch", "2"])])
def test_cli_flag_prefixes_are_usage_errors(tiny, tmp_path, capsys, command, flags):
    # each flag has one spelling: `--gamma` is not read as `--gammas`, nor `--epoch` as `--epochs`
    sr_dir, out_dir = tmp_path / "sr", tmp_path / "out"
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", sr_dir)[0] == 0
    out_dir.mkdir()
    outputs = {"build-sr": ["--out-dir", out_dir], "run": ["--out-dir", out_dir],
               "train": ["--sr", sr_dir / "sr_gamma_1.0.json", "--out", out_dir / "model.json"]}
    code, out, err = run_cli(capsys, command, "--config", tiny["cfg"], *flags, *outputs[command])
    assert code == 1 and out == ""
    assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("gammas", ["0.5,0.5", "1,1.0"])
def test_cli_run_duplicate_gammas_is_input_error(tiny, tmp_path, capsys, gammas):
    # equal tags name the same artifact files, so one run would overwrite another
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--gammas", gammas, "--out-dir", out_dir)
    assert code == 1 and "distinct" in err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


def test_negative_zero_and_zero_are_one_gamma():
    # -0.0 == 0.0 but str(-0.0) == "-0.0", so the two once passed as distinct scales
    with pytest.raises(InputError, match="gammas must be distinct"):
        resolve_config({"gammas": "0,-0"})


# the documented flag of each config key, and the value the test gives it
FLAGS = {"embeddings": (["--embeddings", "e.txt"], "e.txt"),
         "lexicon": (["--lexicon", "l.csv"], "l.csv"),
         "output_dir": (["--out-dir", "elsewhere"], "elsewhere"),
         "gammas": (["--gammas", "0.5,0.25"], "0.5,0.25"),
         "horizon": (["--horizon", "3"], "3"),
         "seed": (["--seed", "9"], "9"),
         "dropout_rate": (["--dropout-rate", "0.25"], "0.25"),
         "learning_rate": (["--learning-rate", "0.5"], "0.5"),
         "epochs": (["--epochs", "2"], "2")}


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


def test_negative_zero_gamma_hashes_like_zero():
    assert config_hash(resolve_config(SHIPPED_INPUTS, {"gammas": "-0"})) == \
        config_hash(resolve_config(SHIPPED_INPUTS, {"gammas": "0"}))


@pytest.mark.parametrize("spelling", [
    {"gammas": [1, 0.3]},
    {"horizon": np.int64(5), "seed": np.int64(1234)},
    {"epochs": np.int64(500), "dropout_rate": np.float64(0.8), "learning_rate": np.float64(1e-5)},
], ids=["integer-gamma", "numpy-horizon-and-seed", "numpy-network"])
def test_config_stores_plain_numbers_so_one_run_has_one_hash(spelling):
    # a numpy integer used to make the hash raise, and gammas=[1, 0.3] hashed apart from [1.0, 0.3]
    default, config = PipelineConfig(**SHIPPED_INPUTS), PipelineConfig(**SHIPPED_INPUTS, **spelling)
    assert config_hash(config) == config_hash(default)
    assert [type(v) for v in vars(config).values()] == [type(v) for v in vars(default).values()]
    assert [type(g) for g in config.gammas] == [float, float]


@pytest.mark.parametrize("value", ["pipe-fd", None, b"data/lexicon.csv", ""],
                         ids=["fd", "none", "bytes", "blank"])
@pytest.mark.parametrize("name", ["embeddings", "lexicon", "output_dir"],
                         ids=["embeddings_path", "lexicon_path", "output_dir"])  # stable test ids
def test_config_rejects_a_path_that_is_not_text(tmp_path, monkeypatch, name, value):
    # an int used to be opened as a file descriptor: read, then closed under its owner
    monkeypatch.chdir(tmp_path)
    read_end, write_end = os.pipe()
    os.write(write_end, b"word,category,split\n")
    os.close(write_end)
    try:
        value = read_end if value == "pipe-fd" else value
        with pytest.raises(InputError, match=f"^{name} must be a path, got {re.escape(repr(value))}$"):
            run_pipeline(PipelineConfig(**{name: value}))
        assert os.read(read_end, 100) == b"word,category,split\n"  # still open, nothing read
    finally:
        os.close(read_end)
    assert list(tmp_path.iterdir()) == []


def test_path_settings_run_like_their_text(tiny, tmp_path):
    # a Path used to train every gamma and then fail to serialize into the manifest
    text = resolve_config(parse_config_file(tiny["cfg"]),
                          {"output_dir": str(tmp_path / "out"), "epochs": "2"})
    paths = PipelineConfig(**{**vars(text), "embeddings": Path(text.embeddings),
                              "lexicon": Path(text.lexicon),
                              "output_dir": Path(text.output_dir)})
    assert paths == text and config_hash(paths) == config_hash(text)
    manifests = []
    for config in (text, paths):
        run_pipeline(config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        del manifest["created_utc"]
        manifests.append(manifest)
    assert manifests[1] == manifests[0]


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


def test_resolve_takes_typed_values_as_their_text_spelling():
    typed = resolve_config(SHIPPED_INPUTS, {"gammas": [1.0, 0.3], "epochs": 2})
    text = resolve_config(SHIPPED_INPUTS, {"gammas": "1.0,0.3", "epochs": "2"})
    assert typed == text and config_hash(typed) == config_hash(text)
    assert resolve_config(overrides={"lexicon": Path("x.csv")}).lexicon == "x.csv"
    with pytest.raises(InputError, match="epochs must be an integer, got True"):
        resolve_config(overrides={"epochs": True})
    with pytest.raises(InputError, match="gammas must be a nonempty list"):
        resolve_config(overrides={"gammas": 0.5})


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


def test_fit_scale_with_seed_plus_i_reproduces_each_scale_of_a_run(tiny, tmp_path):
    # the i-th scale of a run is fit_scale on its SR with the config's seed moved on by i: the
    # same files and the same manifest entry
    out_dir = tmp_path / "out"
    config = resolve_config(parse_config_file(tiny["cfg"]), {"output_dir": str(out_dir)})
    manifest = run_pipeline(config)
    inputs = load_inputs(config)
    transition = build_transition_matrix(inputs.split("train"))
    for i, (gamma, run) in enumerate(zip(config.gammas, manifest["runs"])):
        sr = successor_matrix(transition, gamma, config.horizon)
        fit = fit_scale(inputs, sr, replace(config, seed=config.seed + i))
        save_labeled_points_csv(tmp_path / "predictions.csv", fit.predictions)
        assert ((tmp_path / "predictions.csv").read_bytes()
                == (out_dir / run["files"]["predictions_csv"]).read_bytes())
        checkpoint = load_model(out_dir / run["files"]["model_json"])
        assert fit.model.theta.tobytes() == checkpoint.theta.tobytes()
        assert fit.entry == run
        dump_json(fit.gdv_doc, tmp_path / "gdv.json")
        assert ((tmp_path / "gdv.json").read_bytes()
                == (out_dir / run["files"]["gdv_json"]).read_bytes())


def test_manifest_config_rebuilds_the_run_config(tiny, tmp_path):
    # each setting is recorded under its config key, so the record resolves to the same run
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"output_dir": str(tmp_path / "out"), "epochs": "2"})
    run_pipeline(config)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest["config"]) == list(CONFIG_FIELDS)
    rebuilt = resolve_config(manifest["config"])
    assert rebuilt == config and config_hash(rebuilt) == manifest["config_hash"]


def test_manifest_config_rebuilds_the_hash_from_another_directory(tiny, tmp_path, monkeypatch):
    # relative input paths are recorded absolute, so the record resolves from anywhere
    run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    run_dir.mkdir()
    elsewhere.mkdir()
    for name in ("embeddings", "lexicon"):
        shutil.copy(tiny[name], run_dir / tiny[name].name)
    monkeypatch.chdir(run_dir)
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"embeddings": tiny["embeddings"].name,
                             "lexicon": tiny["lexicon"].name, "epochs": "2"})
    manifest = run_pipeline(config)
    monkeypatch.chdir(elsewhere)
    for name in ("embeddings", "lexicon"):
        assert os.path.isabs(manifest["config"][name])
        assert os.path.samefile(manifest["config"][name], run_dir / tiny[name].name)
    assert config_hash(resolve_config(manifest["config"])) == manifest["config_hash"]


def test_manifest_records_the_loss_curve_beside_its_floor_and_a_uniform_guess(tiny, tmp_path):
    out_dir = tmp_path / "out"
    manifest = run_pipeline(resolve_config(parse_config_file(tiny["cfg"]),
                                           {"output_dir": str(out_dir), "epochs": "4"}))
    for run in manifest["runs"]:
        losses = run["loss_per_epoch"]
        assert len(losses) == 4
        assert losses[0] == run["first_epoch_loss"] and losses[-1] == run["final_train_loss"]
        sr = np.loadtxt(out_dir / run["files"]["sr_csv"], delimiter=",", ndmin=2)
        assert run["uniform_loss"] == math.log(len(sr))
        targets = sr / sr.sum(axis=1, keepdims=True)
        t_ln_t = [t * math.log(t) for row in targets for t in row if t > 0.0]
        assert abs(run["target_entropy"] + math.fsum(t_ln_t) / len(sr)) <= 1e-12
        assert run["excess_loss"] == run["final_train_loss"] - run["target_entropy"]
        # the returned model's inference-mode loss, read back from its predictions
        predictions = load_labeled_points_csv(out_dir / run["files"]["predictions_csv"])
        p = predictions.split("train").points
        model_loss = -(targets * np.log(np.maximum(p, 1e-12))).sum(axis=1).mean()
        assert abs(run["final_model_loss"] - model_loss) <= 1e-12
        assert run["target_entropy"] <= run["final_model_loss"]


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
    # byte everywhere except the manifest's created_utc and absolute input paths
    workspaces = []
    for name in ("a", "b"):
        ws = tmp_path / name
        ws.mkdir()
        shutil.copy(tiny["embeddings"], ws / "embeddings.txt")
        shutil.copy(tiny["lexicon"], ws / "lexicon.csv")
        (ws / "rel.cfg").write_text(
            "embeddings = embeddings.txt\nlexicon = lexicon.csv\n"
            "output_dir = out\ngammas = 1.0,0.3\nepochs = 3\n"
            "learning_rate = 0.001\ndropout_rate = 0.5\nseed = 7\n",
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
            docs = [masked_manifest(out / name) for out in (a, b)]
            # each manifest records its own workspace's input files, by absolute path
            for doc, ws in zip(docs, workspaces):
                for key, file in (("embeddings", "embeddings.txt"), ("lexicon", "lexicon.csv")):
                    assert os.path.samefile(doc["config"][key], ws / file)
                    doc["config"][key] = file
            assert docs[0] == docs[1]
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
        assert (tmp_path / "map.svg").read_bytes() == run_svg.read_bytes()
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
    lex = load_labeled_points_csv(tmp_path / "proj.csv").lex
    assert lex.words[0] == "r,0"


# ---------------------------------------------------------- CLI: build-sr

def test_cli_build_sr_gamma_zero_identity(tiny, tmp_path, capsys):
    out_dir = tmp_path / "sr-out"
    code, out, _ = run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                           "--gammas", "0", "--out-dir", out_dir)
    assert code == 0
    t = np.loadtxt(out_dir / "transition.csv", delimiter=",", ndmin=2)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(
        np.loadtxt(out_dir / "sr_gamma_0.0.csv", delimiter=",", ndmin=2), np.eye(9))
    assert "sr_gamma_0.0.csv" in out


def test_cli_build_sr_negative_zero_gamma_names_the_zero_scale(tiny, tmp_path, capsys):
    out_dir = tmp_path / "sr-out"
    code, out, err = run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                             "--gammas", "-0", "--out-dir", out_dir)
    assert code == 0, err
    assert sorted(p.name for p in out_dir.iterdir()) == ["sr_gamma_0.0.csv", "sr_gamma_0.0.json",
                                                         "transition.csv"]


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty file, expected `<count> <dimension>` header"),
    ("2.5 8\n", "line 1: malformed header '2.5 8'"),
    ("-1 8\n", "line 1: header needs count >= 0 and dimension >= 1"),
], ids=["empty", "non-integer-count", "negative-count"])
def test_cli_build_sr_rejects_bad_embeddings_header(tiny, tmp_path, capsys, text, message):
    embeddings = tmp_path / "e.txt"
    embeddings.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                             "--embeddings", embeddings, "--out-dir", out_dir)
    assert code == 1 and out == "" and err == f"error: {embeddings}: {message}\n"
    assert not out_dir.exists()


NO_TRAINING_ROWS = ["r3,reds,validation", "g3,greens,validation"]


@pytest.mark.parametrize("command, rows, message", [
    ("build-sr", ["r0,reds,train,extra"], "{lexicon}: line 2: expected 3 fields, found 4"),
    ("build-sr", [",reds,train"], "{lexicon}: line 2: empty word"),
    ("build-sr", NO_TRAINING_ROWS, "no points with split 'train'"),
    ("train", NO_TRAINING_ROWS, "no points with split 'train'"),
], ids=["four-fields", "empty-word", "no-training-rows", "no-training-rows-train"])
def test_cli_build_sr_rejects_bad_lexicon(tiny, tmp_path, capsys, command, rows, message):
    # every command that needs the training states says the same when there are none
    sr_dir = tmp_path / "sr"
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", sr_dir)[0] == 0
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text("\n".join(["word,category,split", *rows]) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    outputs = {"build-sr": ["--out-dir", out_dir],
               "train": ["--sr", sr_dir / "sr_gamma_1.0.json", "--out", out_dir / "m.json"]}
    code, out, err = run_cli(capsys, command, "--config", tiny["cfg"],
                             "--lexicon", lexicon, *outputs[command])
    assert code == 1 and out == ""
    assert err == f"error: {message.format(lexicon=lexicon)}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "build-sr"])
def test_failed_command_creates_no_output_directory(tiny, tmp_path, capsys, command):
    code, out, err = run_cli(capsys, command, "--config", tiny["cfg"],
                             "--lexicon", tmp_path / "nonexistent.csv",
                             "--out-dir", tmp_path / "fresh" / "nested")
    assert code == 1 and out == "" and "nonexistent.csv" in err
    assert not (tmp_path / "fresh").exists()


def test_failed_build_sr_leaves_the_previous_tree_byte_identical(tiny, tmp_path, capsys,
                                                                   monkeypatch):
    out_dir = tmp_path / "sr-out"
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    calls = []

    def second_call_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        save_sr_json(*args)

    monkeypatch.setattr("cogmap.cli.save_sr_json", second_call_fails)
    # another horizon, so every SR file the failed command reached would differ
    code, out, err = run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--horizon", 3,
                             "--out-dir", out_dir)
    assert code == 1 and out == "" and err == "error: disk full\n"
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("command", ["run", "build-sr"])
def test_committed_tree_holds_no_staging_directory(tiny, tmp_path, capsys, command):
    # the first command stages beside the new directory, the second inside it
    out_dir = tmp_path / "fresh" / "nested"
    for _ in range(2):
        assert run_cli(capsys, command, "--config", tiny["cfg"], "--out-dir", out_dir)[0] == 0
        assert os.listdir(tmp_path) == ["fresh"] and os.listdir(tmp_path / "fresh") == ["nested"]
        assert all(p.is_file() for p in out_dir.iterdir())
    if command == "build-sr":
        assert sorted(os.listdir(out_dir)) == ["sr_gamma_0.3.csv", "sr_gamma_0.3.json",
                                               "sr_gamma_1.0.csv", "sr_gamma_1.0.json",
                                               "transition.csv"]


def test_cli_build_sr_default_gammas(tiny, tmp_path, capsys):
    out_dir = tmp_path / "sr-out"
    code, _, _ = run_cli(capsys, "build-sr", "--config", tiny["cfg"],
                         "--out-dir", out_dir)
    assert code == 0
    for tag in ("1.0", "0.3"):
        assert (out_dir / f"sr_gamma_{tag}.csv").is_file()
        sr = load_sr_json(out_dir / f"sr_gamma_{tag}.json")
        assert sr.horizon == 5 and len(sr.state_words) == 9


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
        for path in (model, preds, flow / f"sr_gamma_{tag}.csv"):
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name
    assert (flow / "transition.csv").read_bytes() == (run_dir / "transition.csv").read_bytes()
    # the map is a function of the predictions alone, so `project` writes run's map too
    proj, svg = flow / "projection_gamma_1.0.csv", flow / "map_gamma_1.0.svg"
    assert run_cli(capsys, "project", "--predictions", flow / "predictions_gamma_1.0.csv",
                   "--out-csv", proj, "--out-svg", svg)[0] == 0
    for path in (proj, svg):
        assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # training's GEMMs run on one BLAS thread or two; every file must come out the
    # same, apart from the manifest's created_utc and its own output directory
    volatile = re.compile(r'"created_utc": "[^"]*"|"output_dir": "[^"]*"')
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
    sr = load_sr_json(out_dir / "sr_gamma_1.0.json")
    scrambled = out_dir / "scrambled.json"
    save_sr_json(replace(sr, state_words=list(reversed(sr.state_words))), scrambled)
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


def _edit_sr_fractional_horizon(doc):
    doc["horizon"] = 2.7


def _edit_sr_short_state_words(doc):
    doc["state_words"].pop()


def _edit_sr_state_words_to_string(doc):
    # a string of the state count's length: at most the word check can reject it
    doc["state_words"] = "s" * len(doc["values"])


def _edit_sr_state_words_to_ints(doc):
    doc["state_words"] = list(range(len(doc["values"])))


def _edit_sr_nested_state_words(doc):
    doc["state_words"] = [[word] for word in doc["state_words"]]


def _edit_sr_values_to_strings(doc):
    doc["values"] = [[str(value) for value in row] for row in doc["values"]]


def _edit_sr_true_value(doc):
    doc["values"][0][0] = True


def _edit_sr_null_values(doc):
    doc["values"] = None


def _edit_sr_gamma_to(value):
    def edit(doc):
        doc["gamma"] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_edit_sr_nan, "non-finite value"), (_edit_sr_ragged, "malformed"),
    (_edit_sr_negative, "non-negative"), (_edit_sr_gamma, "gamma must be in [0, 1], got 5.0"),
    (_edit_sr_fractional_horizon, "horizon must be an integer, got 2.7"),
    (_edit_sr_short_state_words, "successor matrix must be 8x8, got (9, 9)"),
    (_edit_sr_gamma_to(True), "gamma must be a real number, got True"),
    (_edit_sr_gamma_to("0.5"), "gamma must be a real number, got '0.5'"),
    (_edit_sr_values_to_strings, "each entry in values must be a real number, got '"),
    (_edit_sr_true_value, "each entry in values must be a real number, got True"),
    (_edit_sr_null_values, "each entry in values must be a real number, got None"),
    (_edit_sr_state_words_to_string, "state_words must be a list of words, got 'sss"),
    (_edit_sr_state_words_to_ints, "each entry in state_words must be a word, got 0"),
    (_edit_sr_nested_state_words, "each entry in state_words must be a word, got ['"),
], ids=["nan", "ragged", "negative", "gamma-5", "horizon-2.7", "short-state-words",
        "gamma-true", "gamma-string", "values-string", "values-true", "values-null",
        "state-words-string", "state-words-ints", "state-words-nested"])
def test_cli_train_rejects_bad_sr_envelope(tiny, tmp_path, capsys, edit, message):
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
    assert message in err
    assert not (out_dir / "m.json").exists()


def test_cli_train_rejects_sr_envelope_with_an_all_zero_row(tiny, tmp_path, capsys):
    # a row with no mass gives no target distribution
    out_dir = tmp_path / "flow"
    run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)
    sr = out_dir / "sr_gamma_1.0.json"
    doc = json.loads(sr.read_text(encoding="utf-8"))
    doc["values"][0] = [0.0] * len(doc["values"])
    sr.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "train", "--config", tiny["cfg"],
                             "--sr", sr, "--out", out_dir / "m.json")
    assert code == 1 and out == ""
    assert err == f"error: {sr}: successor matrix has a non-positive row sum\n"
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


def test_cli_gdv_report_that_cannot_be_written_prints_no_score(capsys, tmp_path):
    report = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "gdv", "--points", DATA_DIR / "gdv_fixture_1d.csv",
                             "--out", report)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert os.listdir(tmp_path) == []


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
    assert code == 1 and out == ""
    assert err == f"error: {points}: line 3: non-finite component for 'a1'\n"
    assert sorted(tmp_path.iterdir()) == [points]


@pytest.mark.parametrize("command", ["gdv", "project"])
@pytest.mark.parametrize("row, message", [
    ("a0,A,train,1.0", "duplicate word 'a0'"),
    ("a1,,train,1.0", "empty category for 'a1'"),
    ("a1,A,trian,1.0", "unknown split 'trian'"),
    ("a1,A,train,one", "non-numeric component for 'a1'"),
], ids=["duplicate-word", "empty-category", "misspelt-split", "non-numeric-component"])
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


@pytest.mark.parametrize("svg", ["p.csv", "./p.csv", "sub/../p.csv"])
def test_cli_project_rejects_one_file_for_both_outputs(tmp_path, capsys, svg):
    # the map would replace the CSV it was written after
    code, out, err = run_cli(capsys, "project", "--predictions", DATA_DIR / "gdv_fixture_1d.csv",
                             "--out-csv", tmp_path / "p.csv", "--out-svg", f"{tmp_path}/{svg}")
    assert code == 1 and out == ""
    assert err == f"error: --out-csv and --out-svg name one file: {tmp_path}/{svg}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-sr", "run"])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cli_names_vector_whose_norm_overflows_or_underflows(tiny, tmp_path, capsys,
                                                              command, scale):
    # finite components whose squared norm is inf (1e200) or 0 (1e-200)
    entries = dict(tiny["entries"])
    entries["r0"] = entries["r0"] * scale
    emb = tmp_path / "scaled.txt"
    save_embeddings(entries, emb)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, command, "--config", tiny["cfg"], "--embeddings", emb,
                             "--out-dir", out_dir)
    assert code == 1 and out == ""
    assert "vector for 'r0' has a norm too large or too small for float64 cosines" in err
    assert not out_dir.exists()


# -------------------------------------------------------- CLI: exit codes

def test_cli_unknown_flag_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "--frobnicate")
    assert code == 1 and "error:" in err


def test_cli_unknown_command_is_input_error(capsys):
    for command in ("transmogrify", "oracle"):
        code, out, err = run_cli(capsys, command)
        assert code == 1 and out == "" and f"invalid choice: '{command}'" in err


def test_cli_missing_input_file_is_input_error(tiny, tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--embeddings", tmp_path / "nope.txt",
                           "--out-dir", tmp_path / "out")
    assert code == 1 and "error:" in err


@pytest.fixture(scope="module")
def staged(tiny, tmp_path_factory):
    """The tiny set's SR envelope (gamma 1) and the checkpoint trained on it."""
    root = tmp_path_factory.mktemp("staged")
    sr, model = root / "sr_gamma_1.0.json", root / "model.json"
    assert main(["build-sr", "--config", str(tiny["cfg"]), "--out-dir", str(root)]) == 0
    assert main(["train", "--config", str(tiny["cfg"]), "--sr", str(sr), "--out", str(model)]) == 0
    return {"sr": sr, "model": model}


def _with_ff(data):  # a byte that never occurs in UTF-8
    return data[:30] + b"\xff" + data[30:]


def _truncated(data):
    return data[:len(data) // 2]


def _long_word(data):  # over the csv module's 131,072-character field limit
    return data.replace(b"a1,A,", b"a" * 200_000 + b",A,", 1)


def _deep(data):  # nested past the JSON parser's recursion limit
    return b"[" * 100_000


def _inputs(f):
    return ["--config", f["cfg"], "--lexicon", f["lexicon"], "--embeddings", f["embeddings"]]


def _build_sr(f, out):
    return ["build-sr", *_inputs(f), "--out-dir", out / "tree"]


def _gdv(f, out):
    return ["gdv", "--points", f["points"], "--out", out / "r.json"]


def _train(f, out):
    return ["train", *_inputs(f), "--sr", f["sr"], "--out", out / "m.json"]


def _predict(f, out):
    return ["predict", *_inputs(f), "--model", f["model"], "--out", out / "p.csv"]


def _project(f, out):
    return ["project", "--predictions", f["points"], "--out-csv", out / "p.csv",
            "--out-svg", out / "m.svg"]


def _run(f, out):
    return ["run", *_inputs(f), "--out-dir", out / "tree"]


# id -> (the input spoiled, how, the command that reads it)
UNREADABLE_INPUTS = {
    "lexicon-byte": ("lexicon", _with_ff, _build_sr),
    "embeddings-byte": ("embeddings", _with_ff, _build_sr),
    "config-byte": ("cfg", _with_ff, _build_sr),
    "points-byte-gdv": ("points", _with_ff, _gdv),
    "points-byte-project": ("points", _with_ff, _project),
    "checkpoint-byte": ("model", _with_ff, _predict),
    "sr-truncated": ("sr", _truncated, _train),
    "sr-empty": ("sr", lambda data: b"", _train),
    "checkpoint-truncated": ("model", _truncated, _predict),
    "points-long-word": ("points", _long_word, _gdv),
    "sr-deep": ("sr", _deep, _train),
    "checkpoint-deep": ("model", _deep, _predict),
    "run-lexicon-byte": ("lexicon", _with_ff, _run),
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_cli_input_that_does_not_decode_or_parse_names_its_file(tiny, staged, tmp_path, capsys,
                                                                case):
    # one line on stderr, the file named once, exit 1 and no output
    key, spoil, command = UNREADABLE_INPUTS[case]
    files = {"cfg": tiny["cfg"], "lexicon": tiny["lexicon"], "embeddings": tiny["embeddings"],
             "points": DATA_DIR / "gdv_fixture_1d.csv", **staged}
    bad = tmp_path / f"bad-{files[key].name}"
    bad.write_bytes(spoil(files[key].read_bytes()))
    files[key] = bad
    out = tmp_path / "out"
    out.mkdir()
    argv = command(files, out)
    code, stdout, err = run_cli(capsys, *argv)
    prefix = "error: stage load: " if argv[0] == "run" else "error: "
    assert code == 1 and stdout == ""
    assert err.startswith(f"{prefix}{bad}: ") and err.count("\n") == 1
    assert err.count(bad.name) == 1
    assert list(out.iterdir()) == []


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with_unknown_config_key(doc):
    return {**doc, "config": {**doc["config"], "width": 3}}


# id -> (the input spoiled, the JSON document that replaces it)
MALFORMED_INPUTS = {
    "checkpoint-without-w1": ("model", _without("w1")),
    "checkpoint-unknown-config-key": ("model", _with_unknown_config_key),
    "checkpoint-array": ("model", lambda doc: [doc]),
    "sr-without-gamma": ("sr", _without("gamma")),
    "sr-string": ("sr", lambda doc: "sr"),
}
# the input -> (the command that reads it, the start of its error)
MALFORMED_READERS = {"model": (_predict, "malformed model checkpoint ("),
                     "sr": (_train, "malformed successor-matrix envelope (")}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_cli_json_input_of_the_wrong_layout_names_its_file(tiny, staged, tmp_path, capsys, case):
    # valid JSON that is not a checkpoint or an envelope: exit 1, the file named, no output
    key, spoil = MALFORMED_INPUTS[case]
    command, message = MALFORMED_READERS[key]
    files = {"cfg": tiny["cfg"], "lexicon": tiny["lexicon"], "embeddings": tiny["embeddings"],
             **staged}
    bad = tmp_path / f"bad-{files[key].name}"
    bad.write_text(json.dumps(spoil(json.loads(files[key].read_text(encoding="utf-8")))),
                   encoding="utf-8")
    files[key] = bad
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = run_cli(capsys, *command(files, out))
    assert code == 1 and stdout == "" and err.count("\n") == 1
    assert err.startswith(f"error: {bad}: {message}")
    assert list(out.iterdir()) == []


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


def test_cli_stage_fault_is_internal_error_and_keeps_previous_tree(tiny, tmp_path, capsys,
                                                                  monkeypatch):
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "run", "--config", tiny["cfg"], "--out-dir", out_dir)[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def boom(model, vecs):
        raise ValueError("boom")

    monkeypatch.setattr("cogmap.pipeline.predict_all", boom)
    code, out, err = run_cli(capsys, "run", "--config", tiny["cfg"], "--out-dir", out_dir)
    assert code == 2 and out == ""
    assert err == "internal error: RuntimeError: stage predict gamma=1.0: boom\n"
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_cli_run_write_failure_names_the_write_stage_and_keeps_previous_tree(tiny, tmp_path,
                                                                           capsys, monkeypatch):
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "run", "--config", tiny["cfg"], "--out-dir", out_dir)[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def disk_full(model, path):
        raise OSError("disk full")

    monkeypatch.setattr("cogmap.pipeline.save_model", disk_full)
    code, out, err = run_cli(capsys, "run", "--config", tiny["cfg"], "--out-dir", out_dir)
    assert code == 1 and out == "" and err == "error: stage write gamma=1.0: disk full\n"
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


# --------------------------------------------------------------------- SVG

def test_svg_structure(tmp_path):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lex = Lexicon(words=["a", "b<c", "d&e", "f"], labels=["one", "one", "two", "two"],
                  splits=["train", "train", "validation", "train"])
    out = tmp_path / "m.svg"
    render_svg(LabeledPoints(lex, coords), out)
    text = out.read_text(encoding="utf-8")
    assert text.count("<circle") == 4
    assert text.count('stroke="#d62728"') == 2  # one ringed point + legend swatch
    assert "<title>b&lt;c</title>" in text and "<title>d&amp;e</title>" in text
    assert ">one</text>" in text and ">two</text>" in text and ">validation</text>" in text
    assert "<!-- generated" not in text
    # the map has no clock: a second render is byte-identical
    out2 = tmp_path / "m2.svg"
    render_svg(LabeledPoints(lex, coords), out2)
    assert out.read_bytes() == out2.read_bytes()


def test_svg_validation(tmp_path):
    out = tmp_path / "unused.svg"
    with pytest.raises(InputError, match="got shape \\(0, 2\\)"):
        render_svg(LabeledPoints(Lexicon([], [], []), np.zeros((0, 2))), out)
    with pytest.raises(InputError, match="1 lexicon rows for 2 points"):
        render_svg(LabeledPoints(Lexicon(["a"], ["x"], ["train"]), np.zeros((2, 2))), out)
    assert not out.exists()


def test_svg_gives_each_category_beyond_the_palette_its_own_color(tmp_path):
    labels = [f"c{i}" for i in range(7)]
    lex = Lexicon(words=[f"w{i}" for i in range(7)], labels=labels, splits=["train"] * 7)
    out = tmp_path / "m.svg"
    render_svg(LabeledPoints(lex, np.array([[float(i), float(i % 3)] for i in range(7)])), out)
    text = out.read_text(encoding="utf-8")
    legend = re.findall(r'<rect x="16" y="[^"]*" width="14" height="14" fill="(#[0-9a-f]{6})"/>',
                        text)
    assert len(legend) == 7 and len(set(legend)) == 7
    circles = re.findall(r'<circle [^>]* fill="(#[0-9a-f]{6})"', text)
    assert circles == legend  # one point per category, in legend order



# ---------------------------------------------------------------- package

def test_every_top_level_function_and_class_in_src_is_used_there():
    # what only the tests call lives in tests/oracles.py, not in the package
    defined, users = [], {}
    for path in sorted((REPO / "src" / "cogmap").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    users.setdefault(name, set()).add(owner)
    unused = [f"{module}.{name}" for module, name in defined
              if not users.get(name, set()) - {(module, name)}]
    assert unused == []
