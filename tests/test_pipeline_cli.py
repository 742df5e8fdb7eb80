"""Config resolution, pipeline orchestration, CLI subcommands, and the SVG map."""

import argparse
import ast
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

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

from oracles import assert_refused, save_embeddings, tree_listing

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


# ----------------------------------------------------------- configuration

def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\n\nseed = 9\nepochs=12  # trailing comment\n",
                 encoding="utf-8")
    assert parse_config_file(p) == {"seed": "9", "epochs": "12"}


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


@pytest.mark.parametrize("key,value,message", [
    ("epochs", "0", "epochs must be positive, got 0"),
    ("dropout_rate", "1.0", "dropout rate must be in [0, 1), got 1.0"),
    ("learning_rate", "-1", "learning rate must be finite and non-negative, got -1.0"),
    ("seed", "-1", "seed must be non-negative, got -1"),
], ids=["epochs-0", "dropout_rate-1.0", "learning_rate--1", "seed--1"])
def test_resolve_rejects_bad_network_settings(tmp_path, key, value, message):
    # checked when the config resolves, before any stage reads or writes a file
    assert_refused(lambda: resolve_config(overrides={key: value}), message, tmp_path)


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


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """A working directory that holds copies of default.cfg and data/, as the checkout's root does."""
    shutil.copy(REPO / "default.cfg", tmp_path)
    shutil.copytree(DATA_DIR, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def readme_block(section, language):
    """The one ```language block of README's `## section`, as written."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", body, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, section
    return blocks[0]


def run_readme_sh_block(section, capsys):
    for line in readme_block(section, "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cogmap", line
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (line, err)


def test_readme_quick_start_and_cli_blocks_run_as_written(workspace, capsys):
    # with `seed` as given, the CLI block's chain writes the files of the run's first gamma
    out = workspace / "out"
    run_readme_sh_block("Quick start", capsys)
    sr_files = ("transition.csv", "sr_gamma_1.0.csv")
    run_sr = [(out / name).read_bytes() for name in sr_files]
    run_readme_sh_block("CLI", capsys)
    assert [(out / name).read_bytes() for name in sr_files] == run_sr
    for chain, run in [("model.json", "model_gamma_1.0.json"),
                       ("preds.csv", "predictions_gamma_1.0.csv"),
                       ("proj.csv", "projection_gamma_1.0.csv"), ("map.svg", "map_gamma_1.0.svg")]:
        assert (out / chain).read_bytes() == (out / run).read_bytes(), chain


def test_readme_library_use_block_runs_as_written(workspace, capsys):
    # the block prints a GDV, then one bool per comparison
    exec(compile(readme_block("Library use", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("True") == 3 and "False" not in lines


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


SHIPPED_INPUTS = {"embeddings": str(DATA_DIR / "embeddings_300d.txt"),
                  "lexicon": str(DATA_DIR / "lexicon.csv")}


def numpy_defaults(*keys):
    """The defaults of `keys` as numpy scalars: np.int64 for an integer, np.float64 for a float."""
    return {key: np.asarray(getattr(PipelineConfig(), key))[()] for key in keys}


# two spellings of settings over the shipped inputs, whether they give one record, and whether
# they give one config_hash; relative paths name the workspace's copies of data/
SPELLINGS = {
    "resolved-twice": ({}, {}, True, True),
    "gammas-text": ({"gammas": "0.5, 0.25"}, {"gammas": [0.5, 0.25]}, True, True),
    "typed-values": ({"gammas": "1.0,0.3", "epochs": "2"}, {"gammas": [1.0, 0.3], "epochs": 2},
                     True, True),
    # -0.0 == 0.0 but would name a second scale: stored as 0.0
    "negative-zero-gamma": ({"gammas": "0"}, {"gammas": "-0"}, True, True),
    # a numpy integer used to make the hash raise, and gammas=[1, 0.3] hashed apart from [1.0, 0.3]
    "integer-gamma": ({}, {"gammas": [1, 0.3]}, True, True),
    "numpy-horizon-and-seed": ({}, numpy_defaults("horizon", "seed"), True, True),
    "numpy-network": ({}, numpy_defaults("epochs", "dropout_rate", "learning_rate"), True, True),
    "another-seed": ({}, {"seed": "1"}, False, False),
    # the same settings written to another directory are the same science
    "another-output-dir": ({}, {"output_dir": "elsewhere"}, False, True),
    # the hash covers the input's bytes, not its path text or its place
    "copied-input": ({}, {"lexicon": "data/lexicon.csv"}, False, True),
    "dotted-path": ({"lexicon": "data/lexicon.csv"}, {"lexicon": "./data/lexicon.csv"}, False, True),
    "path-object": ({"lexicon": "data/lexicon.csv"}, {"lexicon": Path("data/lexicon.csv")},
                    True, True),
    "edited-input": ({}, {"lexicon": "edited.csv"}, False, False),  # written by the test
}


@pytest.mark.parametrize("a,b,same_record,same_hash", SPELLINGS.values(), ids=SPELLINGS)
def test_config_spellings_record_and_hash(workspace, a, b, same_record, same_hash):
    data = bytearray((DATA_DIR / "lexicon.csv").read_bytes())
    data[-2] ^= 1  # the last character of the last split name
    (workspace / "edited.csv").write_bytes(bytes(data))
    plain = [type(v) for v in vars(PipelineConfig(**SHIPPED_INPUTS)).values()]
    configs = [resolve_config(SHIPPED_INPUTS, spelling) for spelling in (a, b)]
    hashes = [config_hash(config) for config in configs]
    for config, digest in zip(configs, hashes):
        # plain numbers and path text, so one run has one hash
        assert [type(v) for v in vars(config).values()] == plain
        assert {type(g) for g in config.gammas} == {float}
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert (configs[0] == configs[1]) == same_record
    assert (hashes[0] == hashes[1]) == same_hash


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


# ---------------------------------------------------------------- pipeline

def test_fit_scale_with_seed_plus_i_reproduces_each_scale_of_a_run(tiny, tmp_path):
    # the i-th scale of a run is fit_scale on its SR with the config's seed moved on by i: the
    # same files and the same manifest entry; the manifest on disk is the one returned
    out_dir = tmp_path / "out"
    config = resolve_config(parse_config_file(tiny["cfg"]), {"output_dir": str(out_dir)})
    manifest = run_pipeline(config)
    assert json.loads((out_dir / "manifest.json").read_text(encoding="utf-8")) == manifest
    assert manifest["config_hash"] == config_hash(config)
    assert [(run["gamma"], run["seed"]) for run in manifest["runs"]] == [(1.0, 7), (0.3, 8)]
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
        assert all((out_dir / name).is_file() for name in run["files"].values())
        for space in ("gdv_prediction_space", "gdv_projection_2d"):
            assert list(run[space]) == ["all", "train", "validation"]
            assert all(-2.0 < value < 2.0 for value in run[space].values())


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
        assert run["excess_model_loss"] == run["final_model_loss"] - run["target_entropy"]
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


def shipped_lexicon_lines(keep):
    """The shipped lexicon's lines for which `keep(word, category, split)` holds."""
    lines = (DATA_DIR / "lexicon.csv").read_text(encoding="utf-8").splitlines()
    return lines[:1] + [line for line in lines[1:] if keep(*line.split(","))]


def test_failed_rerun_leaves_previous_tree_untouched(tiny, tmp_path):
    out_dir = tmp_path / "out"
    base = parse_config_file(tiny["cfg"])
    run_pipeline(resolve_config(base, {"output_dir": str(out_dir), "epochs": "2"}))
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    diverging = resolve_config(base, {"output_dir": str(out_dir), "epochs": "2",
                                      "learning_rate": "1e300"})
    with pytest.raises(InputError, match=r"^stage train gamma=1\.0: non-finite loss at epoch 1$"):
        run_pipeline(diverging)
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


# --------------------------------------------------------------- CLI: run

def test_cli_run_end_to_end(tiny, tmp_path, capsys):
    out_dir = tmp_path / "cli-out"
    code, out, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                             "--out-dir", out_dir)
    assert code == 0 and err == ""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    # each scale's line gives the loss of the model its GDVs describe
    lines = out.splitlines()
    assert lines[0] == f"wrote {out_dir / 'manifest.json'}" and len(lines) == 3
    for line, run in zip(lines[1:], manifest["runs"]):
        assert line.startswith(f"gamma={run['gamma']}  ")
        assert line.endswith(f"  model-loss={run['final_model_loss']:.6f}")
    expected = {"transition.csv", "manifest.json"}
    for tag in ("1.0", "0.3"):
        expected |= {f"sr_gamma_{tag}.csv", f"model_gamma_{tag}.json",
                     f"predictions_gamma_{tag}.csv", f"projection_gamma_{tag}.csv",
                     f"map_gamma_{tag}.svg", f"gdv_gamma_{tag}.json"}
    assert {p.name for p in out_dir.iterdir()} == expected
    assert manifest["runs"][0]["files"]["map_svg"] == "map_gamma_1.0.svg"


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


# a target that is a directory is a row of the exit-1 table; this failure is injected
@pytest.mark.parametrize("message", ["disk full"], ids=["write-fails"])
def test_failed_build_sr_leaves_the_previous_tree_byte_identical(tiny, tmp_path, capsys,
                                                                   monkeypatch, message):
    out_dir = tmp_path / "sr-out"
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", out_dir)[0] == 0
    calls = []

    def second_call_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(message)
        save_sr_json(*args)

    monkeypatch.setattr("cogmap.cli.save_sr_json", second_call_fails)
    before = tree_listing(out_dir)
    # another horizon, so every SR file the failed command reached would differ
    code, out, err = run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--horizon", 3,
                             "--out-dir", out_dir)
    assert code == 1 and out == "" and err == f"error: {message}\n"
    assert tree_listing(out_dir) == before


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


def test_cli_chain_reproduces_run_byte_for_byte(tiny, tmp_path, capsys):
    # `run` seeds its i-th gamma with seed + i and `train` seeds with --seed as
    # given, so the chain gets run's model and predictions from --seed 7 + i, and
    # each command's line reports what the run's manifest records
    run_dir, flow = tmp_path / "run", tmp_path / "flow"
    assert run_cli(capsys, "run", "--config", tiny["cfg"], "--out-dir", run_dir)[0] == 0
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert run_cli(capsys, "build-sr", "--config", tiny["cfg"], "--out-dir", flow) == (
        0, f"wrote {flow / 'transition.csv'}\n"
           f"wrote {flow / 'sr_gamma_1.0.csv'} and .json (gamma=1.0, horizon=5)\n"
           f"wrote {flow / 'sr_gamma_0.3.csv'} and .json (gamma=0.3, horizon=5)\n", "")
    training_words = load_lexicon(tiny["lexicon"]).words[:9]
    for i, (tag, run) in enumerate(zip(["1.0", "0.3"], manifest["runs"])):
        sr = load_sr_json(flow / f"sr_gamma_{tag}.json")
        assert (sr.gamma, sr.horizon, sr.state_words) == (run["gamma"], 5, training_words)
        model, preds = flow / f"model_gamma_{tag}.json", flow / f"predictions_gamma_{tag}.csv"
        assert run_cli(capsys, "train", "--config", tiny["cfg"], "--seed", 7 + i,
                       "--sr", flow / f"sr_gamma_{tag}.json", "--out", model) == (
            0, f"wrote {model} (first-epoch loss {run['first_epoch_loss']:.6f}, "
               f"final loss {run['final_train_loss']:.6f})\n", "")
        assert run_cli(capsys, "predict", "--config", tiny["cfg"], "--model", model,
                       "--split", "all", "--out", preds) == (
            0, f"wrote {preds} (15 distributions over 9 states)\n", "")
        assert preds.read_text(encoding="utf-8").startswith("word,category,split,v0,")
        for path in (model, preds, flow / f"sr_gamma_{tag}.csv"):
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name
    assert (flow / "transition.csv").read_bytes() == (run_dir / "transition.csv").read_bytes()
    # the map is a function of the predictions alone, so `project` writes run's map too
    run = manifest["runs"][0]
    proj, svg = flow / "projection_gamma_1.0.csv", flow / "map_gamma_1.0.svg"
    assert run_cli(capsys, "project", "--predictions", flow / "predictions_gamma_1.0.csv",
                   "--out-csv", proj, "--out-svg", svg) == (
        0, f"wrote {proj} and {svg} (stress {run['mds_stress']:.6g})\n", "")
    assert proj.read_text(encoding="utf-8").startswith("word,category,split,x,y\n")
    assert svg.read_text(encoding="utf-8").count("<circle") == 15
    for path in (proj, svg):
        assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name
    planar = run["gdv_projection_2d"]
    assert run_cli(capsys, "gdv", "--points", proj) == (0, f"{planar['all']:.4f}\n", "")
    assert run_cli(capsys, "gdv", "--points", proj, "--split", "validation") == (
        0, f"{planar['validation']:.4f}\n", "")


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


@pytest.mark.parametrize("limits", [None, {"train": 10, "validation": 5}],
                         ids=["shipped", "cut-45"])
def test_cli_predict_gives_the_runs_validation_rows(workspace, capsys, limits):
    # predict takes each word on its own, so a word's row does not depend on the words
    # beside it: a batched pass over the 45-word cut rounds its validation rows differently
    lexicon = "data/lexicon.csv"
    if limits:
        seen = Counter()

        def first_of_each_category(word, category, split):
            seen[category, split] += 1
            return seen[category, split] <= limits[split]

        lexicon = "lexicon45.csv"
        lines = shipped_lexicon_lines(first_of_each_category)
        assert len(lines) == 46
        (workspace / lexicon).write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli(capsys, "run", "--config", "default.cfg", "--lexicon", lexicon,
                   "--epochs", 2)[0] == 0
    splits = load_lexicon(workspace / lexicon).splits
    assert run_cli(capsys, "predict", "--config", "default.cfg", "--lexicon", lexicon,
                   "--model", "out/model_gamma_1.0.json", "--split", "validation",
                   "--out", "validation.csv") == (
        0, f"wrote validation.csv ({splits.count('validation')} distributions over "
           f"{splits.count('train')} states)\n", "")
    predicted = (workspace / "validation.csv").read_bytes().splitlines()[1:]
    run_rows = (workspace / "out" / "predictions_gamma_1.0.csv").read_bytes().splitlines()
    assert predicted == [row for row in run_rows if b",validation," in row]


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


# ------------------------------------------------- CLI: the exit-1 contract

@pytest.fixture(scope="module")
def staged(tiny, tmp_path_factory):
    """The tiny set's SR envelope (gamma 1) and the checkpoint trained on it."""
    root = tmp_path_factory.mktemp("staged")
    sr, model = root / "sr_gamma_1.0.json", root / "model.json"
    assert main(["build-sr", "--config", str(tiny["cfg"]), "--out-dir", str(root)]) == 0
    assert main(["train", "--config", str(tiny["cfg"]), "--sr", str(sr), "--out", str(model)]) == 0
    return {"sr": sr, "model": model}


class Row(NamedTuple):
    """One input that a command must refuse with exit 1.

    `argv` and `error` name files by placeholder: {cfg}, {embeddings} and {lexicon} (the
    tiny set), {sr} and {model} (the staged envelope and checkpoint), {points} (the GDV
    fixture), {tmp} (the row's own directory), {repo} and {data}.
    """

    id: str  # the case's id under its test name; None for a test of one case
    argv: str
    error: str  # the stderr line after `error: `
    spoil: tuple = None  # (placeholder, bytes -> bytes): the row reads a spoiled copy of that file
    tree: dict = None  # path under {tmp} -> its text, or None for a directory, made beforehand
    prefix: bool = False  # the line's tail varies with the numpy, Python or argparse version


INPUTS = "--config {cfg} --embeddings {embeddings} --lexicon {lexicon} "
ARGV = {"build-sr": "build-sr " + INPUTS + "--out-dir {tmp}/out",
        "train": "train " + INPUTS + "--sr {sr} --out {tmp}/m.json",
        "predict": "predict " + INPUTS + "--model {model} --out {tmp}/p.csv",
        "project": "project --predictions {points} --out-csv {tmp}/p.csv --out-svg {tmp}/m.svg",
        "gdv": "gdv --points {points} --out {tmp}/r.json",
        "run": "run " + INPUTS + "--out-dir {tmp}/out"}
UTF8 = "'utf-8' codec can't decode byte 0xff in position 30: invalid start byte"
NORM = "vector for 'r0' has a norm too large or too small for float64 cosines"


def _lines(*lines):
    return lambda data: "".join(line + "\n" for line in lines).encode()


def _appended(line):
    return lambda data: data + line.encode() + b"\n"


def _a1_row(row):  # the GDV fixture with the row of `a1` replaced
    return lambda data: data.replace(b"a1,A,train,1.0", row.encode())


def _r0_components(value):  # the tiny set's 8 components of `r0`, each `value`
    return lambda data: re.sub(rb"(?m)^r0 .*$", b"r0" + (" " + value).encode() * 8, data)


def _without_validation_rows(data):
    return b"".join(line for line in data.splitlines(True) if not line.endswith(b",validation\n"))


def _with_ff(data):  # a byte that never occurs in UTF-8
    return data[:30] + b"\xff" + data[30:]


def _truncated(data):
    return data[:len(data) // 2]


def _long_word(data):  # over the csv module's 131,072-character field limit
    return data.replace(b"a1,A,", b"a" * 200_000 + b",A,", 1)


def _deep(data):  # nested past the JSON parser's recursion limit
    return b"[" * 100_000


def _json(edit):
    """A spoiler that passes a JSON file's document through `edit`."""
    return lambda data: json.dumps(edit(json.loads(data))).encode()


def _first(doc, key, value):
    """`doc` with the first entry of its `key` matrix set to `value`."""
    return {**doc, key: [[value, *doc[key][0][1:]], *doc[key][1:]]}


def _beyond_float(edit):  # JSON 1e400 parses to inf: the file's fault, before arithmetic warns
    return lambda data: _json(edit)(data).replace(b"1234.5", b"1e400")


def _scaled(factor):  # the GDV fixture with every component times `factor`
    return lambda data: re.sub(rb"(?m),([0-9.]+)$",
                               lambda m: b"," + repr(float(m[1]) * factor).encode(), data)


def _digits(key, count):  # the JSON integer of `key` spelt with `count` nines
    return lambda data: re.sub(rf'"{key}": \d+'.encode(), f'"{key}": {"9" * count}'.encode(), data)


def _bad_sr(case, edit, message, prefix=False):
    """A `train` row reading the staged SR envelope passed through `edit`."""
    return Row(case, ARGV["train"], "{sr}: " + message, ("sr", _json(edit)), prefix=prefix)


def _unrecognized(*cases):
    """`<command>-flags<i>` rows: the i-th (command, flags) pair, given flags the command lacks."""
    return [Row(f"{command}-flags{i}", ARGV[command] + " " + flags,
                "unrecognized arguments: " + flags) for i, (command, flags) in enumerate(cases)]


# test name -> its rows, under the test names and ids that earlier results record
EXIT_1 = {
    "test_config_file_rejects_a_key_given_twice": [
        Row(None, ARGV["build-sr"], "{cfg}: line 3: duplicate config key 'epochs'",
            ("cfg", _lines("epochs = 3", "seed = 1", "epochs = 5")))],
    "test_config_file_with_removed_key_is_input_error": [
        Row(line, ARGV["run"], "{cfg}: line 9: unknown config key '" + line.split()[0] + "'",
            ("cfg", _appended(line)))
        for line in ("zero_diagonal = false", "smacof_iterations = 0", "batch_size = 20",
                     "momentum = 0.9", "hidden_dim = 128")],
    "test_cli_removed_flags_are_usage_errors": _unrecognized(
        ("run", "--zero-diagonal"), ("project", "--config {repo}/default.cfg"),
        ("project", "--smacof-iterations 4"), ("run", "--batch-size 20"),
        ("run", "--momentum 0.9"), ("train", "--batch-size 20"), ("train", "--momentum 0.9"),
        ("run", "--hidden-dim 128"), ("train", "--hidden-dim 128")),
    # each flag has one spelling: `--gamma` is not read as `--gammas`, nor `--epoch` as `--epochs`
    "test_cli_flag_prefixes_are_usage_errors": _unrecognized(
        ("build-sr", "--gamma 0.5"), ("run", "--gamma 0.5"), ("train", "--epoch 2")),
    "test_cli_project_rejects_flags_it_never_reads": [
        Row(None, ARGV["project"] + " --seed 3", "unrecognized arguments: --seed 3")],
    "test_cli_unknown_flag_is_input_error": [
        Row(None, "run --frobnicate", "unrecognized arguments: --frobnicate")],
    "test_cli_unknown_command_is_input_error": [
        Row(None, "transmogrify", "argument command: invalid choice: 'transmogrify'", prefix=True)],
    # equal tags name the same artifact files, so one run would overwrite another
    "test_cli_run_duplicate_gammas_is_input_error": [
        Row("0.5,0.5", ARGV["run"] + " --gammas 0.5,0.5", "gammas must be distinct, got 0.5, 0.5"),
        Row("1,1.0", ARGV["run"] + " --gammas 1,1.0", "gammas must be distinct, got 1.0, 1.0"),
        # -0.0 == 0.0 but str(-0.0) == "-0.0", so the two once passed as distinct scales
        Row("0,-0", ARGV["run"] + " --gammas 0,-0", "gammas must be distinct, got 0.0, 0.0")],
    "test_cli_unparsable_value_names_its_key": [
        Row("--epochs-epochs", ARGV["run"] + " --epochs x",
            "config key epochs expects an integer, got 'x'"),
        Row("--learning-rate-learning_rate", ARGV["run"] + " --learning-rate x",
            "config key learning_rate expects a number, got 'x'"),
        Row("--gammas-gammas", ARGV["run"] + " --gammas abc",
            "config key gammas expects comma-separated numbers, got 'abc'")],
    "test_cli_nonfinite_learning_rate_is_input_error": [
        Row(rate, ARGV["run"] + " --learning-rate " + rate,
            "learning rate must be finite and non-negative, got " + rate)
        for rate in ("nan", "inf")],
    # rejected while the config resolves, before any stage reads or writes
    "test_cli_negative_seed_is_input_error": [
        Row(None, ARGV["run"] + " --seed -1", "seed must be non-negative, got -1",
            tree={"out/keep.txt": "previous run\n"})],
    # a learning rate that makes training diverge is a settings problem
    "test_cli_diverging_training_is_input_error": [
        Row("run", ARGV["run"] + " --epochs 2 --learning-rate 1e300",
            "stage train gamma=1.0: non-finite loss at epoch 1"),
        Row("train", ARGV["train"] + " --epochs 2 --learning-rate 1e300",
            "non-finite loss at epoch 1")],
    "test_cli_missing_input_file_is_input_error": [
        Row(None, "run --config {cfg} --embeddings {tmp}/nope.txt --out-dir {tmp}/out",
            "stage load: [Errno 2] No such file or directory: '{tmp}/nope.txt'")],
    "test_failed_command_creates_no_output_directory": [
        Row(command, command + " --config {cfg} --lexicon {tmp}/nonexistent.csv"
                               " --out-dir {tmp}/fresh/nested",
            stage + "[Errno 2] No such file or directory: '{tmp}/nonexistent.csv'")
        for command, stage in (("run", "stage load: "), ("build-sr", ""))],
    "test_cli_build_sr_rejects_bad_embeddings_header": [
        Row("empty", ARGV["build-sr"],
            "{embeddings}: line 1: empty file, expected `<count> <dimension>` header",
            ("embeddings", _lines())),
        Row("non-integer-count", ARGV["build-sr"], "{embeddings}: line 1: malformed header '2.5 8'",
            ("embeddings", _lines("2.5 8"))),
        Row("negative-count", ARGV["build-sr"],
            "{embeddings}: line 1: header needs count >= 0 and dimension >= 1",
            ("embeddings", _lines("-1 8")))],
    # finite components whose squared norm is inf (1e200) or 0 (1e-200)
    "test_cli_names_vector_whose_norm_overflows_or_underflows": [
        Row(f"{value}-{command}", ARGV[command], stage + NORM,
            ("embeddings", _r0_components(value)))
        for value in ("1e+200", "1e-200")
        for command, stage in (("build-sr", ""), ("run", "stage transition: "))],
    # every command that needs the training states says the same when there are none
    "test_cli_build_sr_rejects_bad_lexicon": [
        Row("four-fields", ARGV["build-sr"], "{lexicon}: line 2: expected 3 fields, found 4",
            ("lexicon", _lines("word,category,split", "r0,reds,train,extra"))),
        Row("empty-word", ARGV["build-sr"], "{lexicon}: line 2: empty word",
            ("lexicon", _lines("word,category,split", ",reds,train")))] + [
        Row(case, ARGV[command], "no points with split 'train'",
            ("lexicon", _lines("word,category,split", "r3,reds,validation",
                               "g3,greens,validation")))
        for case, command in (("no-training-rows", "build-sr"),
                              ("no-training-rows-train", "train"))],
    "test_run_rejects_lexicon_the_gdv_cannot_score_in_load": [
        Row(case, "run --config {repo}/default.cfg --embeddings {data}/embeddings_300d.txt"
                  " --lexicon {lexicon} --out-dir {tmp}/out", "stage load: " + message,
            ("lexicon", _lines(*shipped_lexicon_lines(keep))),
            tree={"out/manifest.json": "previous run\n"})
        for case, keep, message in (
            # one furniture validation word: the validation split has a singleton class
            ("singleton-class", lambda w, c, s: s == "train" or c != "furniture" or w == "futon",
             "class 'furniture' has 1 point(s); GDV needs at least 2"),
            ("one-class", lambda w, c, s: c == "animals", "GDV needs at least 2 classes, got 1"),
            ("no-validation", lambda w, c, s: s == "train", "no points with split 'validation'"))],
    # the training states match the model; the lexicon just has no validation rows
    "test_cli_predict_rejects_a_split_the_lexicon_lacks": [
        Row(None, ARGV["predict"] + " --split validation", "no points with split 'validation'",
            ("lexicon", _without_validation_rows))],
    "test_cli_train_rejects_mismatched_state_words": [
        Row(None, ARGV["train"],
            "{sr}: state word 1 is 'b2', but training word 1 of the lexicon is 'r0'",
            ("sr", _json(lambda d: {**d, "state_words": d["state_words"][::-1]})))],
    # reported against the file, not as a training failure or a numpy error
    "test_cli_train_rejects_bad_sr_envelope": [
        _bad_sr("nan", lambda d: _first(d, "values", math.nan), "non-finite value NaN"),
        _bad_sr("ragged", lambda d: {**d, "values": [d["values"][0][:-1], *d["values"][1:]]},
                "malformed values (rows of unequal length)"),
        _bad_sr("negative", lambda d: _first(d, "values", -0.5),
                "successor entries must be non-negative"),
        _bad_sr("gamma-5", lambda d: {**d, "gamma": 5}, "gamma must be in [0, 1], got 5.0"),
        _bad_sr("horizon-2.7", lambda d: {**d, "horizon": 2.7},
                "horizon must be an integer, got 2.7"),
        _bad_sr("short-state-words", lambda d: {**d, "state_words": d["state_words"][:-1]},
                "successor matrix must be 8x8, got (9, 9)"),
        _bad_sr("gamma-true", lambda d: {**d, "gamma": True},
                "gamma must be a real number, got True"),
        _bad_sr("gamma-string", lambda d: {**d, "gamma": "0.5"},
                "gamma must be a real number, got '0.5'"),
        _bad_sr("values-string",
                lambda d: {**d, "values": [[str(v) for v in row] for row in d["values"]]},
                "each entry in values must be a real number, got '", prefix=True),
        _bad_sr("values-true", lambda d: _first(d, "values", True),
                "each entry in values must be a real number, got True"),
        _bad_sr("values-null", lambda d: {**d, "values": None},
                "each entry in values must be a real number, got None"),
        # a string of the state count's length: at most the word check can reject it
        _bad_sr("state-words-string", lambda d: {**d, "state_words": "s" * len(d["values"])},
                "state_words must be a list of words, got 'sssssssss'"),
        _bad_sr("state-words-ints", lambda d: {**d, "state_words": list(range(len(d["values"])))},
                "each entry in state_words must be a word, got 0"),
        _bad_sr("state-words-nested",
                lambda d: {**d, "state_words": [[w] for w in d["state_words"]]},
                "each entry in state_words must be a word, got ['r0']")],
    # a row with no mass gives no target distribution
    "test_cli_train_rejects_sr_envelope_with_an_all_zero_row": [
        _bad_sr(None, lambda d: {**d, "values": [[0.0] * len(d["values"]), *d["values"][1:]]},
                "successor matrix has a non-positive row sum")],
    "test_cli_predict_rejects_short_bias_checkpoint": [
        Row(None, ARGV["predict"],
            "{model}: parameter shapes do not match the config: b1 is (127,), expected (128,)",
            ("model", _json(lambda d: {**d, "b1": d["b1"][:-1]})))],
    "test_cli_out_of_range_number_is_reported_against_the_file": [
        Row("train", ARGV["train"], "{sr}: non-finite value inf in values",
            ("sr", _beyond_float(lambda d: _first(d, "values", 1234.5)))),
        Row("predict", ARGV["predict"], "{model}: non-finite value inf in b2",
            ("model", _beyond_float(lambda d: {**d, "b2": [*d["b2"][:-1], 1234.5]})))],
    # valid JSON that is not a checkpoint or an envelope
    "test_cli_json_input_of_the_wrong_layout_names_its_file": [
        Row("checkpoint-without-w1", ARGV["predict"],
            "{model}: malformed model checkpoint (missing key 'w1')",
            ("model", _json(lambda d: {k: v for k, v in d.items() if k != "w1"}))),
        Row("checkpoint-unknown-config-key", ARGV["predict"],
            "{model}: malformed model checkpoint (unknown config key 'width')",
            ("model", _json(lambda d: {**d, "config": {**d["config"], "width": 3}}))),
        Row("checkpoint-config-array", ARGV["predict"],
            "{model}: malformed model checkpoint (config is not a JSON object)",
            ("model", _json(lambda d: {**d, "config": [d["config"]]}))),
        Row("checkpoint-without-seed", ARGV["predict"],
            "{model}: malformed model checkpoint (missing key 'seed')",
            ("model", _json(lambda d: {**d, "config": {k: v for k, v in d["config"].items()
                                                       if k != "seed"}}))),
        Row("checkpoint-array", ARGV["predict"],
            "{model}: malformed model checkpoint (not a JSON object)",
            ("model", _json(lambda d: [d]))),
        # the arrays are checked before the config sizes an allocation, so a billion inputs
        # ask for no memory
        Row("checkpoint-billion-inputs", ARGV["predict"],
            "{model}: parameter shapes do not match the config: "
            "w1 is (128, 8), expected (128, 1000000000)",
            ("model", _json(lambda d: {**d, "config": {**d["config"], "input_dim": 10 ** 9}}))),
        Row("sr-without-gamma", ARGV["train"],
            "{sr}: malformed successor-matrix envelope (missing key 'gamma')",
            ("sr", _json(lambda d: {k: v for k, v in d.items() if k != "gamma"}))),
        Row("sr-string", ARGV["train"],
            "{sr}: malformed successor-matrix envelope (not a JSON object)",
            ("sr", _json(lambda d: "sr")))],
    "test_cli_input_that_does_not_decode_or_parse_names_its_file": [
        Row("lexicon-byte", ARGV["build-sr"], "{lexicon}: " + UTF8, ("lexicon", _with_ff)),
        Row("embeddings-byte", ARGV["build-sr"], "{embeddings}: " + UTF8, ("embeddings", _with_ff)),
        Row("config-byte", ARGV["build-sr"], "{cfg}: " + UTF8, ("cfg", _with_ff)),
        Row("points-byte-gdv", ARGV["gdv"], "{points}: " + UTF8, ("points", _with_ff)),
        Row("points-byte-project", ARGV["project"], "{points}: " + UTF8, ("points", _with_ff)),
        Row("checkpoint-byte", ARGV["predict"], "{model}: " + UTF8, ("model", _with_ff)),
        Row("run-lexicon-byte", ARGV["run"], "stage load: {lexicon}: " + UTF8,
            ("lexicon", _with_ff)),
        # where the parser stops depends on the digits numpy computed for the file
        Row("sr-truncated", ARGV["train"], "{sr}: Expecting ", ("sr", _truncated), prefix=True),
        Row("checkpoint-truncated", ARGV["predict"], "{model}: Expecting ", ("model", _truncated),
            prefix=True),
        Row("sr-empty", ARGV["train"], "{sr}: Expecting value: line 1 column 1 (char 0)",
            ("sr", _lines())),
        Row("sr-deep", ARGV["train"], "{sr}: JSON nested too deeply to parse", ("sr", _deep)),
        Row("checkpoint-deep", ARGV["predict"], "{model}: JSON nested too deeply to parse",
            ("model", _deep)),
        Row("points-long-word", ARGV["gdv"], "{points}: field larger than field limit (131072)",
            ("points", _long_word))],
    "test_cli_gdv_report_that_cannot_be_written_prints_no_score": [
        Row(None, "gdv --points {points} --out {tmp}/missing/r.json",
            "[Errno 2] No such file or directory: '{tmp}/missing/r.json'")],
    "test_cli_gdv_split_without_points_fails": [
        Row(None, ARGV["gdv"] + " --split validation", "no points with split 'validation'")],
    "test_cli_nonfinite_points_are_input_errors": [
        Row(f"{token}-{command}", ARGV[command], "{points}: line 3: non-finite component for 'a1'",
            ("points", _a1_row("a1,A,train," + token)))
        for token in ("nan", "inf") for command in ("gdv", "project")],
    "test_cli_points_csv_gets_the_lexicon_row_checks": [
        Row(f"{case}-{command}", ARGV[command], "{points}: line 3: " + message,
            ("points", _a1_row(row)))
        for case, row, message in (
            ("duplicate-word", "a0,A,train,1.0", "duplicate word 'a0'"),
            ("empty-category", "a1,,train,1.0", "empty category for 'a1'"),
            ("misspelt-split", "a1,A,trian,1.0", "unknown split 'trian'"),
            ("non-numeric-component", "a1,A,train,one", "non-numeric component for 'a1'"))
        for command in ("gdv", "project")],
    # the map would replace the CSV it was written after
    "test_cli_project_rejects_one_file_for_both_outputs": [
        Row(svg, "project --predictions {points} --out-csv {tmp}/p.csv --out-svg {tmp}/" + svg,
            "--out-csv and --out-svg name one file: {tmp}/" + svg)
        for svg in ("p.csv", "./p.csv", "sub/../p.csv")],
    # the cases with no test name of their own; a new case is a row here
    "test_cli_exit_1_contract": [
        # an older tree whose transition.csv is a directory: the commit fails before any file moves
        Row("target-is-a-directory", ARGV["build-sr"],
            "[Errno 21] Is a directory: '{tmp}/out/transition.csv'",
            tree={"out/transition.csv": None, "out/manifest.json": '{"old": true}\n'}),
        Row("removed-command", "oracle", "argument command: invalid choice: 'oracle'", prefix=True),
        Row("no-command", "", "the following arguments are required: command"),
        Row("train-without-sr-and-out", "train --config {cfg}",
            "the following arguments are required: --sr, --out"),
        Row("predict-without-model-and-out", "predict --config {cfg}",
            "the following arguments are required: --model, --out"),
        Row("project-without-outputs", "project --predictions {points}",
            "the following arguments are required: --out-csv, --out-svg"),
        Row("gdv-without-points", "gdv", "the following arguments are required: --points"),
        Row("config-line-without-equals", ARGV["build-sr"], "{cfg}: line 1: expected key=value",
            ("cfg", _lines("just-a-token"))),
        # each setting is checked when the config resolves, before any stage reads or writes
        *(Row(f"{flag[2:]}-{value}", ARGV["run"] + f" {flag} {value}", message)
          for flag, value, message in (
              ("--gammas", "1.5", "gamma must be in [0, 1], got 1.5"),
              ("--gammas", "nan", "gamma must be in [0, 1], got nan"),  # NaN fails every comparison
              ("--gammas", ",", "gammas must be a nonempty list"),
              ("--horizon", "-1", "horizon must be non-negative, got -1"))),
        # the load stage names the first lexicon word that the embedding file lacks
        Row("missing-word", ARGV["run"], "stage load: lexicon word 'yeti' missing from embedding table",
            ("lexicon", _appended("yeti,reds,validation"))),
        # no component columns: `gdv` would print nan and `project` draw an all-zero map
        *(Row(f"no-components-{command}", ARGV[command],
              "{points}: no component columns after `word,category,split`",
              ("points", _lines("word,category,split", "a,x,train", "b,y,train")))
          for command in ("gdv", "project")),
        # past CPython's 4,300-digit limit on int() of text, which Python versions apply and
        # word differently: refused in one text on every version
        Row("sr-horizon-5000-digits", ARGV["train"],
            "{sr}: integer of 5000 digits exceeds the 4300-digit limit",
            ("sr", _digits("horizon", 5000))),
        Row("checkpoint-seed-5000-digits", ARGV["predict"],
            "{model}: integer of 5000 digits exceeds the 4300-digit limit",
            ("model", _digits("seed", 5000))),
        Row("seed-5000-digits", ARGV["run"] + " --seed " + "9" * 5000,
            "config key seed: integer of 5000 digits exceeds the 4300-digit limit"),
        # finite values whose squares or sums overflow: the GDV would read 0 and the map fail
        Row("overflowing-points-gdv", ARGV["gdv"],
            "a component's sum or sum of squared deviations overflows float64",
            ("points", _scaled(1e160))),
        Row("overflowing-points-project", ARGV["project"],
            "the points' squared distances or Gram matrix overflow float64",
            ("points", _scaled(1e160))),
        Row("overflowing-sr-train", ARGV["train"], "{sr}: successor matrix row sums overflow float64",
            ("sr", _json(lambda d: {**d, "values": [[1e308] * len(row) for row in d["values"]]})))],
}


def _exit_1_test(rows):
    """The contract test over `rows`: parametrized by their ids, or bare for one row without one.

    Each row exits 1 with nothing on stdout and one stderr line, `error: <the row's error>`
    (a prefix row's line starts so), and leaves its directory as it found it.
    """
    def test(row, tiny, staged, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a path left to its default lands in the checked directory
        files = {"cfg": tiny["cfg"], "embeddings": tiny["embeddings"], "lexicon": tiny["lexicon"],
                 **staged, "points": DATA_DIR / "gdv_fixture_1d.csv", "tmp": tmp_path,
                 "repo": REPO, "data": DATA_DIR}
        for name, text in (row.tree or {}).items():
            path = tmp_path / name
            if text is None:
                path.mkdir(parents=True)
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
        if row.spoil:
            key, spoil = row.spoil
            bad = tmp_path / f"bad-{files[key].name}"
            bad.write_bytes(spoil(files[key].read_bytes()))
            files[key] = bad
        before = tree_listing(tmp_path)
        code, out, err = run_cli(capsys, *(arg.format(**files) for arg in row.argv.split()))
        line = "error: " + row.error.format(**files)
        assert (code, out) == (1, "")
        if row.prefix:
            assert err.startswith(line) and err.endswith("\n") and err.count("\n") == 1, err
        else:
            assert err == line + "\n"
        assert tree_listing(tmp_path) == before

    if rows[0].id is None:
        return lambda tiny, staged, tmp_path, monkeypatch, capsys: test(
            rows[0], tiny, staged, tmp_path, monkeypatch, capsys)
    return pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])(test)


globals().update((name, _exit_1_test(rows)) for name, rows in EXIT_1.items())


# -------------------------------------------------------- CLI: exit codes

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
