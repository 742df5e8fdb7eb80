"""Config resolution, pipeline orchestration, CLI subcommands, and the SVG map."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cogmap.cli import main
from cogmap.dataset import EmbeddingTable, save_embeddings
from cogmap.errors import InputError
from cogmap.pipeline import (CONFIG_FIELDS, config_hash, parse_config_file,
                             resolve_config, run_pipeline)
from cogmap.sr import load_sr_json, save_sr_json
from cogmap.svg import render_svg

REPO = Path(__file__).resolve().parents[1]
DATA_DIR = REPO / "data"

CATEGORIES = ["reds", "greens", "blues"]


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("COGMAP_OUTPUT_DIR", raising=False)


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
    save_embeddings(EmbeddingTable(dimension=8, entries=entries), emb)
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
    return {"root": root, "embeddings": emb, "lexicon": lexicon, "cfg": cfg}


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
    assert config.zero_diagonal is False and config.smacof_iterations == 0


def test_resolve_precedence(monkeypatch):
    monkeypatch.setenv("COGMAP_OUTPUT_DIR", "from-env")
    assert resolve_config().output_dir == "from-env"
    assert resolve_config({"output_dir": "from-file"}).output_dir == "from-file"
    assert resolve_config({"output_dir": "from-file"},
                          {"output_dir": "from-flag"}).output_dir == "from-flag"


def test_resolve_parses_gammas_and_bools():
    config = resolve_config({"gammas": "0.5, 0.25", "zero_diagonal": "yes"})
    assert config.gammas == [0.5, 0.25]
    assert config.zero_diagonal is True
    assert resolve_config({"zero_diagonal": "off"}).zero_diagonal is False
    with pytest.raises(InputError, match="gammas"):
        resolve_config({"gammas": "abc"})
    with pytest.raises(InputError, match="boolean"):
        resolve_config({"zero_diagonal": "maybe"})
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


def test_resolve_rejects_negative_smacof_iterations():
    with pytest.raises(InputError, match="smacof"):
        resolve_config({"smacof_iterations": "-1"})


@pytest.mark.parametrize("key,value", [("epochs", "0"), ("batch_size", "0"),
                                       ("hidden_dim", "0"), ("dropout_rate", "1.0"),
                                       ("momentum", "1.0"), ("learning_rate", "-1")])
def test_resolve_rejects_bad_network_settings(key, value):
    # checked when the config resolves, before any stage reads or writes a file
    with pytest.raises(InputError):
        resolve_config(overrides={key: value})


def test_cli_run_negative_smacof_iterations_is_input_error(tiny, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--smacof-iterations", "-1", "--out-dir", out_dir)
    assert code == 1 and "smacof" in err
    assert not out_dir.exists()


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
         "momentum": (["--momentum", "0.5"], "0.5"),
         "zero_diagonal": (["--zero-diagonal"], "true"),
         "smacof_iterations": (["--smacof-iterations", "4"], "4")}


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


def test_config_hash_is_stable_sha256():
    a = resolve_config()
    b = resolve_config()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert set(config_hash(a)) <= set("0123456789abcdef")
    assert config_hash(resolve_config({"seed": "1"})) != config_hash(a)


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
    # a single validation word gives the validation split one singleton class,
    # so the gdv stage fails after several artifacts were already written
    bad_lexicon = tmp_path / "bad.csv"
    lines = tiny["lexicon"].read_text(encoding="utf-8").splitlines()
    bad_lexicon.write_text("\n".join(lines[:11]) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    config = resolve_config(parse_config_file(tiny["cfg"]),
                            {"lexicon": str(bad_lexicon), "output_dir": str(out_dir)})
    with pytest.raises(InputError, match="stage gdv"):
        run_pipeline(config)
    assert list(out_dir.glob("*")) == []


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


@pytest.mark.parametrize("edit", [_edit_sr_nan, _edit_sr_ragged], ids=["nan", "ragged"])
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


def test_cli_project_rejects_flags_it_never_reads(tmp_path, capsys):
    code, _, err = run_cli(capsys, "project", "--seed", "3",
                           "--predictions", DATA_DIR / "gdv_fixture_1d.csv",
                           "--out-csv", tmp_path / "p.csv", "--out-svg", tmp_path / "p.svg")
    assert code == 1 and "unrecognized arguments: --seed 3" in err
    assert list(tmp_path.iterdir()) == []


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


def test_cli_internal_error_exit_code(tiny, tmp_path, capsys, monkeypatch):
    def boom(config):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("cogmap.cli.run_pipeline", boom)
    code, _, err = run_cli(capsys, "run", "--config", tiny["cfg"],
                           "--out-dir", tmp_path / "out")
    assert code == 2 and "internal error:" in err and "wires crossed" in err


def test_cli_output_dir_env_fallback(tiny, tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("COGMAP_OUTPUT_DIR", str(env_dir))
    code, _, _ = run_cli(capsys, "build-sr", "--embeddings", tiny["embeddings"],
                         "--lexicon", tiny["lexicon"], "--gamma", "1.0")
    assert code == 0
    assert (env_dir / "transition.csv").is_file()

    flag_dir = tmp_path / "flag-out"
    code, _, _ = run_cli(capsys, "build-sr", "--embeddings", tiny["embeddings"],
                         "--lexicon", tiny["lexicon"], "--gamma", "1.0",
                         "--out-dir", flag_dir)
    assert code == 0
    assert (flag_dir / "transition.csv").is_file()


# --------------------------------------------------------------------- SVG

def test_svg_structure(tmp_path):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    words = ["a", "b<c", "d&e", "f"]
    labels = ["one", "one", "two", "two"]
    splits = ["train", "train", "validation", "train"]
    out = tmp_path / "m.svg"
    render_svg(coords, words, labels, splits, ["one", "two"], out,
               timestamp="2026-01-01T00:00:00+00:00")
    text = out.read_text(encoding="utf-8")
    assert text.count("<circle") == 4
    assert text.count('stroke="#d62728"') == 2  # one ringed point + legend swatch
    assert "<title>b&lt;c</title>" in text and "<title>d&amp;e</title>" in text
    assert ">one</text>" in text and ">two</text>" in text and ">validation</text>" in text
    assert "2026-01-01T00:00:00+00:00" in text
    # fixed timestamp makes the render reproducible byte for byte
    out2 = tmp_path / "m2.svg"
    render_svg(coords, words, labels, splits, ["one", "two"], out2,
               timestamp="2026-01-01T00:00:00+00:00")
    assert out.read_bytes() == out2.read_bytes()


def test_svg_validation():
    coords = np.zeros((2, 2))
    with pytest.raises(InputError, match="empty"):
        render_svg(np.zeros((0, 2)), [], [], [], ["x"], "unused.svg")
    with pytest.raises(InputError, match="equal length"):
        render_svg(coords, ["a"], ["x", "x"], ["train", "train"], ["x"], "unused.svg")
    with pytest.raises(InputError, match="not in the category list"):
        render_svg(coords, ["a", "b"], ["x", "y"], ["train", "train"], ["x"],
                   "unused.svg")
    with pytest.raises(InputError, match="has no points"):
        render_svg(coords, ["a", "b"], ["x", "x"], ["train", "train"], ["x", "y"],
                   "unused.svg")
