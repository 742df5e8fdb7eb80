"""Full pipeline: ingest -> transition -> SR -> train -> predict -> project -> score.

Per scale gamma, `run_pipeline` computes the SR, and `fit_scale` trains a fresh network on it
with `config.seed`, predicts all training and validation words, scores three GDVs (all points,
training only, validation only) on the raw prediction vectors, maps the predictions to 2-D
with `classical_mds` and builds the scale's manifest entry and GDV document, all without file
I/O; `run_pipeline` then writes the SR and the fit and appends the entry.
GDV in prediction space is the primary number; the 2-D GDV after MDS is also
emitted, clearly labeled, since the two generally differ.
"""

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, asdict, replace
from datetime import datetime, timezone

from . import __version__
from .dataset import load_embeddings, build_examples
from .errors import InputError
from .fileio import (SPLITS, LabeledPoints, committing, dump_json, load_lexicon, plain_fields,
                     reading, save_matrix_csv, save_labeled_points_csv)
from .metrics import gdv, gdv_classes
from .neural import MlpConfig, MlpModel, loss, train, predict_all, save_model
from .projection import classical_mds
from .sr import _check_scale, build_transition_matrix, successor_matrix
from .svg import render_svg

GDV_SPLITS = ("all",) + SPLITS
NETWORK = tuple(f.name for f in fields(MlpConfig) if f.name not in ("input_dim", "output_dim", "seed"))


@dataclass
class PipelineConfig:
    """Every pipeline setting; the field defaults are the built-in defaults."""

    embeddings: str = "data/embeddings_300d.txt"
    lexicon: str = "data/lexicon.csv"
    output_dir: str = "out"
    gammas: list = field(default_factory=lambda: [1.0, 0.3])
    horizon: int = 5
    seed: int = 1234
    dropout_rate: float = 0.8
    learning_rate: float = 1e-5
    epochs: int = 500

    def __post_init__(self):
        plain_fields(self)  # plain numbers and path text, so one run has one config_hash
        if not isinstance(self.gammas, (list, tuple)) or not self.gammas:
            raise InputError("gammas must be a nonempty list")
        self.gammas = [_check_scale(g, self.horizon) for g in self.gammas]
        tags = [_gamma_tag(g) for g in self.gammas]
        if len(set(tags)) != len(tags):
            raise InputError(f"gammas must be distinct, got {', '.join(tags)}")
        # network settings fail here, before any stage reads or writes a file
        self.mlp_config(1, 1)

    def mlp_config(self, input_dim, output_dim):
        """The network configuration for one training run, seeded with `seed`."""
        return MlpConfig(input_dim=input_dim, output_dim=output_dim, seed=self.seed,
                         **{name: getattr(self, name) for name in NETWORK})


# one name per setting in the config file, the flags, the record and the manifest
CONFIG_FIELDS = {f.name: f for f in fields(PipelineConfig)}
INPUTS = ("embeddings", "lexicon")  # the input files, hashed by their bytes


def parse_config_file(path):
    """Flat key=value file, each key at most once; `#` starts a comment, blank lines are skipped."""
    values = {}
    with open(path, encoding="utf-8") as fh, reading(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_FIELDS:
                raise InputError(f"line {lineno}: unknown config key {key!r}")
            if key in values:
                raise InputError(f"line {lineno}: duplicate config key {key!r}")
            values[key] = value.strip()
    return values


_KINDS = {list: "comma-separated numbers", int: "an integer", float: "a number"}


def _parse_value(text, kind, key):
    """One config value from its text, by the type of its PipelineConfig field."""
    try:
        if kind is list:
            return [float(tok) for tok in text.split(",") if tok.strip() != ""]
        return kind(text)
    except ValueError:
        raise InputError(f"config key {key} expects {_KINDS[kind]}, got {text!r}") from None


def resolve_config(file_values=None, overrides=None):
    """Layer defaults < config file < explicit overrides. Text is parsed by its field's
    type; PipelineConfig checks any other value."""
    raw = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_FIELDS:
                raise InputError(f"unknown config key {key!r}")
            raw[key] = value
    return PipelineConfig(**{key: _parse_value(value, CONFIG_FIELDS[key].type, key)
                             if isinstance(value, str) else value for key, value in raw.items()})


def config_hash(config):
    """SHA-256 of what decides the outputs: every config field but output_dir, with
    each input file's SHA-256, read in 1 MiB chunks, in place of its path."""
    science = asdict(config)
    del science["output_dir"]
    for name in INPUTS:
        digest = hashlib.sha256()
        with open(science[name], "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        science[name] = digest.hexdigest()
    return hashlib.sha256(json.dumps(science, sort_keys=True).encode("utf-8")).hexdigest()


@contextmanager
def _stage(name):
    try:
        yield
    except (InputError, OSError) as exc:
        # unreadable/missing files are input problems, not internal failures
        raise InputError(f"stage {name}: {exc}") from None
    except Exception as exc:
        raise RuntimeError(f"stage {name}: {exc}") from exc


def _gamma_tag(gamma):
    return str(float(gamma))


def load_inputs(config):
    """Load stage: the lexicon's words and their embeddings as `LabeledPoints`, the
    training states first, so `split("train")` gives them in order."""
    lex = load_lexicon(config.lexicon)
    return LabeledPoints(lex, load_embeddings(config.embeddings, lex.words))


def scale_files(gamma):
    """The names of one scale's files, keyed as a run's `files` entry in the manifest."""
    tag = _gamma_tag(gamma)
    return {"sr_csv": f"sr_gamma_{tag}.csv", "model_json": f"model_gamma_{tag}.json",
            "predictions_csv": f"predictions_gamma_{tag}.csv",
            "projection_csv": f"projection_gamma_{tag}.csv",
            "map_svg": f"map_gamma_{tag}.svg", "gdv_json": f"gdv_gamma_{tag}.json"}


def fit_model(states, sr, config):
    """Train a network, seeded with `config.seed`, on the SR rows: (model, losses, examples)."""
    examples = build_examples(states, sr)
    model, losses = train(config.mlp_config(states.points.shape[1], sr.n), examples)
    return model, losses, examples


@dataclass
class ScaleFit:
    """One scale's results and what its files hold."""

    model: MlpModel
    predictions: LabeledPoints
    coordinates: LabeledPoints
    gdv_doc: dict  # gdv_gamma_<γ>.json: the GDV report of each split, in both spaces
    entry: dict  # the scale's entry in the manifest's `runs`


def fit_scale(inputs, sr, config):
    """Fit one scale without file I/O: a network trained on `sr` with `config.seed`, its
    predictions for every word of `inputs`, their 2-D map, the GDV document of each split in
    both spaces and the scale's manifest entry."""
    tag = _gamma_tag(sr.gamma)
    with _stage(f"train gamma={tag}"):
        model, losses, examples = fit_model(inputs.split("train"), sr, config)
        # the targets' mean entropy is the floor of the training loss; ln N is a uniform guess
        target_entropy = float(loss(examples.targets, examples.targets).mean())
    with _stage(f"predict gamma={tag}"):
        predictions = predict_all(model, inputs)
        # the returned model's own loss: inference mode, on the parameters the GDVs describe
        final_model_loss = float(loss(predictions.split("train").points, examples.targets).mean())
    with _stage(f"gdv gamma={tag}"):
        raw_reports = {split: gdv(predictions.split(split)) for split in GDV_SPLITS}
    with _stage(f"project gamma={tag}"):
        coordinates, stress = classical_mds(predictions)
        planar_reports = {split: gdv(coordinates.split(split)) for split in GDV_SPLITS}
    entry = {"gamma": sr.gamma, "seed": config.seed, "files": scale_files(sr.gamma),
             "first_epoch_loss": losses[0], "final_train_loss": losses[-1],
             "final_model_loss": final_model_loss, "loss_per_epoch": losses,
             "target_entropy": target_entropy,
             "excess_loss": losses[-1] - target_entropy, "uniform_loss": math.log(sr.n),
             "mds_stress": stress,
             "gdv_prediction_space": {k: r["gdv"] for k, r in raw_reports.items()},
             "gdv_projection_2d": {k: r["gdv"] for k, r in planar_reports.items()}}
    gdv_doc = {"gamma": sr.gamma, "prediction_space": raw_reports, "projection_2d": planar_reports}
    return ScaleFit(model, predictions, coordinates, gdv_doc, entry)


def run_pipeline(config):
    """Fit and write one gamma at a time, the i-th with seed `config.seed` plus i; returns the
    manifest dict it also writes, whose `runs` are the `ScaleFit` entries.

    Artifacts land in config.output_dir: transition.csv, the per-gamma files
    that each run's `files` entry names, and manifest.json. They are staged
    and committed by `fileio.committing`, so they land only once every stage
    has succeeded, and a failed run leaves output_dir as it found it.
    """
    with committing(config.output_dir) as staging:
        with _stage("load"):
            inputs = load_inputs(config)
            for split in GDV_SPLITS:  # a lexicon the GDV cannot score fails before training
                gdv_classes(inputs.split(split).lex.labels)
            inputs_hash = config_hash(config)

        with _stage("transition"):
            transition = build_transition_matrix(inputs.split("train"))
            save_matrix_csv(transition.values, staging / "transition.csv")

        runs = []
        for index, gamma in enumerate(config.gammas):
            with _stage(f"sr gamma={_gamma_tag(gamma)}"):
                sr = successor_matrix(transition, gamma, config.horizon)
            fit = fit_scale(inputs, sr, replace(config, seed=config.seed + index))
            files = fit.entry["files"]
            with _stage(f"write gamma={_gamma_tag(gamma)}"):
                save_matrix_csv(sr.values, staging / files["sr_csv"])
                save_model(fit.model, staging / files["model_json"])
                save_labeled_points_csv(staging / files["predictions_csv"], fit.predictions)
                save_map(fit.coordinates, staging / files["projection_csv"],
                         staging / files["map_svg"])
                dump_json(fit.gdv_doc, staging / files["gdv_json"])
            runs.append(fit.entry)
            del sr, fit  # so one scale's N x N arrays are freed before the next scale is fitted

        manifest = {
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config_hash": inputs_hash,
            # absolute input paths, so the config resolves and hashes from any directory
            "config": {**asdict(config),
                       **{name: os.path.abspath(getattr(config, name)) for name in INPUTS}},
            "transition_csv": "transition.csv",
            "runs": runs,
        }
        dump_json(manifest, staging / "manifest.json")
    return manifest


def save_map(coordinates, csv_path, svg_path):
    """Write a 2-D map's coordinate CSV and its SVG rendering."""
    save_labeled_points_csv(csv_path, coordinates, component_names=("x", "y"))
    render_svg(coordinates, svg_path)
