"""Full pipeline: ingest -> transition -> SR -> train -> predict -> project -> score.

Per scale gamma the pipeline trains a fresh network (seed offset by the gamma
index), predicts all training and validation words, scores three GDVs (all
points, training only, validation only) on the raw prediction vectors, and
projects the predictions to 2-D for the map. GDV in prediction space is the
primary number; the 2-D GDV after MDS is also emitted, clearly labeled, since
the two generally differ.
"""

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .dataset import load_embeddings, build_examples
from .errors import InputError
from .fileio import (SPLITS, committing, dump_json, load_lexicon, reading, require_int,
                     require_real, save_matrix_csv, save_labeled_points_csv)
from .metrics import LabeledPointSet, gdv, gdv_classes
from .neural import MlpConfig, train, predict_all, save_model
from .projection import classical_mds
from .sr import _check_scale, build_transition_matrix, successor_matrix
from .svg import render_svg

GDV_SPLITS = ("all",) + SPLITS


@dataclass
class PipelineConfig:
    """Every pipeline setting; the field defaults are the built-in defaults."""

    embeddings_path: str = "data/embeddings_300d.txt"
    lexicon_path: str = "data/lexicon.csv"
    output_dir: str = "out"
    gammas: list = field(default_factory=lambda: [1.0, 0.3])
    horizon: int = 5
    seed: int = 1234
    hidden_dim: int = 128
    dropout_rate: float = 0.8
    learning_rate: float = 1e-5
    epochs: int = 500
    batch_size: int = 20
    momentum: float = 0.9

    def __post_init__(self):
        # numbers are stored as plain ints and floats, so one run has one config_hash
        for f in fields(self):
            if f.type in (int, float):
                rule = require_int if f.type is int else require_real
                setattr(self, f.name, rule(f.name, getattr(self, f.name)))
        if not isinstance(self.gammas, (list, tuple)) or not self.gammas:
            raise InputError("gammas must be a nonempty list")
        self.gammas = [_check_scale(g, self.horizon) for g in self.gammas]
        tags = [_gamma_tag(g) for g in self.gammas]
        if len(set(tags)) != len(tags):
            raise InputError(f"gammas must be distinct, got {', '.join(tags)}")
        # network settings fail here, before any stage reads or writes a file
        self.mlp_config(1, 1, self.seed)

    def mlp_config(self, input_dim, output_dim, seed):
        """The network configuration for one training run."""
        return MlpConfig(input_dim=input_dim, output_dim=output_dim,
                         hidden_dim=self.hidden_dim, dropout_rate=self.dropout_rate,
                         learning_rate=self.learning_rate, epochs=self.epochs,
                         batch_size=self.batch_size, momentum=self.momentum, seed=seed)


# config key -> PipelineConfig field: the field name, or a short name for the input paths
_PATH_KEYS = {"embeddings_path": "embeddings", "lexicon_path": "lexicon"}
CONFIG_FIELDS = {_PATH_KEYS.get(f.name, f.name): f for f in fields(PipelineConfig)}


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
    type and a path field's value made text; PipelineConfig checks any other value."""
    raw = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_FIELDS:
                raise InputError(f"unknown config key {key!r}")
            raw[key] = value
    return PipelineConfig(**{f.name: _parse_value(raw[key], f.type, key)
                             if isinstance(raw[key], str) or f.type is str else raw[key]
                             for key, f in CONFIG_FIELDS.items() if key in raw})


def config_hash(config):
    """SHA-256 of what decides the outputs: every config field but output_dir, with
    each input file's SHA-256, read in 1 MiB chunks, in place of its path."""
    science = asdict(config)
    del science["output_dir"]
    for name in _PATH_KEYS:
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
    """Load stage: (vectors, lexicon), one vector row per lexicon row; the first
    `lex.n_states` rows are the training states, and the validation words follow."""
    lex = load_lexicon(config.lexicon_path)
    return load_embeddings(config.embeddings_path, lex.words), lex


def run_pipeline(config):
    """Run every stage for every gamma; returns the manifest dict it also writes.

    Artifacts land in config.output_dir: transition.csv, the per-gamma files
    that each run's `files` entry names, and manifest.json. They are staged
    and committed by `fileio.committing`, so they land only once every stage
    has succeeded, and a failed run leaves output_dir as it found it.
    """
    with committing(config.output_dir) as staging:
        with _stage("load"):
            vectors, lex = load_inputs(config)
            for split in GDV_SPLITS:  # a lexicon the GDV cannot score fails before training
                gdv_classes(lex.subset(lex.rows(split)).labels)
            inputs_hash = config_hash(config)
        train_vectors = vectors[:lex.n_states]

        with _stage("transition"):
            transition = build_transition_matrix(train_vectors, lex.words[:lex.n_states])
            save_matrix_csv(transition.values, staging / "transition.csv")

        runs = []
        for index, gamma in enumerate(config.gammas):
            tag = _gamma_tag(gamma)
            seed = config.seed + index
            files = {"sr_csv": f"sr_gamma_{tag}.csv", "model_json": f"model_gamma_{tag}.json",
                     "predictions_csv": f"predictions_gamma_{tag}.csv",
                     "projection_csv": f"projection_gamma_{tag}.csv",
                     "map_svg": f"map_gamma_{tag}.svg", "gdv_json": f"gdv_gamma_{tag}.json"}

            with _stage(f"sr gamma={tag}"):
                sr = successor_matrix(transition, gamma, config.horizon)
                save_matrix_csv(sr.values, staging / files["sr_csv"])

            with _stage(f"train gamma={tag}"):
                examples = build_examples(train_vectors, sr)
                model, losses = train(config.mlp_config(vectors.shape[1], lex.n_states, seed),
                                      examples)
                save_model(model, staging / files["model_json"])

            with _stage(f"predict gamma={tag}"):
                predictions = predict_all(model, vectors)
                save_labeled_points_csv(staging / files["predictions_csv"], lex, predictions)

            with _stage(f"gdv gamma={tag}"):
                raw_reports = {split: split_gdv(predictions, lex, split) for split in GDV_SPLITS}

            with _stage(f"project gamma={tag}"):
                coordinates, stress = project_map(predictions, lex, staging / files["projection_csv"],
                                                  staging / files["map_svg"])
                planar_reports = {split: split_gdv(coordinates, lex, split) for split in GDV_SPLITS}

            dump_json({"gamma": float(gamma), "prediction_space": raw_reports,
                       "projection_2d": planar_reports}, staging / files["gdv_json"])

            runs.append({
                "gamma": float(gamma),
                "seed": seed,
                "files": files,
                "first_epoch_loss": losses[0],
                "final_train_loss": losses[-1],
                "mds_stress": stress,
                "gdv_prediction_space": {k: r["gdv"] for k, r in raw_reports.items()},
                "gdv_projection_2d": {k: r["gdv"] for k, r in planar_reports.items()},
            })

        manifest = {
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config_hash": inputs_hash,
            "config": asdict(config),
            "transition_csv": "transition.csv",
            "runs": runs,
        }
        dump_json(manifest, staging / "manifest.json")
    return manifest


def split_gdv(points, lex, split):
    """GDV report dict of the points in one split of `lex`, "train" or "validation", or of "all"."""
    keep = lex.rows(split)
    return gdv(LabeledPointSet(points=np.asarray(points, dtype=np.float64)[keep],
                               labels=lex.subset(keep).labels))


def project_map(points, lex, csv_path, svg_path):
    """Project the points to 2-D by MDS, write the coordinate CSV and the SVG map, and
    return (coordinates, stress)."""
    coordinates, stress = classical_mds(points)
    save_labeled_points_csv(csv_path, lex, coordinates, component_names=("x", "y"))
    render_svg(coordinates, lex, svg_path)
    return coordinates, stress
