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
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_embeddings, load_lexicon, build_examples
from .errors import InputError
from .fileio import dump_json, save_matrix_csv, save_labeled_points_csv
from .metrics import LabeledPointSet, gdv
from .neural import MlpConfig, train, predict_all, save_model
from .projection import pairwise_euclidean, classical_mds
from .sr import build_transition_matrix, successor_matrix
from .svg import render_svg

OUTPUT_DIR_ENV = "COGMAP_OUTPUT_DIR"

CONFIG_DEFAULTS = {
    "embeddings": "data/embeddings_300d.txt",
    "lexicon": "data/lexicon.csv",
    "output_dir": "out",
    "gammas": "1.0,0.3",
    "horizon": "5",
    "seed": "1234",
    "hidden_dim": "128",
    "dropout_rate": "0.8",
    "learning_rate": "1e-5",
    "epochs": "500",
    "batch_size": "20",
    "momentum": "0.9",
    "zero_diagonal": "false",
    "smacof_iterations": "0",
}


@dataclass
class PipelineConfig:
    embeddings_path: str
    lexicon_path: str
    output_dir: str
    gammas: list = field(default_factory=lambda: [1.0, 0.3])
    horizon: int = 5
    seed: int = 1234
    hidden_dim: int = 128
    dropout_rate: float = 0.8
    learning_rate: float = 1e-5
    epochs: int = 500
    batch_size: int = 20
    momentum: float = 0.9
    zero_diagonal: bool = False
    smacof_iterations: int = 0

    def __post_init__(self):
        if not self.gammas:
            raise InputError("gammas must be a nonempty list")
        for g in self.gammas:
            if not 0.0 <= g <= 1.0:
                raise InputError(f"gamma {g} outside [0, 1]")
        if self.horizon < 0:
            raise InputError(f"horizon must be non-negative, got {self.horizon}")
        tags = [_gamma_tag(g) for g in self.gammas]
        if len(set(tags)) != len(tags):
            raise InputError(f"gammas must be distinct, got {', '.join(tags)}")


def parse_config_file(path):
    """Flat key=value file; `#` starts a comment, blank lines are skipped."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_DEFAULTS:
                raise InputError(f"{path}: line {lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _parse_bool(text, key):
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise InputError(f"config key {key} expects a boolean, got {text!r}")


def resolve_config(file_values=None, overrides=None):
    """Layer defaults < COGMAP_OUTPUT_DIR env < config file < explicit overrides."""
    raw = dict(CONFIG_DEFAULTS)
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        raw["output_dir"] = env_out
    raw.update(file_values or {})
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in raw:
            raise InputError(f"unknown config key {key!r}")
        raw[key] = value if isinstance(value, str) else str(value)
    try:
        gammas = [float(tok) for tok in raw["gammas"].split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"cannot parse gammas {raw['gammas']!r}") from None
    try:
        return PipelineConfig(
            embeddings_path=raw["embeddings"],
            lexicon_path=raw["lexicon"],
            output_dir=raw["output_dir"],
            gammas=gammas,
            horizon=int(raw["horizon"]),
            seed=int(raw["seed"]),
            hidden_dim=int(raw["hidden_dim"]),
            dropout_rate=float(raw["dropout_rate"]),
            learning_rate=float(raw["learning_rate"]),
            epochs=int(raw["epochs"]),
            batch_size=int(raw["batch_size"]),
            momentum=float(raw["momentum"]),
            zero_diagonal=_parse_bool(raw["zero_diagonal"], "zero_diagonal"),
            smacof_iterations=int(raw["smacof_iterations"]),
        )
    except ValueError as exc:
        raise InputError(f"bad config value: {exc}") from None


def config_hash(config):
    canon = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@contextmanager
def _stage(name):
    try:
        yield
    except InputError as exc:
        raise InputError(f"stage {name}: {exc}") from None
    except OSError as exc:
        # unreadable/missing files are input problems, not internal failures
        raise InputError(f"stage {name}: {exc}") from None
    except Exception as exc:
        raise RuntimeError(f"stage {name}: {exc}") from exc


def _gamma_tag(gamma):
    return str(float(gamma))


def run_pipeline(config):
    """Run every stage for every gamma; returns the manifest dict it also writes.

    Artifacts land in config.output_dir under the fixed names transition.csv,
    sr_gamma_<g>.csv, model_gamma_<g>.json, predictions_gamma_<g>.csv,
    projection_gamma_<g>.csv, map_gamma_<g>.svg, gdv_gamma_<g>.json, and
    manifest.json. Partial outputs are removed if any stage fails.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created = []

    def target(name):
        path = out_dir / name
        created.append(path)
        return path

    try:
        with _stage("load"):
            table = load_embeddings(config.embeddings_path)
            lex = load_lexicon(config.lexicon_path)
            for word in lex.train_words + lex.validation_words:
                if word not in table:
                    raise InputError(f"lexicon word {word!r} missing from embedding table")

        with _stage("transition"):
            transition = build_transition_matrix(table, lex, zero_diagonal=config.zero_diagonal)
            save_matrix_csv(transition.values, target("transition.csv"))

        words = lex.train_words + lex.validation_words
        labels = lex.train_categories + lex.validation_categories
        splits = ["train"] * lex.n_states + ["validation"] * len(lex.validation)
        runs = []
        for index, gamma in enumerate(config.gammas):
            tag = _gamma_tag(gamma)
            seed = config.seed + index

            with _stage(f"sr gamma={tag}"):
                sr = successor_matrix(transition, gamma, config.horizon)
                save_matrix_csv(sr.values, target(f"sr_gamma_{tag}.csv"))

            with _stage(f"train gamma={tag}"):
                examples = build_examples(table, lex, sr, "train")
                mlp_config = MlpConfig(
                    input_dim=table.dimension, output_dim=lex.n_states,
                    hidden_dim=config.hidden_dim, dropout_rate=config.dropout_rate,
                    learning_rate=config.learning_rate, epochs=config.epochs,
                    batch_size=config.batch_size, momentum=config.momentum, seed=seed)
                model, report = train(mlp_config, examples)
                save_model(model, target(f"model_gamma_{tag}.json"))

            with _stage(f"predict gamma={tag}"):
                predictions = predict_all(model, table, words)
                save_labeled_points_csv(target(f"predictions_gamma_{tag}.csv"),
                                        words, labels, splits, predictions)

            with _stage(f"gdv gamma={tag}"):
                raw_reports = _split_gdvs(predictions, labels, splits)

            with _stage(f"project gamma={tag}"):
                projection = classical_mds(pairwise_euclidean(predictions), out_dim=2,
                                           smacof_iterations=config.smacof_iterations)
                save_labeled_points_csv(target(f"projection_gamma_{tag}.csv"),
                                        words, labels, splits, projection.coordinates,
                                        component_names=("x", "y"))
                render_svg(projection.coordinates, words, labels, splits,
                           lex.categories, target(f"map_gamma_{tag}.svg"))
                planar_reports = _split_gdvs(projection.coordinates, labels, splits)

            gdv_doc = {
                "gamma": float(gamma),
                "prediction_space": {k: r.to_dict() for k, r in raw_reports.items()},
                "projection_2d": {k: r.to_dict() for k, r in planar_reports.items()},
            }
            dump_json(gdv_doc, target(f"gdv_gamma_{tag}.json"))

            runs.append({
                "gamma": float(gamma),
                "seed": seed,
                "files": {
                    "sr_csv": f"sr_gamma_{tag}.csv",
                    "model_json": f"model_gamma_{tag}.json",
                    "predictions_csv": f"predictions_gamma_{tag}.csv",
                    "projection_csv": f"projection_gamma_{tag}.csv",
                    "map_svg": f"map_gamma_{tag}.svg",
                    "gdv_json": f"gdv_gamma_{tag}.json",
                },
                "first_epoch_loss": report.loss_per_epoch[0],
                "final_train_loss": report.final_train_loss,
                "mds_stress": projection.stress,
                "gdv_prediction_space": {k: r.gdv for k, r in raw_reports.items()},
                "gdv_projection_2d": {k: r.gdv for k, r in planar_reports.items()},
            })

        manifest = {
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config_hash": config_hash(config),
            "config": asdict(config),
            "transition_csv": "transition.csv",
            "runs": runs,
        }
        with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        return manifest
    except Exception:
        for path in created:
            path.unlink(missing_ok=True)
        raise


def _split_gdvs(points, labels, splits):
    points = np.asarray(points, dtype=np.float64)
    mask = {"all": np.ones(len(labels), dtype=bool),
            "train": np.array([s == "train" for s in splits]),
            "validation": np.array([s == "validation" for s in splits])}
    reports = {}
    for name, keep in mask.items():
        pts = points[keep]
        lbs = [l for l, k in zip(labels, keep) if k]
        reports[name] = gdv(LabeledPointSet(points=pts, labels=lbs))
    return reports
