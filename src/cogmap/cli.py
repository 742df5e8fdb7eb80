"""Command-line interface: build-sr, train, predict, project, gdv, run."""

import argparse
import os
import sys
from pathlib import Path

from .dataset import build_examples
from .errors import InputError
from .fileio import (committing, dump_json, load_labeled_points_csv, reading,
                     save_labeled_points_csv, save_matrix_csv)
from .metrics import gdv
from .neural import predict_all, save_model, load_model
from .pipeline import (CONFIG_FIELDS, GDV_SPLITS, INPUTS, NETWORK, fit_model, load_inputs,
                       parse_config_file, resolve_config, run_pipeline, save_map, scale_files)
from .projection import classical_mds
from .sr import build_transition_matrix, successor_matrix, save_sr_json, load_sr_json


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # one spelling per flag: no prefix of a flag matches it
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # usage problems are validation errors (exit 1), not internal errors
        raise InputError(message)


def _resolved(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG_FIELDS}
    return resolve_config(file_values, overrides)


def _cmd_build_sr(args):
    config = _resolved(args)
    transition = build_transition_matrix(load_inputs(config).split("train"))
    out_dir = Path(config.output_dir)
    names = [scale_files(gamma)["sr_csv"] for gamma in config.gammas]
    with committing(out_dir) as staging:
        save_matrix_csv(transition.values, staging / "transition.csv")
        for gamma, name in zip(config.gammas, names):
            sr = successor_matrix(transition, gamma, config.horizon)
            save_matrix_csv(sr.values, staging / name)
            save_sr_json(sr, (staging / name).with_suffix(".json"))
    print(f"wrote {out_dir / 'transition.csv'}")
    for gamma, name in zip(config.gammas, names):
        print(f"wrote {out_dir / name} and .json (gamma={gamma}, horizon={config.horizon})")
    return 0


def _cmd_train(args):
    config = _resolved(args)
    states, sr = load_inputs(config).split("train"), load_sr_json(args.sr)
    with reading(args.sr):  # the envelope is at fault when its state words are not the lexicon's
        examples = build_examples(states, sr)
    model, losses = fit_model(examples, config)
    save_model(model, args.out)
    print(f"wrote {args.out} (first-epoch loss {losses[0]:.6f}, final loss {losses[-1]:.6f})")
    return 0


def _cmd_predict(args):
    config = _resolved(args)
    inputs = load_inputs(config)
    model = load_model(args.model)
    predictions = predict_all(model, inputs.split(args.split))
    save_labeled_points_csv(args.out, predictions)
    print(f"wrote {args.out} ({len(predictions.points)} distributions over "
          f"{model.config.output_dim} states)")
    return 0


def _cmd_project(args):
    if os.path.realpath(args.out_csv) == os.path.realpath(args.out_svg):
        raise InputError(f"--out-csv and --out-svg name one file: {args.out_svg}")
    coordinates, stress = classical_mds(load_labeled_points_csv(args.predictions))
    save_map(coordinates, args.out_csv, args.out_svg)
    print(f"wrote {args.out_csv} and {args.out_svg} (stress {stress:.6g})")
    return 0


def _cmd_gdv(args):
    report = gdv(load_labeled_points_csv(args.points).split(args.split))
    if args.out:  # written before the score is printed, so a failed write prints nothing
        dump_json(report, args.out)
    print(f"{report['gdv']:.4f}")
    return 0


def _cmd_run(args):
    config = _resolved(args)
    manifest = run_pipeline(config)
    out_dir = Path(config.output_dir)
    print(f"wrote {out_dir / 'manifest.json'}")
    for run in manifest["runs"]:
        raw = run["gdv_prediction_space"]
        print(f"gamma={run['gamma']}  gdv(all)={raw['all']:.4f}  "
              f"gdv(train)={raw['train']:.4f}  gdv(validation)={raw['validation']:.4f}  "
              f"model-loss={run['final_model_loss']:.6f}")
    return 0


def _add_config_flags(sub, keys):
    """`--config` plus one string flag per config key; values parse in resolve_config."""
    sub.add_argument("--config", help="flat key=value config file")
    for key in keys:
        flag = "--out-dir" if key == "output_dir" else "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, help=f"overrides config key {key}")


def build_parser():
    parser = _Parser(prog="cogmap",
                     description="Multi-scale successor-representation maps of word categories")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-sr", help="embeddings+lexicon -> transition and SR files")
    _add_config_flags(p, INPUTS + ("gammas", "horizon", "output_dir"))
    p.set_defaults(func=_cmd_build_sr)

    p = commands.add_parser("train", help="SR envelope + embeddings -> model checkpoint")
    _add_config_flags(p, INPUTS + ("seed",) + NETWORK)
    p.add_argument("--sr", required=True, help="successor-matrix JSON envelope")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("predict", help="checkpoint + lexicon words -> distributions CSV")
    _add_config_flags(p, INPUTS)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=GDV_SPLITS, default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = commands.add_parser("project", help="distributions CSV -> 2-D projection CSV + SVG map")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=_cmd_project)

    p = commands.add_parser("gdv", help="labeled points CSV -> cluster-separability score")
    p.add_argument("--points", required=True, help="CSV with word,category,split,components")
    p.add_argument("--split", choices=GDV_SPLITS, default="all")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_gdv)

    p = commands.add_parser("run", help="full pipeline; writes the artifact tree + manifest")
    _add_config_flags(p, CONFIG_FIELDS)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        # unreadable/missing paths are user input problems, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary between exit codes 1 and 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
