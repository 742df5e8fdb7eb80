"""Command-line interface: build-sr, train, predict, project, gdv, run, oracle."""

import argparse
import sys
from pathlib import Path

import numpy as np

from .dataset import build_examples
from .errors import InputError
from .fileio import (dump_json, format_float, load_labeled_points_csv,
                     save_labeled_points_csv, save_matrix_csv)
from .metrics import LabeledPointSet, gdv
from .neural import train, predict_all, save_model, load_model
from .pipeline import (CONFIG_FIELDS, labeled_words, load_inputs, parse_config_file,
                       resolve_config, run_pipeline, _gamma_tag)
from .projection import pairwise_euclidean, classical_mds
from .sr import (build_transition_matrix, successor_matrix, rollout_occupancy_oracle,
                 save_sr_json, load_sr_json)
from .svg import render_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are validation errors (exit 1), not internal errors
        raise InputError(message)


def _resolved(args, **extra):
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    overrides = {key: value for key, value in vars(args).items()
                 if key in CONFIG_FIELDS and value is not None}
    overrides.update(extra)
    return resolve_config(file_values, overrides)


def _cmd_build_sr(args):
    config = _resolved(args, **({"gammas": str(args.gamma)} if args.gamma is not None else {}))
    table, lex = load_inputs(config)
    transition = build_transition_matrix(table, lex, zero_diagonal=config.zero_diagonal)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(transition.values, out_dir / "transition.csv")
    print(f"wrote {out_dir / 'transition.csv'}")
    for gamma in config.gammas:
        tag = _gamma_tag(gamma)
        sr = successor_matrix(transition, gamma, config.horizon)
        save_matrix_csv(sr.values, out_dir / f"sr_gamma_{tag}.csv")
        save_sr_json(sr, transition.state_words, out_dir / f"sr_gamma_{tag}.json")
        print(f"wrote {out_dir / f'sr_gamma_{tag}.csv'} and .json (gamma={tag}, "
              f"horizon={config.horizon})")
    return 0


def _cmd_train(args):
    config = _resolved(args)
    table, lex = load_inputs(config)
    sr, state_words = load_sr_json(args.sr)
    if state_words != lex.train_words:
        raise InputError("successor-matrix state words do not match the lexicon training order")
    examples = build_examples(table, lex, sr, "train")
    model, report = train(config.mlp_config(table.dimension, lex.n_states, config.seed),
                          examples)
    save_model(model, args.out)
    print(f"wrote {args.out} (first-epoch loss {report.loss_per_epoch[0]:.6f}, "
          f"final loss {report.final_train_loss:.6f})")
    return 0


def _cmd_predict(args):
    config = _resolved(args)
    table, lex = load_inputs(config)
    model = load_model(args.model)
    words, labels, splits = labeled_words(lex, args.split)
    predictions = predict_all(model, table, words)
    save_labeled_points_csv(args.out, words, labels, splits, predictions)
    print(f"wrote {args.out} ({len(words)} distributions over {model.config.output_dim} states)")
    return 0


def _cmd_project(args):
    config = _resolved(args)
    words, labels, splits, values = load_labeled_points_csv(args.predictions)
    projection = classical_mds(pairwise_euclidean(values), out_dim=2,
                               smacof_iterations=config.smacof_iterations)
    save_labeled_points_csv(args.out_csv, words, labels, splits, projection.coordinates,
                            component_names=("x", "y"))
    categories = list(dict.fromkeys(labels))  # first-appearance order
    render_svg(projection.coordinates, words, labels, splits, categories, args.out_svg)
    print(f"wrote {args.out_csv} and {args.out_svg} (stress {projection.stress:.6g})")
    return 0


def _cmd_gdv(args):
    words, labels, splits, values = load_labeled_points_csv(args.points)
    if args.split != "all":
        keep = [i for i, s in enumerate(splits) if s == args.split]
        if not keep:
            raise InputError(f"no points with split {args.split!r}")
        values = values[keep]
        labels = [labels[i] for i in keep]
    report = gdv(LabeledPointSet(points=values, labels=labels))
    print(f"{report.gdv:.4f}")
    if args.out:
        dump_json(report.to_dict(), args.out)
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
              f"final-loss={run['final_train_loss']:.6f}")
    return 0


def _cmd_oracle(args):
    config = _resolved(args)
    table, lex = load_inputs(config)
    transition = build_transition_matrix(table, lex, zero_diagonal=config.zero_diagonal)
    try:
        start = int(args.start)
    except ValueError:
        start = lex.state_index(args.start)
    gamma = config.gammas[0] if args.gamma is None else float(args.gamma)
    estimate = rollout_occupancy_oracle(transition, gamma, config.horizon, start,
                                        args.samples, config.seed)
    print(",".join(format_float(x) for x in estimate))
    if args.compare:
        closed = successor_matrix(transition, gamma, config.horizon).values[start]
        print(",".join(format_float(x) for x in closed))
        print(f"max-abs-difference {np.max(np.abs(estimate - closed)):.6g}")
    if args.out:
        save_matrix_csv(estimate[None, :], args.out)
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--embeddings", help="vector-text embedding file")
    sub.add_argument("--lexicon", help="lexicon CSV (word,category,split)")
    sub.add_argument("--seed", type=int, help="base random seed")


def _add_mlp_flags(sub):
    sub.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    sub.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    sub.add_argument("--learning-rate", dest="learning_rate", type=float)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--momentum", type=float)


def build_parser():
    parser = _Parser(prog="cogmap",
                     description="Multi-scale successor-representation maps of word categories")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-sr", parents=[], help="embeddings+lexicon -> transition and SR files")
    _add_common(p)
    p.add_argument("--gamma", type=float, help="single scale (default: config gammas)")
    p.add_argument("--horizon", type=int)
    p.add_argument("--zero-diagonal", dest="zero_diagonal", action="store_true",
                   default=None, help="drop self-transitions before normalizing")
    p.add_argument("--out-dir", dest="output_dir")
    p.set_defaults(func=_cmd_build_sr)

    p = commands.add_parser("train", help="SR envelope + embeddings -> model checkpoint")
    _add_common(p)
    _add_mlp_flags(p)
    p.add_argument("--sr", required=True, help="successor-matrix JSON envelope")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("predict", help="checkpoint + lexicon words -> distributions CSV")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=["train", "validation", "all"], default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = commands.add_parser("project", help="distributions CSV -> 2-D projection CSV + SVG map")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--smacof-iterations", dest="smacof_iterations", type=int)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=_cmd_project)

    p = commands.add_parser("gdv", help="labeled points CSV -> cluster-separability score")
    p.add_argument("--points", required=True, help="CSV with word,category,split,components")
    p.add_argument("--split", choices=["all", "train", "validation"], default="all")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_gdv)

    p = commands.add_parser("run", help="full pipeline; writes the artifact tree + manifest")
    _add_common(p)
    _add_mlp_flags(p)
    p.add_argument("--gammas", help="comma-separated scales, e.g. 1.0,0.3")
    p.add_argument("--horizon", type=int)
    p.add_argument("--zero-diagonal", dest="zero_diagonal", action="store_true",
                   default=None)
    p.add_argument("--smacof-iterations", dest="smacof_iterations", type=int)
    p.add_argument("--out-dir", dest="output_dir")
    p.set_defaults(func=_cmd_run)

    p = commands.add_parser("oracle", help="Monte Carlo occupancy estimate for one start state")
    _add_common(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--start", required=True, help="state index or training word")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--compare", action="store_true",
                   help="also print the closed-form row and the max deviation")
    p.add_argument("--zero-diagonal", dest="zero_diagonal", action="store_true",
                   default=None)
    p.add_argument("--out", help="optional CSV path for the estimate")
    p.set_defaults(func=_cmd_oracle)

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
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - boundary between exit codes 1 and 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
