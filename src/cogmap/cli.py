"""Command-line interface: build-sr, train, predict, project, gdv, run, oracle."""

import argparse
import sys
from pathlib import Path

import numpy as np

from .dataset import build_examples
from .errors import InputError
from .fileio import (committing, dump_json, float_text, load_labeled_points_csv,
                     save_labeled_points_csv, save_matrix_csv)
from .neural import train, predict_all, save_model, load_model
from .pipeline import (CONFIG_FIELDS, GDV_SPLITS, load_inputs, parse_config_file, project_map,
                       resolve_config, run_pipeline, split_gdv, _gamma_tag)
from .sr import (build_transition_matrix, successor_matrix, rollout_occupancy_oracle,
                 save_sr_json, load_sr_json)

INPUTS = ("embeddings", "lexicon")
NETWORK = ("hidden_dim", "dropout_rate", "learning_rate", "epochs", "batch_size", "momentum")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are validation errors (exit 1), not internal errors
        raise InputError(message)


def _resolved(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG_FIELDS}
    return resolve_config(file_values, overrides)


def _cmd_build_sr(args):
    config = _resolved(args)
    vectors, lex = load_inputs(config)
    transition = build_transition_matrix(vectors[:lex.n_states], lex.words[:lex.n_states])
    out_dir = Path(config.output_dir)
    tags = [_gamma_tag(gamma) for gamma in config.gammas]
    with committing(out_dir) as staging:
        save_matrix_csv(transition.values, staging / "transition.csv")
        for gamma, tag in zip(config.gammas, tags):
            sr = successor_matrix(transition, gamma, config.horizon)
            save_matrix_csv(sr.values, staging / f"sr_gamma_{tag}.csv")
            save_sr_json(sr, transition.state_words, staging / f"sr_gamma_{tag}.json")
    print(f"wrote {out_dir / 'transition.csv'}")
    for tag in tags:
        print(f"wrote {out_dir / f'sr_gamma_{tag}.csv'} and .json (gamma={tag}, "
              f"horizon={config.horizon})")
    return 0


def _cmd_train(args):
    config = _resolved(args)
    vectors, lex = load_inputs(config)
    sr, state_words = load_sr_json(args.sr)
    if state_words != lex.words[:lex.n_states]:
        raise InputError("successor-matrix state words do not match the lexicon training order")
    examples = build_examples(vectors[:lex.n_states], sr)
    model, losses = train(config.mlp_config(vectors.shape[1], lex.n_states, config.seed), examples)
    save_model(model, args.out)
    print(f"wrote {args.out} (first-epoch loss {losses[0]:.6f}, final loss {losses[-1]:.6f})")
    return 0


def _cmd_predict(args):
    config = _resolved(args)
    vectors, lex = load_inputs(config)
    model = load_model(args.model)
    rows = lex.rows(args.split)
    predictions = predict_all(model, vectors[rows])
    save_labeled_points_csv(args.out, lex.subset(rows), predictions)
    print(f"wrote {args.out} ({len(rows)} distributions over {model.config.output_dim} states)")
    return 0


def _cmd_project(args):
    lex, values = load_labeled_points_csv(args.predictions)
    _, stress = project_map(values, lex, args.out_csv, args.out_svg)
    print(f"wrote {args.out_csv} and {args.out_svg} (stress {stress:.6g})")
    return 0


def _cmd_gdv(args):
    lex, values = load_labeled_points_csv(args.points)
    report = split_gdv(values, lex, args.split)
    print(f"{report['gdv']:.4f}")
    if args.out:
        dump_json(report, args.out)
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
    vectors, lex = load_inputs(config)
    states = lex.words[:lex.n_states]
    transition = build_transition_matrix(vectors[:lex.n_states], states)
    try:
        start = int(args.start)
    except ValueError:
        if args.start not in states:
            raise InputError(f"word {args.start!r} is not a training state") from None
        start = states.index(args.start)
    gamma = config.gammas[0]
    estimate = rollout_occupancy_oracle(transition, gamma, config.horizon, start,
                                        args.samples, config.seed)
    print(float_text(estimate, ","))
    if args.compare:
        closed = successor_matrix(transition, gamma, config.horizon).values[start]
        print(float_text(closed, ","))
        print(f"max-abs-difference {np.max(np.abs(estimate - closed)):.6g}")
    if args.out:
        save_matrix_csv(estimate[None, :], args.out)
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

    p = commands.add_parser("oracle", help="Monte Carlo occupancy estimate for one start state, "
                                "at the first of gammas")
    _add_config_flags(p, INPUTS + ("seed", "gammas", "horizon"))
    p.add_argument("--start", required=True, help="state index or training word")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--compare", action="store_true",
                   help="also print the closed-form row and the max deviation")
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
    except Exception as exc:  # noqa: BLE001 - boundary between exit codes 1 and 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
