"""Command-line surface: gen-data, train, predict, eval, ablate."""
from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import stat
import sys

from .errors import (
    AlignmentError,
    ConfigError,
    ContractError,
    DimensionError,
    DivergenceError,
    FileFormatError,
)
from .fileio import atomic_write, write_json
from .harness import (
    TrainConfig,
    ablate,
    ablation_table_csv,
    apply_env_seed,
    evaluate,
    load_params,
    load_predictions,
    load_train_config,
    predict,
    save_params,
    split_corpus,
    train,
    write_predictions,
)
from .records import field_rules, parse_threshold
from .synthdata import CorpusSpec, generate_corpus, load_corpus, save_corpus


class _Parser(argparse.ArgumentParser):
    # usage problems exit with status 1; data problems exit with 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(args):
    config = load_train_config(args.config) if args.config else TrainConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return apply_env_seed(config)


def _check_out_dir(path):
    """Raise the `OSError` that writing `path` would meet for want of its directory, naming
    `path`, so that a command fails before its work rather than after it."""
    head = os.path.dirname(path) or os.curdir
    try:
        mode = os.stat(head).st_mode
    except OSError as err:
        raise type(err)(err.errno, err.strerror, path) from None
    if not stat.S_ISDIR(mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _threshold_flag(text):
    try:
        return parse_threshold(text)
    except ConfigError as err:  # argparse would print the flag's value without the reason
        raise argparse.ArgumentTypeError(str(err)) from None


# every scalar CorpusSpec field is a gen-data flag of the field's type and default
_SPEC_FLAGS = field_rules(CorpusSpec)


def _cmd_gen_data(args):
    for out in (args.out, args.eval_out):
        if out:
            _check_out_dir(out)  # before the first file, so a bad one leaves neither written
    n_eval = args.eval_videos  # at least 1 with --eval-out, else 0
    values = {name: getattr(args, name) for name in _SPEC_FLAGS}
    values["n_videos"] += n_eval
    spec = CorpusSpec(**values)
    corpus = generate_corpus(spec)
    if n_eval:
        # held-out videos come from the same feature prototypes
        train_part, eval_part = split_corpus(corpus, eval_fraction=n_eval / spec.n_videos)
        save_corpus(train_part, args.out)
        save_corpus(eval_part, args.eval_out)
        print(f"wrote {train_part.n_videos} videos to {args.out}")
        print(f"wrote {eval_part.n_videos} held-out videos to {args.eval_out}")
    else:
        save_corpus(corpus, args.out)
        print(f"wrote {corpus.n_videos} videos to {args.out}")
    return 0


def _cmd_train(args):
    config = _load_config(args)
    corpus = load_corpus(args.corpus)
    eval_corpus = load_corpus(args.eval_corpus) if args.eval_corpus else None
    made = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)  # before training, so a bad --out costs no work
    try:
        params, log = train(corpus, config, eval_corpus=eval_corpus)
    except BaseException:
        if made:  # a run that fails leaves no output directory behind
            os.rmdir(args.out)
        raise
    params_path = os.path.join(args.out, "params.json")
    log_path = os.path.join(args.out, "trainlog.json")
    save_params(params, params_path)
    write_json(log_path, log.to_mapping())
    last = log.epochs[-1].losses
    print(f"trained {config.epochs} epochs; final mean total loss {last.total:.6f}")
    print(f"params: {params_path}")
    print(f"log: {log_path}")
    return 0


def _cmd_predict(args):
    _check_out_dir(args.out)  # before the parameters and corpus load
    params = load_params(args.params)
    corpus = load_corpus(args.corpus)
    preds = predict(params, corpus, branch=args.branch, unimodal_only=args.unimodal_only)
    write_predictions(preds, args.out)
    print(f"wrote predictions for {len(corpus.samples)} videos to {args.out}")
    return 0


def _cmd_eval(args):
    if args.out:
        _check_out_dir(args.out)  # before the predictions and corpus load
    preds = load_predictions(args.pred)
    corpus = load_corpus(args.gt)
    report = evaluate(preds, corpus, threshold=args.threshold)
    text = report.to_text()
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_ablate(args):
    if args.out:
        _check_out_dir(args.out)  # before the first variant trains
    config = _load_config(args)
    corpus = load_corpus(args.corpus)
    eval_corpus = load_corpus(args.eval_corpus) if args.eval_corpus else None
    axes = [a for a in (args.axes.split(",") if args.axes else []) if a]
    rows = ablate(corpus, config, axes, eval_corpus=eval_corpus)
    csv_text = ablation_table_csv(rows)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(csv_text)
    sys.stdout.write(csv_text)
    return 0


def build_parser():
    parser = _Parser(prog="coleaf", description="Weakly supervised audio-visual video parsing")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", parents=[], help="generate a synthetic corpus")
    gen.add_argument("--out", required=True)
    for name, (kind, _, _) in _SPEC_FLAGS.items():
        gen.add_argument("--" + name.replace("_", "-"), type=kind, default=getattr(CorpusSpec, name))
    gen.add_argument("--eval-out", help="also write a held-out corpus from the same prototypes")
    gen.add_argument("--eval-videos", type=int, default=0)
    gen.set_defaults(func=_cmd_gen_data)

    tr = sub.add_parser("train", help="train both branches on a corpus")
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--eval-corpus")
    tr.add_argument("--config")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--out", required=True, help="output directory for params and log")
    tr.set_defaults(func=_cmd_train)

    pr = sub.add_parser("predict", help="write segment probabilities for a corpus")
    pr.add_argument("--params", required=True)
    pr.add_argument("--corpus", required=True)
    pr.add_argument("--branch", choices=("anchor", "reference"), default="anchor")
    pr.add_argument("--unimodal-only", action="store_true")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_predict)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--threshold", type=_threshold_flag, default=0.5)
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_eval)

    ab = sub.add_parser("ablate", help="train and compare configuration variants")
    ab.add_argument("--corpus", required=True)
    ab.add_argument("--eval-corpus")
    ab.add_argument("--config")
    ab.add_argument("--seed", type=int)
    ab.add_argument("--axes", default="", help="comma-separated config switches to toggle")
    ab.add_argument("--out")
    ab.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-data" and args.eval_out and args.eval_videos < 1:
            parser.error(
                f"--eval-videos must be at least 1 with --eval-out, got {args.eval_videos}"
            )
        if args.command == "gen-data" and args.eval_videos and not args.eval_out:
            parser.error(f"--eval-videos {args.eval_videos} needs --eval-out")
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (
        FileNotFoundError,
        FileExistsError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
    ) as err:
        # raised by a read or a write alike, so name the path and the reason only
        detail = f"{err.filename}: {err.strerror}" if err.filename else err
        sys.stderr.write(f"coleaf: error: {detail}\n")
        return 2
    except (
        FileFormatError,
        AlignmentError,
        ConfigError,
        DimensionError,
        ContractError,
        DivergenceError,
    ) as err:
        sys.stderr.write(f"coleaf: error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
