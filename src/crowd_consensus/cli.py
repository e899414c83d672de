"""Command-line pipeline: analyze, train, predict, eval, allocate, sweep.

A command computes all of its outputs, then writes them into --out-dir,
creating it, so one that fails on its input creates no directory. Each
file is written to a temporary file and renamed over the output, unless
the output already holds exactly those bytes: then it is left as it is,
same inode and mtime, so a rerun rewrites only what changed. main
then writes the resolved run configuration (run_config.json) next to
them, so a finished run can be reproduced exactly. Exit codes: 0 success;
2 for a CrowdConsensusError (bad input, or a flag refused as InvalidArgument)
or an OSError; 3 for any other exception, a bare ValueError included.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import re
import stat
import sys
from collections.abc import Sequence
from pathlib import Path

# A command process pays only for its command; a library import of the
# package does none of this. Nothing in this package calls BLAS (no @, dot,
# matmul, linalg or einsum), so numpy's OpenBLAS gets one thread instead of
# a pool per core, unless the caller set OPENBLAS_NUM_THREADS. The variable
# is only read while numpy loads, and is removed again so that later code
# and child processes see the caller's environment. Every object created
# while importing lives until the process exits, so the imports run without
# garbage collection and their heap is then frozen out of later collections.
_gc_was_enabled = gc.isenabled()
gc.disable()
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]

from .allocation import (
    SIMULATION_MODES,
    make_plan,
    oracle_ranking,
    rank_by_disagreement,
    status_quo_ranking,
    sweep,
)
from .answers import agreement_by_answer_type, diversity_histogram
from .corpus import CORPUS_FORMATS, load_corpus, load_image_features
from .errors import CrowdConsensusError, DimensionMismatch, EmptyTrainingSet, InvalidArgument
from .evalmetrics import stratified_eval
from .features import FeatureMode, build_vocabularies, extract_matrix
from .forest import ForestConfig, load_model, predict_many, save_model, train_forest

gc.freeze()
if _gc_was_enabled:
    gc.enable()

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = {k: v for k, v in vars(args).items() if k != "func"}
        # A command returns the fields it resolves for run_config.json, if any.
        config.update(args.func(args) or {})
        _write_json(Path(args.out_dir) / "run_config.json", config)
        return EXIT_OK
    except (CrowdConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # invariant violations and the unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowd-consensus",
        description="Analyze crowd answer agreement for visual questions, "
        "predict it, and allocate answer-collection budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "analyze", cmd_analyze, "Diversity histograms and agreement-by-type rates")
    _corpus_flags(p)
    p.add_argument("--m", type=integer, default=None,
                   help="single agreement threshold (default: histograms for m=1,2,3 up to A)")

    p = _command(sub, "train", cmd_train, "Train the disagreement classifier")
    _corpus_flags(p)
    p.add_argument("--image-features", help="saliency CSV (image_id,p0..p4)")
    p.add_argument("--mode", choices=[m.value for m in FeatureMode], default="qi")
    p.add_argument("--trees", type=integer, default=25)
    p.add_argument("--seed", type=integer, default=0, help="master seed (default: 0)")
    p.add_argument("--model", help="output model path (default: OUT_DIR/model.json)")

    p = _command(sub, "predict", cmd_predict, "Per-question disagreement probabilities")
    _model_flags(p)

    p = _command(sub, "eval", cmd_eval, "Precision-recall curves and AP report")
    _model_flags(p)

    p = _command(sub, "allocate", cmd_allocate, "Per-question answer-count plan")
    _model_flags(p)
    p.add_argument("--budget", type=integer, required=True,
                   help="number of questions granted R answers")
    p.add_argument("--s", type=integer, default=1)
    p.add_argument("--r", type=integer, default=5)

    p = _command(sub, "sweep", cmd_sweep, "Diversity vs budget for ours/status-quo/oracle")
    _model_flags(p)
    p.add_argument("--budgets", help="comma-separated budgets (default: 11 even steps)")
    p.add_argument("--s", type=integer, default=1)
    p.add_argument("--r", type=integer, default=5)
    p.add_argument("--sim", choices=SIMULATION_MODES, default="exact")
    p.add_argument("--trials", type=integer, default=1000)
    p.add_argument("--status-quo-seeds", type=integer, default=1,
                   help="random orderings averaged into the status-quo rows")
    p.add_argument("--seed", type=integer, default=0)

    return parser


_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """An optional "-" then ASCII digits, read as an int.

    int() also reads surrounding whitespace, "_" digit separators and
    non-ASCII digits; every integer flag refuses them.
    """
    if not _INTEGER.fullmatch(text):
        raise InvalidArgument(f"not an integer: {text!r}")
    return int(text)


def _command(sub, name, func, help_text):
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    p.add_argument("--out-dir", default=".", help="directory for outputs")
    return p


def _corpus_flags(p) -> None:
    p.add_argument("--corpus", required=True, help="questions file")
    p.add_argument("--annotations", help="annotations file (vqa_v1_json only)")
    p.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")


def _model_flags(p) -> None:
    """Flags of the commands that featurize a corpus with a trained model."""
    _corpus_flags(p)
    p.add_argument("--image-features")
    p.add_argument("--model", required=True)


def _load(args):
    return load_corpus(args.corpus, annotations_source=args.annotations, format=args.format)


def _check_seed(args) -> None:
    """--seed must lie in [0, 2**64), like ForestConfig.seed."""
    if not 0 <= args.seed < 2**64:
        raise InvalidArgument(f"--seed must be an integer in [0, 2**64), got {args.seed}")


def _atomic_write(path: Path, write) -> None:
    """Call write(tmp) on a sibling temporary file, then move it over path.

    Creates path's directory. If path is already a regular file holding
    exactly tmp's bytes, it is left as it is (same inode and mtime) and tmp
    is removed: a rerun pays no rename over an existing file, which ext4
    makes wait for writeback. A write that fails leaves any previous file
    at path untouched and no temporary file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        if not _holds_bytes_of(path, tmp):
            os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _holds_bytes_of(path: Path, tmp: Path) -> bool:
    """Whether path is a regular file, not a symlink, with exactly tmp's bytes.

    Both are read in 8 KiB chunks, so memory stays flat. Any OSError, or a
    short read, answers False, and the caller then replaces path as usual.
    """
    fds = []
    try:
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != os.stat(tmp).st_size:
            return False
        for name in (tmp, path):
            fds.append(os.open(name, os.O_RDONLY))
        while (chunk := os.read(fds[0], 8192)) == os.read(fds[1], 8192):
            if not chunk:
                return True
        return False
    except OSError:
        return False
    finally:
        for fd in fds:
            os.close(fd)


def _write_json(path: Path, doc) -> None:
    def write(tmp: Path) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_write(path, write)


def _write_csv(path: Path, header, rows) -> None:
    def write(tmp: Path) -> None:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _atomic_write(path, write)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_analyze(args) -> None:
    corpus = _load(args)
    out = Path(args.out_dir)
    # By default m = 1, 2, 3 up to A; a corpus without answers still fails m = 1.
    default = [1, 2, 3][: max(corpus.answers_per_question, 1)]
    thresholds = [args.m] if args.m is not None else default
    # Every threshold is checked before any file is written.
    hists = {m: diversity_histogram(corpus, m) for m in thresholds}
    rates = agreement_by_answer_type(corpus)
    for m, hist in hists.items():
        _write_csv(
            out / f"histogram_m{m}.csv",
            ["m", "k", "count"],
            [[m, k, count] for k, count in sorted(hist.items())],
        )
    _write_csv(
        out / "answer_types.csv",
        ["answer_type", "unanimous", "exactly_one", "at_most_one", "n"],
        [
            [
                stratum,
                _fmt(r.unanimous_rate),
                _fmt(r.exactly_one_disagreement_rate),
                _fmt(r.at_most_one_disagreement_rate),
                r.n,
            ]
            for stratum, r in rates.items()
        ],
    )


def cmd_train(args) -> dict:
    _check_seed(args)
    try:
        config = ForestConfig(n_trees=args.trees, seed=args.seed)
    except InvalidArgument as exc:
        raise InvalidArgument(f"bad --trees value {args.trees}: {exc}") from exc
    corpus = _load(args)
    if len(corpus) == 0:
        raise EmptyTrainingSet(f"no questions in {args.corpus}")
    vocab = build_vocabularies(corpus)
    table = load_image_features(args.image_features) if args.image_features else None
    mode = FeatureMode(args.mode)
    X = extract_matrix(corpus, vocab, table, mode)
    y = corpus.answer_table.labels()
    del corpus, table  # the forest grows from X and y alone; free the rest first
    model = train_forest(X, y, config, vocab=vocab, feature_mode=mode)
    model_path = Path(args.model or Path(args.out_dir) / "model.json")
    _atomic_write(model_path, lambda tmp: save_model(model, tmp))
    return {"model": str(model_path)}


def _model_predictions(args):
    """(corpus, scores): the corpus and predict_many's vote share for each row."""
    model = load_model(args.model)
    if model.vocab is None:
        raise DimensionMismatch(
            f"{args.model} carries no vocabularies and cannot featurize a corpus"
        )
    corpus = _load(args)
    table = load_image_features(args.image_features) if args.image_features else None
    X = extract_matrix(corpus, model.vocab, table, model.feature_mode)
    return corpus, predict_many(model, X)


def cmd_predict(args) -> None:
    corpus, scores = _model_predictions(args)
    _write_csv(
        Path(args.out_dir) / "predictions.csv",
        ["question_id", "p_disagreement", "label"],
        (
            [qid, _fmt(p), "disagreement" if p > 0.5 else "agreement"]
            for qid, p in zip(corpus.ids.tolist(), scores.tolist())
        ),
    )


def cmd_eval(args) -> None:
    corpus, scores = _model_predictions(args)
    out = Path(args.out_dir)
    labels = corpus.answer_table.labels()
    report = stratified_eval(scores, labels, corpus.answer_types)
    _write_json(
        out / "report.json",
        {
            "ap_overall": report.ap_overall,
            "ap_by_type": dict(report.ap_by_type),
            "n_by_type": dict(report.n_by_type),
        },
    )
    _write_curve(out / "pr_overall.csv", report.curve_overall)
    for stratum, curve in report.curve_by_type.items():
        _write_curve(out / f"pr_{stratum.replace('/', '_')}.csv", curve)


def _write_curve(path: Path, curve) -> None:
    _write_csv(
        path,
        ["threshold", "recall", "precision"],
        [[_fmt(pt.threshold), _fmt(pt.recall), _fmt(pt.precision)] for pt in curve],
    )


def cmd_allocate(args) -> None:
    corpus, scores = _model_predictions(args)
    counts = make_plan(rank_by_disagreement(scores), args.budget, args.s, args.r)
    _write_csv(
        Path(args.out_dir) / "plan.csv",
        ["question_id", "answer_count", "p_disagreement"],
        (
            [qid, count, _fmt(p)]
            for qid, count, p in zip(corpus.ids.tolist(), counts.tolist(), scores.tolist())
        ),
    )


def cmd_sweep(args) -> dict:
    if not 1 <= args.status_quo_seeds < 2**31:
        raise InvalidArgument(f"--status-quo-seeds must be in [1, 2**31), got {args.status_quo_seeds}")
    if args.sim == "mc" and not 1 <= args.trials < 2**31:
        raise InvalidArgument(f"--trials must be in [1, 2**31) with --sim mc, got {args.trials}")
    _check_seed(args)
    budgets = None if args.budgets is None else _parse_budgets(args.budgets)
    corpus, scores = _model_predictions(args)
    if budgets is None:  # 11 even steps
        budgets = sorted({round(len(corpus) * i / 10) for i in range(11)})
    rankings = {
        "ours": [rank_by_disagreement(scores)],
        "status_quo": _StatusQuoOrderings(len(corpus), args.seed, args.status_quo_seeds),
        "oracle": [oracle_ranking(corpus)],
    }
    rows = sweep(
        corpus,
        rankings,
        budgets,
        s=args.s,
        r=args.r,
        mode=args.sim,
        trials=args.trials,
        seed=args.seed,
    )
    _write_csv(
        Path(args.out_dir) / "sweep.csv",
        ["ranking", "budget", "answers_spent", "diversity", "diversity_fraction"],
        [
            [row.ranking, row.budget, row.answers_spent, _fmt(row.diversity),
             _fmt(row.diversity_fraction)]
            for row in rows
        ],
    )
    return {"budgets": budgets}


class _StatusQuoOrderings(Sequence):
    """The k-th of `count` status-quo orderings of n rows is seeded by [seed, k].

    Each is drawn when it is read, and sweep reads them one at a time, so
    memory does not grow with --status-quo-seeds; unlike a generator, the
    orderings can still be counted and indexed.
    """

    def __init__(self, n: int, seed: int, count: int) -> None:
        self.n, self.seed, self.count = n, seed, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> list[int]:
        if not 0 <= k < self.count:
            raise IndexError(k)
        return status_quo_ranking(self.n, [self.seed, k])


def _parse_budgets(raw: str) -> list[int]:
    try:
        return [integer(b) for b in raw.split(",")]
    except InvalidArgument as exc:
        raise InvalidArgument(f"bad --budgets value {raw!r}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
