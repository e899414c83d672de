"""Command-line pipeline: analyze, train, predict, eval, allocate, sweep.

Every command writes its resolved run configuration (run_config.json)
next to its outputs, so a finished run can be reproduced exactly. Exit
codes: 0 success, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .allocation import (
    make_plan,
    oracle_ranking,
    rank_by_disagreement,
    status_quo_ranking,
    sweep,
)
from .answers import AgreementLabel, agreement_by_answer_type, diversity_histogram
from .corpus import load_corpus, load_image_features
from .errors import CrowdConsensusError, DimensionMismatch, EmptyTrainingSet
from .evalmetrics import pr_curve, stratified_eval
from .features import FeatureMode, build_vocabularies, extract_matrix
from .forest import ForestConfig, load_model, predict_many, save_model, train_forest

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrowdConsensusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # invariant violations and the unexpected
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entrypoint() -> None:
    sys.exit(main())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowd-consensus",
        description="Analyze crowd answer agreement for visual questions, "
        "predict it, and allocate answer-collection budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "analyze", cmd_analyze, "Diversity histograms and agreement-by-type rates")
    _corpus_flags(p)
    p.add_argument("--m", type=int, default=None,
                   help="single agreement threshold (default: histograms for m=1,2,3)")

    p = _command(sub, "train", cmd_train, "Train the disagreement classifier")
    _corpus_flags(p)
    p.add_argument("--image-features", help="saliency CSV (image_id,p0..p4)")
    p.add_argument("--mode", choices=[m.value for m in FeatureMode], default="qi")
    p.add_argument("--trees", type=int, default=25)
    p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    p.add_argument("--model", help="output model path (default: OUT_DIR/model.json)")

    p = _command(sub, "predict", cmd_predict, "Per-question disagreement probabilities")
    _corpus_flags(p)
    p.add_argument("--image-features")
    p.add_argument("--model", required=True)

    p = _command(sub, "eval", cmd_eval, "Precision-recall curves and AP report")
    _corpus_flags(p)
    p.add_argument("--image-features")
    p.add_argument("--model", required=True)

    p = _command(sub, "allocate", cmd_allocate, "Per-question answer-count plan")
    _corpus_flags(p)
    p.add_argument("--image-features")
    p.add_argument("--model", required=True)
    p.add_argument("--budget", type=int, required=True,
                   help="number of questions granted R answers")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--r", type=int, default=5)

    p = _command(sub, "sweep", cmd_sweep, "Diversity vs budget for ours/status-quo/oracle")
    _corpus_flags(p)
    p.add_argument("--image-features")
    p.add_argument("--model", required=True)
    p.add_argument("--budgets", help="comma-separated budgets (default: 11 even steps)")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--sim", choices=["exact", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--status-quo-seeds", type=int, default=1,
                   help="random orderings averaged into the status-quo rows")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _command(sub, name, func, help_text):
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    p.add_argument("--out-dir", default=".", help="directory for outputs")
    return p


def _corpus_flags(p) -> None:
    p.add_argument("--corpus", required=True, help="questions file")
    p.add_argument("--annotations", help="annotations file (vqa_v1_json only)")
    p.add_argument("--format", choices=["jsonl", "vqa_v1_json"], default="jsonl")


def _load(args):
    return load_corpus(args.corpus, annotations_source=args.annotations, format=args.format)


def _check_seed(args) -> None:
    """--seed must lie in [0, 2**64), like ForestConfig.seed."""
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be an integer in [0, 2**64), got {args.seed}")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _atomic_write(path: Path, write) -> None:
    """Call write(tmp) on a sibling temporary file, then move it over path.

    A write that fails leaves any previous file at path untouched and no
    temporary file behind.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def _write_run_config(out: Path, args, **resolved) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config.update(resolved)
    _write_json(out / "run_config.json", config)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_analyze(args) -> int:
    corpus = _load(args)
    out = _out_dir(args)
    thresholds = [args.m] if args.m is not None else [1, 2, 3]
    # Every threshold is checked before any file is written.
    hists = {m: diversity_histogram(corpus, m) for m in thresholds}
    for m, hist in hists.items():
        _write_csv(
            out / f"histogram_m{m}.csv",
            ["m", "k", "count"],
            [[m, k, count] for k, count in sorted(hist.items())],
        )
    rates = agreement_by_answer_type(corpus)
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
    _write_run_config(out, args)
    return EXIT_OK


def cmd_train(args) -> int:
    _check_seed(args)
    try:
        config = ForestConfig(n_trees=args.trees, seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"bad --trees value {args.trees}: {exc}") from exc
    corpus = _load(args)
    if len(corpus) == 0:
        raise EmptyTrainingSet(f"no questions in {args.corpus}")
    out = _out_dir(args)
    vocab = build_vocabularies(corpus)
    table = load_image_features(args.image_features) if args.image_features else None
    mode = FeatureMode(args.mode)
    X = extract_matrix(corpus, vocab, table, mode)
    y = corpus.answer_table.labels()
    model = train_forest(X, y, config, vocab=vocab, feature_mode=mode)
    model_path = Path(args.model) if args.model else out / "model.json"
    _atomic_write(model_path, lambda tmp: save_model(model, tmp))
    _write_run_config(out, args, model=str(model_path))
    return EXIT_OK


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


def cmd_predict(args) -> int:
    corpus, scores = _model_predictions(args)
    out = _out_dir(args)
    _write_csv(
        out / "predictions.csv",
        ["question_id", "p_disagreement", "label"],
        [
            [qid, _fmt(p), AgreementLabel(p > 0.5).name.lower()]
            for qid, p in zip(corpus.question_ids(), scores.tolist())
        ],
    )
    _write_run_config(out, args)
    return EXIT_OK


def cmd_eval(args) -> int:
    corpus, scores = _model_predictions(args)
    out = _out_dir(args)
    labels = corpus.answer_table.labels()
    report = stratified_eval(scores, labels, [vq.answer_type for vq in corpus])
    _write_json(
        out / "report.json",
        {
            "ap_overall": report.ap_overall,
            "ap_by_type": dict(report.ap_by_type),
            "n_by_type": dict(report.n_by_type),
        },
    )
    _write_curve(out / "pr_overall.csv", scores, labels)
    for stratum in report.ap_by_type:
        rows = report.rows_by_type[stratum]
        _write_curve(
            out / f"pr_{stratum.replace('/', '_')}.csv",
            scores[rows],
            labels[rows],
        )
    _write_run_config(out, args)
    return EXIT_OK


def _write_curve(path: Path, scores, labels) -> None:
    curve = pr_curve(scores, labels)
    _write_csv(
        path,
        ["threshold", "recall", "precision"],
        [[_fmt(pt.threshold), _fmt(pt.recall), _fmt(pt.precision)] for pt in curve.points],
    )


def cmd_allocate(args) -> int:
    corpus, scores = _model_predictions(args)
    out = _out_dir(args)
    plan = make_plan(rank_by_disagreement(scores), args.budget, args.s, args.r)
    _write_csv(
        out / "plan.csv",
        ["question_id", "answer_count", "p_disagreement"],
        [
            [qid, count, _fmt(p)]
            for qid, count, p in zip(corpus.question_ids(), plan.counts.tolist(), scores.tolist())
        ],
    )
    _write_run_config(out, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.status_quo_seeds < 1:
        raise ValueError(f"--status-quo-seeds must be >= 1, got {args.status_quo_seeds}")
    if args.sim == "mc" and args.trials < 1:
        raise ValueError(f"--trials must be >= 1 with --sim mc, got {args.trials}")
    _check_seed(args)
    budgets = None if args.budgets is None else _parse_budgets(args.budgets)
    corpus, scores = _model_predictions(args)
    if budgets is None:  # 11 even steps
        budgets = sorted({round(len(corpus) * i / 10) for i in range(11)})
    out = _out_dir(args)
    rankings = {
        "ours": [rank_by_disagreement(scores)],
        "status_quo": [
            status_quo_ranking(len(corpus), [args.seed, k]) for k in range(args.status_quo_seeds)
        ],
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
        out / "sweep.csv",
        ["ranking", "budget", "answers_spent", "diversity",
         "diversity_fraction", "cost_usd", "labor_hours"],
        [
            [row.ranking, row.budget, row.answers_spent, _fmt(row.diversity),
             _fmt(row.diversity_fraction), _fmt(row.cost_usd), _fmt(row.labor_hours)]
            for row in rows
        ],
    )
    _write_run_config(out, args, budgets=budgets)
    return EXIT_OK


def _parse_budgets(raw: str) -> list[int]:
    try:
        budgets = [int(b) for b in raw.split(",") if b.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --budgets value {raw!r}: {exc}") from exc
    if not budgets:
        raise ValueError("--budgets is empty")
    return budgets


if __name__ == "__main__":
    entrypoint()
