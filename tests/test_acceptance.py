"""Desk-scale acceptance gate.

Each test covers one release criterion at its stated tolerance and prints
one [acceptance] PASS/FAIL line (run with -s to see them on success).
"""

import json
import math
import random
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from crowd_consensus import (
    Corpus,
    FeatureMatrix,
    ForestConfig,
    FeatureMode,
    build_vocabularies,
    extract_matrix,
    make_planted_corpus,
    normalize_answer,
    oracle_ranking,
    predict_many,
    rank_by_disagreement,
    save_corpus_jsonl,
    save_model,
    status_quo_ranking,
    sweep,
    train_forest,
)
from crowd_consensus.cli import main

from conftest import make_random_corpus
from test_answers import NORMALIZATION_TABLE, RANDOM_ALPHABET
from test_evalmetrics import average_precision, reference_average_precision

A, D = False, True


@contextmanager
def criterion(name, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_seconds is not None:
            assert elapsed < limit_seconds, (
                f"{name} took {elapsed:.2f}s, limit {limit_seconds}s"
            )
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_normalization_conformance():
    with criterion("1 normalization conformance", limit_seconds=1.0):
        for raw, expected in NORMALIZATION_TABLE:
            assert normalize_answer(raw) == expected, raw
        rng = random.Random(20260811)
        for _ in range(10_000):
            s = "".join(rng.choices(RANDOM_ALPHABET, k=rng.randrange(25)))
            once = normalize_answer(s)
            assert normalize_answer(once) == once


def test_criterion_2_average_precision_oracle_equivalence():
    with criterion("2 AP oracle equivalence", limit_seconds=1.0):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9], size=n).tolist()
            labels = [D if v else A for v in rng.random(n) < 0.5]
            if D not in labels:
                labels[int(rng.integers(n))] = D
            fast = average_precision(scores, labels)
            slow = reference_average_precision(scores, labels)
            assert abs(fast - slow) <= 1e-12


def test_criterion_3_hypergeometric_correctness():
    from crowd_consensus import VisualQuestion

    with criterion("3 hypergeometric correctness", limit_seconds=5.0):
        corpus = Corpus.from_questions(
            [VisualQuestion(1, 1, "is it day", tuple(["yes"] * 8 + ["no"] * 2))]
        )
        plan = {"plan": [[0]]}  # budget 1: the one question gets R = 5 answers
        expected = 1 + (1 - math.comb(8, 5) / math.comb(10, 5))
        [exact] = sweep(corpus, plan, [1], s=1, r=5, mode="exact")
        assert abs(exact.diversity - expected) <= 1e-9
        assert round(exact.diversity, 4) == 1.7778
        [mc] = sweep(corpus, plan, [1], s=1, r=5, mode="mc", trials=100_000, seed=5)
        assert abs(mc.diversity - expected) <= 0.005


@lru_cache(maxsize=1)
def _planted_pipeline():
    corpus = make_planted_corpus(2000, seed=20)
    rows = list(corpus)
    train_split = Corpus.from_questions(rows[:1500])
    test_split = Corpus.from_questions(rows[1500:])
    vocab = build_vocabularies(train_split)
    X_train = extract_matrix(train_split, vocab, mode=FeatureMode.Q)
    y_train = train_split.answer_table.labels()
    model = train_forest(
        X_train,
        y_train,
        ForestConfig(n_trees=25, seed=11),
        vocab=vocab,
        feature_mode=FeatureMode.Q,
    )
    return corpus, test_split, vocab, model


def test_criterion_4_end_to_end_planted_signal():
    with criterion("4 end-to-end planted signal", limit_seconds=60.0):
        corpus, test_split, vocab, model = _planted_pipeline()
        X_test = extract_matrix(test_split, vocab, mode=FeatureMode.Q)
        scores = predict_many(model, X_test)
        labels = test_split.answer_table.labels().tolist()
        ap = average_precision(scores, labels)
        assert ap >= 0.95, f"held-out AP {ap:.4f}"
        # Planted-signal sanity: disagreement questions score higher on average.
        pos = [s for s, y in zip(scores, labels) if y is D]
        neg = [s for s, y in zip(scores, labels) if y is A]
        assert np.mean(pos) > np.mean(neg)


def test_criterion_5_allocation_dominance():
    with criterion("5 allocation dominance on planted corpus", limit_seconds=30.0):
        corpus, _, vocab, model = _planted_pipeline()
        X_all = extract_matrix(corpus, vocab, mode=FeatureMode.Q)
        n = len(corpus)
        budgets = [round(n * i / 10) for i in range(11)]
        rows = sweep(
            corpus,
            {
                "ours": [rank_by_disagreement(predict_many(model, X_all))],
                "status_quo": [status_quo_ranking(n, [1000, k]) for k in range(10)],
                "oracle": [oracle_ranking(corpus)],
            },
            budgets,
            mode="exact",
        )
        by_name = {}
        for row in rows:
            by_name.setdefault(row.ranking, []).append(row)
        for ours, status_quo, oracle in zip(
            by_name["ours"], by_name["status_quo"], by_name["oracle"]
        ):
            assert ours.diversity >= status_quo.diversity - 1e-9, f"B={ours.budget}"
            assert oracle.diversity >= ours.diversity - 1e-9, f"B={ours.budget}"
        mid = budgets.index(n // 2)
        gap = by_name["ours"][mid].diversity_fraction - by_name["status_quo"][mid].diversity_fraction
        assert gap >= 0.10, f"gap at B=N/2 is {gap:.3f}"


def test_criterion_6_determinism(tmp_path):
    with criterion("6 determinism of train/eval/sweep"):
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(make_planted_corpus(300, seed=5), corpus_path)
        out = tmp_path / "run"

        def run(cmd, *extra):
            args = [cmd, "--corpus", str(corpus_path), "--out-dir", str(out)]
            assert main(args + list(extra)) == 0

        run("train", "--mode", "q", "--seed", "11")
        model = str(out / "model.json")
        run("eval", "--model", model)
        run("sweep", "--model", model, "--budgets", "0,100,300",
            "--status-quo-seeds", "3", "--seed", "11")
        outputs = ["model.json", "run_config.json", "report.json",
                   "pr_overall.csv", "sweep.csv"]
        snapshot = {name: (out / name).read_bytes() for name in outputs}

        run("train", "--mode", "q", "--seed", "11")
        run("eval", "--model", model)
        run("sweep", "--model", model, "--budgets", "0,100,300",
            "--status-quo-seeds", "3", "--seed", "11")
        for name in ("model.json", "report.json", "pr_overall.csv", "sweep.csv"):
            assert (out / name).read_bytes() == snapshot[name], name

        # Tree t depends only on (seed, t): a smaller forest is a prefix.
        X = np.random.default_rng(3).normal(size=(120, 6))
        features, y = FeatureMatrix.from_dense(X), X[:, 0] > 0
        trees = {}
        for n_trees in (3, 5):
            path = tmp_path / f"forest{n_trees}.json"
            save_model(train_forest(features, y, ForestConfig(n_trees=n_trees, seed=5)), path)
            trees[n_trees] = json.loads(path.read_text())["trees"]
        assert json.dumps(trees[3]) == json.dumps(trees[5][:3])


def test_criterion_7_budget_monotonicity_and_boundaries():
    with criterion("7 monotonicity and boundary equality on 50 random corpora"):
        for seed in range(50):
            corpus = make_random_corpus(4 + seed % 21, seed=seed)
            n = len(corpus)
            rankings = [
                list(range(n)),
                status_quo_ranking(n, seed=seed),
                oracle_ranking(corpus),
            ]
            for ranking in rankings:
                previous = -1.0
                for budget in range(n + 1):
                    [report] = sweep(corpus, {"plan": [ranking]}, [budget])
                    assert report.diversity >= previous
                    previous = report.diversity
            for budget in (0, n):
                values = {
                    sweep(corpus, {"plan": [rk]}, [budget])[0].diversity
                    for rk in rankings
                }
                assert len(values) == 1
