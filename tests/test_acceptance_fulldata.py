"""Optional full-data acceptance track against the public VQA v1.0 release.

Set CROWD_CONSENSUS_VQA_DIR to a directory holding the four real-image
v1.0 files (OpenEnded_mscoco_{train,val}2014_questions.json and
mscoco_{train,val}2014_annotations.json) to enable these tests; they are
skipped otherwise. The final allocation test trains the full classifier
and takes substantial time.
"""

import os
from functools import lru_cache
from pathlib import Path

import pytest

from crowd_consensus import (
    ForestConfig,
    FeatureMode,
    agreement_by_answer_type,
    build_vocabularies,
    diversity_histogram,
    extract_matrix,
    load_corpus,
    oracle_ranking,
    predict_many,
    rank_by_disagreement,
    status_quo_ranking,
    sweep,
    train_forest,
)

DATA_DIR = os.environ.get("CROWD_CONSENSUS_VQA_DIR")

pytestmark = pytest.mark.skipif(
    DATA_DIR is None,
    reason="full-data track: set CROWD_CONSENSUS_VQA_DIR to the VQA v1.0 files",
)

FILES = {
    "train_q": "OpenEnded_mscoco_train2014_questions.json",
    "train_a": "mscoco_train2014_annotations.json",
    "val_q": "OpenEnded_mscoco_val2014_questions.json",
    "val_a": "mscoco_val2014_annotations.json",
}


def _path(key):
    return Path(DATA_DIR) / FILES[key]


@lru_cache(maxsize=None)
def _split(name):
    return load_corpus(_path(f"{name}_q"), _path(f"{name}_a"), format="vqa_v1_json")


@lru_cache(maxsize=1)
def _combined():
    questions = list(_split("train")) + list(_split("val"))
    from crowd_consensus import Corpus

    return Corpus.from_questions(questions)


def test_criterion_8_corpus_scale():
    assert len(_split("train")) == 248_349
    assert len(_split("val")) == 121_512


def test_criterion_9_agreement_statistics():
    rates = agreement_by_answer_type(_combined())
    assert rates["all"].at_most_one_disagreement_rate == pytest.approx(0.516, abs=0.02)
    assert rates["yes/no"].at_most_one_disagreement_rate == pytest.approx(0.74, abs=0.02)


def test_criterion_10_no_valid_answer_rates():
    corpus = _combined()
    n = len(corpus)
    assert diversity_histogram(corpus, 2)[0] / n == pytest.approx(0.01, abs=0.005)
    assert diversity_histogram(corpus, 3)[0] / n == pytest.approx(0.05, abs=0.01)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion_11_histogram_shape(m):
    hist = diversity_histogram(_combined(), m)
    ordered = sorted(hist.items(), key=lambda kv: -kv[1])
    assert ordered[0][0] == 1
    assert ordered[1][0] == 2


def test_criterion_12_allocation_gain():
    train_split, val_split = _split("train"), _split("val")
    vocab = build_vocabularies(train_split)
    X_train = extract_matrix(train_split, vocab, mode=FeatureMode.Q)
    y_train = train_split.answer_table.labels()
    model = train_forest(
        X_train, y_train, ForestConfig(n_trees=25, seed=11),
        vocab=vocab, feature_mode=FeatureMode.Q,
    )
    X_val = extract_matrix(val_split, vocab, mode=FeatureMode.Q)
    n = len(val_split)
    budgets = [round(n * i / 20) for i in range(21)]
    rows = sweep(
        val_split,
        {
            "ours": [rank_by_disagreement(predict_many(model, X_val))],
            "status_quo": [status_quo_ranking(n, [0, k]) for k in range(3)],
        },
        budgets,
        mode="exact",
    )
    by_name = {}
    for row in rows:
        by_name.setdefault(row.ranking, []).append(row)
    ours = _spent_at_fraction(by_name["ours"], 0.70)
    status_quo = _spent_at_fraction(by_name["status_quo"], 0.70)
    assert ours <= 0.85 * status_quo


def _spent_at_fraction(rows, target):
    """Answers spent when captured diversity first reaches `target`, interpolated."""
    rows = sorted(rows, key=lambda r: r.answers_spent)
    for low, high in zip(rows, rows[1:]):
        if low.diversity_fraction <= target <= high.diversity_fraction:
            span = high.diversity_fraction - low.diversity_fraction
            weight = 0.0 if span == 0 else (target - low.diversity_fraction) / span
            return low.answers_spent + weight * (high.answers_spent - low.answers_spent)
    raise AssertionError(f"diversity never reaches {target}")
