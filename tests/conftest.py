import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from crowd_consensus import Corpus, VisualQuestion, normalize_answer
from crowd_consensus.corpus import DEFAULT_ANSWERS_PER_QUESTION
from crowd_consensus.synthetic import _DIVERSE_ANSWERS, _SUBJECTS, _pick


def vq(qid, text, answers, answer_type=None, image_id=None):
    return VisualQuestion(
        question_id=qid,
        image_id=image_id if image_id is not None else qid,
        question_text=text,
        raw_answers=tuple(answers),
        answer_type=answer_type,
    )


@pytest.fixture
def mixed_corpus():
    """Six questions mixing agreement outcomes and answer types."""
    return Corpus.from_questions(
        [
            vq(1, "is the sky blue", ["yes"] * 10, "yes/no"),
            vq(2, "is this picture scary", ["yes"] * 5 + ["no"] * 5, "yes/no"),
            vq(3, "how many dogs are there", ["2"] * 9 + ["3"], "number"),
            vq(4, "what color is the car", ["red"] * 4 + ["blue"] * 3 + ["maroon"] * 3, "other"),
            vq(5, "why is the man sad", [f"reason {i}" for i in range(10)], "other"),
            vq(6, "what is on the table", ["lamp"] * 8 + ["light", "bulb"]),
        ]
    )


def make_random_corpus(n_questions: int, seed: int = 0) -> Corpus:
    """Random questions with A = 10 answers of varied repetition, for property tests."""
    rng = np.random.default_rng(seed)
    openers = ("what", "why", "is", "how", "where", "does")
    questions = []
    for i in range(n_questions):
        n_words = int(rng.integers(1, 5))
        words = [_pick(rng, openers)] + [
            _pick(rng, _SUBJECTS) for _ in range(n_words - 1)
        ]
        # Small answer banks force repeats (some truth); large ones force spread.
        bank_size = int(rng.integers(2, 16))
        bank = rng.choice(len(_DIVERSE_ANSWERS), size=bank_size, replace=False)
        pool = tuple(
            _DIVERSE_ANSWERS[bank[k]]
            for k in rng.integers(0, bank_size, size=DEFAULT_ANSWERS_PER_QUESTION)
        )
        questions.append(
            VisualQuestion(
                question_id=i,
                image_id=int(rng.integers(0, 1000)),
                question_text=" ".join(words),
                raw_answers=pool,
            )
        )
    return Corpus.from_questions(questions)


def dense(X):
    """X, a FeatureMatrix, as its (n, d) float64 descriptor matrix: numeric
    columns as stored, a one-hot column 1.0 where its word row holds its word."""
    row, word = X.source.T
    values = X.values[row].T
    return np.where(word < 0, values, values == word)


def reference_predict(model, X):
    """predict_many's vote shares, one row at a time down each tree in Python.

    A node reads its feature's (row, word) through X.source; a one-hot
    feature (word >= 0) is 1.0 where the row holds that word, else 0.0.
    Rows go left when that value is <= the threshold, and a leaf votes
    disagreement on ties.
    """
    values = X.values.T.tolist()  # values[i][r]: question i's entry of row r
    source = X.source.tolist()
    trees = [
        (t.feature.tolist(), t.threshold.tolist(), t.left.tolist(), t.right.tolist(),
         t.votes_disagreement.tolist(), t.votes_total.tolist())
        for t in model.trees
    ]
    shares = []
    for entries in values:
        votes = 0
        for feature, threshold, left, right, vd, vt in trees:
            node = 0
            while feature[node] >= 0:
                r, w = source[feature[node]]
                value = entries[r] if w < 0 else float(entries[r] == w)
                node = left[node] if value <= threshold[node] else right[node]
            votes += vd[node] >= vt[node] - vd[node]
        shares.append(votes / model.config.n_trees)
    return np.array(shares, dtype=np.float64)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def reference_exact_capture(corpus, sizes):
    """Expected captured diversity as a Fraction, from math.comb on each pool;
    sizes maps question id -> answers drawn."""
    a = corpus.answers_per_question
    total = Fraction(0)
    for q in corpus:
        pool = [normalize_answer(ans) for ans in q.raw_answers]
        n = sizes[q.question_id]
        for ans in set(pool):
            c = pool.count(ans)
            if c >= 2:
                total += 1 - Fraction(math.comb(a - c, n), math.comb(a, n))
    return total


def reference_truth_counts(corpus):
    """Question id -> how many normalized answers its pool gives at least twice."""
    counts = {}
    for q in corpus:
        pool = [normalize_answer(ans) for ans in q.raw_answers]
        counts[q.question_id] = sum(pool.count(ans) >= 2 for ans in set(pool))
    return counts


def reference_mc(corpus, sizes, trials, seed):
    """The documented MC stream: one generator per (seed, question id), both
    taken mod 2**64; trial t draws that generator's t-th permutation(A).
    sizes maps question id -> answers drawn."""
    a = corpus.answers_per_question
    total = 0
    for q in corpus:
        pool = [normalize_answer(ans) for ans in q.raw_answers]
        truth = {ans for ans in pool if pool.count(ans) >= 2}
        rng = np.random.default_rng([seed % 2**64, q.question_id % 2**64])
        for _ in range(trials):
            order = rng.permutation(a)
            total += len({pool[i] for i in order[: sizes[q.question_id]]} & truth)
    return total / trials


def scattered_ids(corpus, seed=0):
    """corpus with its questions renumbered: the question at row k gets id
    5 + 12 k + j (0 <= j < 12) and ids are handed out in a shuffled order,
    so no id equals its row and a row/id mix-up changes results."""
    rng = np.random.default_rng(seed)
    n = len(corpus)
    ids = rng.permutation(n) * 12 + 5 + rng.integers(0, 12, size=n)
    return Corpus.from_questions(
        dataclasses.replace(q, question_id=int(qid)) for q, qid in zip(corpus, ids)
    )
