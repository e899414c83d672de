"""The compact feature encoding against its dense form.

Training on a FeatureMatrix must grow the trees that training on its
dense descriptor matrix, wrapped by FeatureMatrix.from_dense, grows, and
the batched traversal in predict_many must agree with a plain per-row
walk of every tree (reference_p_disagreement).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import (
    Corpus,
    FeatureMode,
    ForestConfig,
    ImageFeatureTable,
    build_vocabularies,
    extract_matrix,
    make_planted_corpus,
    predict_many,
    save_corpus_jsonl,
    save_model,
    train_forest,
)
from crowd_consensus.cli import main
from crowd_consensus.features import FeatureMatrix, feature_dimension

from conftest import dense, make_random_corpus


def reference_p_disagreement(model, x) -> float:
    """Vote share for one dense row, walking each tree node by node."""
    votes = 0
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        votes += int(2 * tree.votes_disagreement[node] >= tree.votes_total[node])
    return votes / model.config.n_trees


def _saliency_table(corpus, seed):
    """Random saliency for about half the images (a few rows repeat), uniform for the rest."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(5), size=4)
    images = sorted({vq.image_id for vq in corpus})[::2]
    return ImageFeatureTable(np.array(images, dtype=np.int64), rows[[rng.integers(4) for _ in images]])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    corpus_seed=st.integers(0, 2**32 - 1),
    forest_seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(list(FeatureMode)),
)
def test_encoding_matches_its_dense_matrix(tmp_path_factory, n, corpus_seed, forest_seed, mode):
    corpus = make_random_corpus(n, seed=corpus_seed)
    # Vocabularies from the first half, so later rows carry unseen words.
    train_split = Corpus.from_questions(list(corpus)[: max(2, n // 2)])
    vocab = build_vocabularies(train_split)
    table = _saliency_table(corpus, corpus_seed)
    X = extract_matrix(train_split, vocab, table, mode)
    # Random labels: the random corpus's own pools almost never agree, which
    # would leave every tree a single pure leaf.
    y = (np.random.default_rng(corpus_seed).random(len(train_split)) < 0.5).tolist()
    config = ForestConfig(n_trees=3, seed=forest_seed)
    model, from_dense = (
        train_forest(features, y, config, vocab=vocab, feature_mode=mode)
        for features in (X, FeatureMatrix.from_dense(dense(X)))
    )
    out = tmp_path_factory.mktemp("models")
    save_model(model, out / "encoded.json")
    save_model(from_dense, out / "dense.json")
    assert (out / "encoded.json").read_bytes() == (out / "dense.json").read_bytes()

    every = extract_matrix(corpus, vocab, table, mode)
    rows = dense(every)
    assert every.shape == rows.shape == (n, feature_dimension(vocab, mode))
    batched = predict_many(model, every).tolist()
    assert batched == [reference_p_disagreement(model, row) for row in rows]
    assert batched == predict_many(model, FeatureMatrix.from_dense(rows)).tolist()


def test_feature_matrix_holds_codes_not_one_hot_columns():
    corpus = make_random_corpus(50, seed=4)
    vocab = build_vocabularies(corpus)
    X = extract_matrix(corpus, vocab, mode=FeatureMode.QI)
    assert len(X) == 50
    assert X.shape == (50, feature_dimension(vocab, FeatureMode.QI))
    # Length, first word, second word and five saliency probabilities.
    assert X.values.shape == (8, 50) and X.values.flags.c_contiguous
    assert X.nbytes == X.values.nbytes + X.source.nbytes
    rows = dense(X)
    assert rows.dtype == np.float64
    one_hot = rows[:, 1 : 1 + len(vocab.first_words)]
    assert one_hot.sum(axis=1).tolist() == [1.0] * 50  # every first word is in vocabulary
    assert one_hot.argmax(axis=1).tolist() == X.values[1].tolist()


def test_cli_never_builds_the_dense_matrix(tmp_path, monkeypatch):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(make_planted_corpus(300, seed=5), corpus_path)

    def refuse(X):
        raise AssertionError("a dense feature matrix was wrapped")

    # from_dense is the one way to turn a dense array into forest input.
    monkeypatch.setattr(FeatureMatrix, "from_dense", refuse)
    with pytest.raises(AssertionError):
        FeatureMatrix.from_dense(np.zeros((1, 1)))
    out = tmp_path / "run"
    base = ["--corpus", str(corpus_path), "--out-dir", str(out)]
    model = ["--model", str(out / "model.json")]
    assert main(["train", *base, "--seed", "3"]) == 0
    assert main(["predict", *base, *model]) == 0
    assert main(["eval", *base, *model]) == 0
    assert main(["allocate", *base, *model, "--budget", "100"]) == 0
    assert main(["sweep", *base, *model, "--budgets", "0,150,300"]) == 0
