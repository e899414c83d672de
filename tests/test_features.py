import json

import numpy as np
import pytest

from crowd_consensus import (
    Corpus,
    FeatureMatrix,
    FeatureMode,
    ForestConfig,
    ImageFeatureTable,
    Vocabularies,
    build_vocabularies,
    extract_matrix,
    feature_dimension,
    make_planted_corpus,
    train_forest,
)
from crowd_consensus.answers import words
from crowd_consensus.errors import DimensionMismatch, EmptyQuestion, InvalidArgument

from conftest import dense, vq


def test_tokenize_question():
    assert words("What is this?") == ["what", "is", "this"]
    assert words("Why?") == ["why"]


def test_tokenize_empty_question():
    corpus = Corpus.from_questions([vq(7, "  ?? ", ["a1"] * 10)])
    with pytest.raises(EmptyQuestion, match="question 7: question has no tokens"):
        build_vocabularies(corpus)


def extract_features(vq, vocab, table=None, mode=FeatureMode.QI):
    """One question's dense descriptor: a one-row extract_matrix."""
    return dense(extract_matrix(Corpus.from_questions([vq]), vocab, table, mode))[0]


@pytest.fixture
def small_corpus():
    return Corpus.from_questions(
        [
            vq(1, "what is x", ["a1"] * 10),
            vq(2, "what are y", ["a1"] * 10),
            vq(3, "is it z", ["a1"] * 10),
        ]
    )


def test_build_vocabularies(small_corpus):
    vocab = build_vocabularies(small_corpus)
    assert vocab.first_words == ("what", "is")
    assert vocab.second_words == ("is", "are", "it")


def test_build_vocabularies_single_word_question():
    corpus = Corpus.from_questions([vq(1, "why", ["a1"] * 10)])
    vocab = build_vocabularies(corpus)
    assert vocab.first_words == ("why",)
    assert vocab.second_words == ()


def test_build_vocabularies_deterministic(small_corpus):
    assert build_vocabularies(small_corpus) == build_vocabularies(small_corpus)


def test_build_vocabularies_reports_offending_question():
    corpus = Corpus.from_questions([vq(7, "?!", ["a1"] * 10)])
    with pytest.raises(EmptyQuestion, match="question 7"):
        build_vocabularies(corpus)


def test_build_vocabularies_empty_corpus():
    with pytest.raises(ValueError):
        build_vocabularies(Corpus.from_questions([]))


def test_build_vocabularies_refuses_a_word_utf8_cannot_store():
    # json reads "\ud800" as a lone surrogate; only the two kept words reach model.json.
    for text in ("\ud800 what is it", "what \ud800 is it"):
        with pytest.raises(InvalidArgument, match=r"question word '\\ud800' is not UTF-8 text"):
            build_vocabularies(Corpus.from_questions([vq(1, text, ["a1"] * 10)]))
    vocab = build_vocabularies(Corpus.from_questions([vq(1, "où est \ud800", ["a1"] * 10)]))
    assert vocab.first_words == ("où",) and vocab.second_words == ("est",)


def test_extract_worked_example(small_corpus):
    vocab = build_vocabularies(small_corpus)
    x = extract_features(vq(9, "what is this", ["a1"] * 10), vocab, mode=FeatureMode.QI)
    expected = [3, 1, 0, 1, 0, 0, 0.2, 0.2, 0.2, 0.2, 0.2]
    np.testing.assert_allclose(x, expected)


def test_extract_out_of_vocabulary_first_word(small_corpus):
    vocab = build_vocabularies(small_corpus)
    x = extract_features(vq(9, "how is it", ["a1"] * 10), vocab, mode=FeatureMode.Q)
    assert x[0] == 3
    assert list(x[1:3]) == [0, 0]  # "how" unseen at training time
    assert list(x[3:6]) == [1, 0, 0]


def test_extract_single_token_question(small_corpus):
    vocab = build_vocabularies(small_corpus)
    x = extract_features(vq(9, "what", ["a1"] * 10), vocab, mode=FeatureMode.Q)
    assert x[0] == 1
    assert list(x[3:6]) == [0, 0, 0]


def test_unseen_and_missing_words_are_coded_as_the_vocabulary_size(small_corpus):
    vocab = build_vocabularies(small_corpus)  # 2 first words, 3 second words
    X = extract_matrix(
        Corpus.from_questions([vq(8, "is it", ["a1"] * 10), vq(9, "how", ["a1"] * 10)]), vocab,
        mode=FeatureMode.Q,
    )
    assert X.values.tolist() == [[2, 1], [1, 2], [2, 3]]  # length, first word, second word
    rows = dense(X)
    assert rows[0].tolist() == [2, 0, 1, 0, 0, 1]
    assert rows[1].tolist() == [1, 0, 0, 0, 0, 0]  # "how" unseen, no second word


def test_extract_image_mode_uses_table(small_corpus):
    vocab = build_vocabularies(small_corpus)
    table = ImageFeatureTable(np.array([5]), np.array([[0.5, 0.2, 0.1, 0.1, 0.1]]))
    x = extract_features(
        vq(9, "what is x", ["a1"] * 10, image_id=5), vocab, table, FeatureMode.I
    )
    np.testing.assert_allclose(x, [0.5, 0.2, 0.1, 0.1, 0.1])


def test_truncated_layout_drops_blocks(small_corpus):
    vocab = build_vocabularies(small_corpus)
    assert feature_dimension(vocab, FeatureMode.Q) == 6
    assert feature_dimension(vocab, FeatureMode.I) == 5
    assert feature_dimension(vocab, FeatureMode.QI) == 11


def test_a_mode_must_be_a_feature_mode():
    # The string "q" was neither FeatureMode.I nor FeatureMode.Q, so it built
    # the 19-column qi matrix here, and save_model then failed on "q".value.
    corpus = make_planted_corpus(40, seed=1)
    vocab = build_vocabularies(corpus)
    assert feature_dimension(vocab, FeatureMode.Q) == 14
    X = extract_matrix(corpus, vocab, mode=FeatureMode.Q)
    y = corpus.answer_table.labels()
    for mode in ("q", "qi", None):
        with pytest.raises(ValueError, match="mode must be a FeatureMode"):
            feature_dimension(vocab, mode)
        with pytest.raises(ValueError, match="mode must be a FeatureMode"):
            extract_matrix(corpus, vocab, mode=mode)
        with pytest.raises(ValueError, match="mode must be a FeatureMode"):
            train_forest(X, y, ForestConfig(n_trees=1), vocab=vocab, feature_mode=mode)


def test_ablation_nesting(small_corpus):
    vocab = build_vocabularies(small_corpus)
    question = vq(9, "is it z", ["a1"] * 10)
    table = ImageFeatureTable(np.array([9]), np.array([[0.4, 0.3, 0.1, 0.1, 0.1]]))
    full = extract_features(question, vocab, table, FeatureMode.QI)
    q_only = extract_features(question, vocab, table, FeatureMode.Q)
    i_only = extract_features(question, vocab, table, FeatureMode.I)
    np.testing.assert_array_equal(full[:6], q_only)
    np.testing.assert_array_equal(full[6:], i_only)


def test_matrix_dimension_constancy(small_corpus):
    vocab = build_vocabularies(small_corpus)
    X = extract_matrix(small_corpus, vocab, mode=FeatureMode.QI)
    assert X.shape == (3, feature_dimension(vocab, FeatureMode.QI))


def test_vocabularies_json_round_trip(small_corpus):
    vocab = build_vocabularies(small_corpus)
    assert Vocabularies.from_doc(json.loads(json.dumps(vocab.to_doc()))) == vocab


def test_a_feature_matrix_is_checked_where_it_is_built():
    # Source row 3 of a one-row values array once reached split search and
    # ended in a bare IndexError from train_forest.
    with pytest.raises(DimensionMismatch, match="source rows"):
        FeatureMatrix(values=np.array([[0.0, 1.0, 2.0, 3.0]]), source=np.array([[3, -1]]))
    values = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])
    source = np.array([[0, -1], [1, 0], [1, 2]])
    FeatureMatrix(values, source)
    bad = [
        (values.astype(np.float32), source, "2-d float64"),
        (values.tolist(), source, "2-d float64"),
        (values[0], source, "2-d float64"),
        (values, source.astype(np.float64), "integer array"),
        (values, source[:, :1], "integer array"),
        (values, source.ravel(), "integer array"),
        (values, np.array([[-1, -1]]), "source rows"),
        (values, np.array([[2, 0]]), "source rows"),
        (values, np.array([[1, -2]]), "source words"),
    ]
    for entry in (-1.0, 0.5, np.nan, np.inf):
        coded = values.copy()
        coded[1, 1] = entry
        bad.append((coded, source, "word row 1"))
    for v, s, message in bad:
        with pytest.raises(DimensionMismatch, match=message):
            FeatureMatrix(v, s)
    # A numeric row may hold any float; the forest refuses NaN itself.
    numeric = values.copy()
    numeric[0, 0] = np.nan
    FeatureMatrix(numeric, source)


def test_built_matrices_pass_their_own_check():
    corpus = make_planted_corpus(60, seed=4)
    vocab = build_vocabularies(corpus)
    for mode in FeatureMode:
        X = extract_matrix(corpus, vocab, mode=mode)
        assert FeatureMatrix(X.values.copy(), X.source.copy()).shape == X.shape
    assert FeatureMatrix.from_dense(np.zeros((4, 0))).shape == (4, 0)
