import json

import numpy as np
import pytest

from crowd_consensus import (
    Corpus,
    FeatureMode,
    ImageFeatureTable,
    Vocabularies,
    build_vocabularies,
    extract_matrix,
    feature_dimension,
    tokenize_question,
)
from crowd_consensus.errors import EmptyQuestion

from conftest import vq


def test_tokenize_question():
    assert tokenize_question("What is this?") == ["what", "is", "this"]
    assert tokenize_question("Why?") == ["why"]


def test_tokenize_empty_question():
    with pytest.raises(EmptyQuestion):
        tokenize_question("  ?? ")


def extract_features(vq, vocab, table=None, mode=FeatureMode.QI):
    """One question's dense descriptor: a one-row extract_matrix."""
    return np.asarray(extract_matrix([vq], vocab, table, mode))[0]


@pytest.fixture
def small_corpus():
    return Corpus.from_questions(
        [
            vq(1, "what is x", ["a1"] * 10),
            vq(2, "what are y", ["a1"] * 10),
            vq(3, "is it z", ["a1"] * 10),
        ],
        source_tag="toy",
    )


def test_build_vocabularies(small_corpus):
    vocab = build_vocabularies(small_corpus)
    assert vocab.first_words == ("what", "is")
    assert vocab.second_words == ("is", "are", "it")
    assert vocab.built_from == "toy"


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
    X = extract_matrix([vq(8, "is it", ["a1"] * 10), vq(9, "how", ["a1"] * 10)], vocab,
                       mode=FeatureMode.Q)
    assert X.values.tolist() == [[2, 1], [1, 2], [2, 3]]  # length, first word, second word
    dense = np.asarray(X)
    assert dense[0].tolist() == [2, 0, 1, 0, 0, 1]
    assert dense[1].tolist() == [1, 0, 0, 0, 0, 0]  # "how" unseen, no second word


def test_extract_image_mode_uses_table(small_corpus):
    vocab = build_vocabularies(small_corpus)
    table = ImageFeatureTable({5: (0.5, 0.2, 0.1, 0.1, 0.1)})
    x = extract_features(
        vq(9, "what is x", ["a1"] * 10, image_id=5), vocab, table, FeatureMode.I
    )
    np.testing.assert_allclose(x, [0.5, 0.2, 0.1, 0.1, 0.1])


def test_truncated_layout_drops_blocks(small_corpus):
    vocab = build_vocabularies(small_corpus)
    assert feature_dimension(vocab, FeatureMode.Q) == 6
    assert feature_dimension(vocab, FeatureMode.I) == 5
    assert feature_dimension(vocab, FeatureMode.QI) == 11


def test_ablation_nesting(small_corpus):
    vocab = build_vocabularies(small_corpus)
    question = vq(9, "is it z", ["a1"] * 10)
    table = ImageFeatureTable({9: (0.4, 0.3, 0.1, 0.1, 0.1)})
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
