import random
import re
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowd_consensus import (
    Corpus,
    agreement_by_answer_type,
    diversity_histogram,
    make_planted_corpus,
    normalize_answer,
)
from crowd_consensus.answers import ARTICLES, NUMBER_WORDS, AnswerTable
from crowd_consensus.errors import AnswerCountMismatch, InvalidArgument

from conftest import vq

POOL_WORDS = ["yes", "Yes!", "the yes", "no", "NO", "two", "2", "a cat", "cat", "dog"]

# Raw answer -> canonical form, covering case folding, articles, number
# words, punctuation, digit commas, and whitespace.
NORMALIZATION_TABLE = [
    ("The Cat!", "cat"),
    ("Two", "2"),
    ("  YES  ", "yes"),
    ("1,000", "1000"),
    ("yes", "yes"),
    ("YES", "yes"),
    ("YeS", "yes"),
    ("No", "no"),
    ("", ""),
    ("   ", ""),
    ("!!!", ""),
    ("a", ""),
    ("an", ""),
    ("the", ""),
    ("a dog", "dog"),
    ("an apple", "apple"),
    ("the the the", ""),
    ("theater", "theater"),
    ("animal", "animal"),
    ("A1", "a1"),
    ("zero", "0"),
    ("one", "1"),
    ("three", "3"),
    ("four", "4"),
    ("five", "5"),
    ("six", "6"),
    ("seven", "7"),
    ("eight", "8"),
    ("nine", "9"),
    ("ten", "10"),
    ("Ten", "10"),
    ("someone", "someone"),
    ("bone", "bone"),
    ("twenty one", "twenty 1"),
    ("one dog", "1 dog"),
    ("no one", "no 1"),
    ("12,345,678", "12345678"),
    ("1, 2", "1 2"),
    ("3.14", "314"),
    ("don't", "dont"),
    ("DON'T KNOW", "dont know"),
    ("black-and-white", "blackandwhite"),
    ("st. patrick's day", "st patricks day"),
    ("What?!", "what"),
    ("  multiple   spaces  here ", "multiple spaces here"),
    ("tab\there", "tab here"),
    ("The  Quick   Brown Fox", "quick brown fox"),
    ("o!ne", "1"),  # punctuation goes before number words are matched
    ("t;he cat", "cat"),
    ("café", "café"),
    ("١,٢", "١٢"),
]

RANDOM_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~ \t"
    "onetwthrfsixane"  # over-weight number-word fragments
)


@pytest.mark.parametrize("raw,expected", NORMALIZATION_TABLE)
def test_normalization_table(raw, expected):
    assert normalize_answer(raw) == expected


def test_normalization_idempotent_on_random_strings():
    rng = random.Random(1234)
    for _ in range(10_000):
        s = "".join(rng.choices(RANDOM_ALPHABET, k=rng.randrange(25)))
        once = normalize_answer(s)
        assert normalize_answer(once) == once


@given(st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_normalization_idempotent_property(s):
    once = normalize_answer(s)
    assert normalize_answer(once) == once


def reference_normalize_answer(raw: str) -> str:
    """normalize_answer as first defined: a five-step pass, repeated until
    the string stops changing."""
    punct, digit_comma = str.maketrans("", "", string.punctuation), re.compile(r"(?<=\d),(?=\d)")

    def one_pass(text):
        text = digit_comma.sub("", text.lower())
        text = " ".join(NUMBER_WORDS.get(tok, tok) for tok in text.split())
        text = text.translate(punct)
        return " ".join(tok for tok in text.split() if tok not in ARTICLES)

    out = one_pass(raw)
    while (again := one_pass(out)) != out:
        out = again
    return out


EQUIVALENCE_ALPHABET = st.sampled_from(
    [*string.punctuation, ",", ",", *"0123456789", *"١٢٣٤٥٦٧٨٩٠", "²", " ", "  ", "\t", "\n",
     "\u00a0", *"aAbBoOnNeEtThH", "İ", "ﬀ", "é", "ß", "Σ", *NUMBER_WORDS, "ONE", "Ten", *ARTICLES,
     "The", "AN"]
)


@given(st.lists(EQUIVALENCE_ALPHABET, max_size=20).map("".join))
@settings(derandomize=True, max_examples=2000, deadline=None)
@example("o!ne")
@example("1,000 t,he")
@example("١,٢")
def test_normalization_equals_the_repeated_pass(raw):
    assert normalize_answer(raw) == reference_normalize_answer(raw)


def _table(*pools):
    """The AnswerTable of a corpus of the given pools, one question each."""
    return Corpus.from_questions([vq(i, "what is it", pool) for i, pool in enumerate(pools)]).answer_table


def label_of(pool):
    """One pool's label, read from its AnswerTable."""
    [disagrees] = _table(pool).labels()
    return bool(disagrees)


def reference_label(pool):
    """The rule by hand: disagreement unless one normalized answer covers A - 1 of A."""
    return max(Counter(normalize_answer(ans) for ans in pool).values()) < len(pool) - 1


def valid_answers(pool, m):
    """The normalized answers one pool gives at least m times, read from its AnswerTable."""
    table = _table(pool)
    kept = table.counts[0] >= m
    assert table.distinct_at_least(m)[0] == kept.sum()
    return {table.vocabulary[c] for c in table.codes[0][kept]}


def test_valid_answers_thresholds():
    pool = ["yes"] * 5 + ["no"] * 3 + ["maybe"] * 2
    assert valid_answers(pool, m=2) == {"yes", "no", "maybe"}
    assert valid_answers(pool, m=3) == {"yes", "no"}
    assert valid_answers(pool, m=1) == {"yes", "no", "maybe"}


def test_valid_answers_all_distinct_empty_at_two():
    pool = [f"word{i}" for i in range(10)]
    assert valid_answers(pool, m=2) == set()


def test_valid_answers_counts_cover_all_answers():
    pool = ["yes"] * 5 + ["no"] * 3 + ["maybe"] * 2
    table = _table(pool)
    counts = dict(zip(table.vocabulary, table.counts[table.counts > 0].tolist()))
    assert sum(counts.values()) == len(pool)
    assert counts["maybe"] == 2  # answers below a threshold are still tallied
    assert table.distinct_at_least(3).tolist() == [2]


def test_valid_answers_threshold_validation():
    corpus = Corpus.from_questions([vq(1, "is it", ["yes"] * 10)])
    with pytest.raises(InvalidArgument):
        diversity_histogram(corpus, m=0)
    with pytest.raises(InvalidArgument):
        diversity_histogram(corpus, m=11)
    # 1.5 once gave the m = 2 histogram, 2.5 the m = 3 one and True the m = 1 one.
    for m in (1.5, 2.5, 2.0, True):
        with pytest.raises(InvalidArgument, match="m must be in"):
            diversity_histogram(corpus, m)
    assert diversity_histogram(corpus, np.int64(2)) == diversity_histogram(corpus, 2)


def test_distinct_at_least_reads_only_integers_from_one():
    table = make_planted_corpus(40, seed=1).answer_table
    # 1.5 once counted as 2 and True as 1, and m <= 0 counted every answer.
    for m in (1.5, 2.0, True, False, 0, -1):
        with pytest.raises(InvalidArgument, match=r"m must be an integer >= 1"):
            table.distinct_at_least(m)
    assert table.distinct_at_least(np.int64(2)).tolist() == table.distinct_at_least(2).tolist()
    assert table.distinct_at_least(11).tolist() == [0] * 40  # past A: legal, counts none


def test_agreement_label_rule():
    assert label_of(["yes"] * 9 + ["no"]) is False
    assert label_of(["yes"] * 8 + ["no"] * 2) is True
    assert label_of(["2"] * 10) is False


def test_agreement_label_normalizes_before_matching():
    assert label_of(["Yes!", "yes"] * 5) is False


def test_agreement_label_needs_two_answers():
    with pytest.raises(AnswerCountMismatch):
        label_of(["yes"])


@given(st.lists(st.sampled_from(POOL_WORDS + ["", " ", "a", "Two!"]) | st.text(max_size=3),
                max_size=10))
@example([])
@example(["yes"])
@example(["", "the"])
@example(["Yes!", "no"])
@settings(max_examples=300, deadline=None)
def test_agreement_label_matches_the_corpus_table(pool):
    if len(pool) < 2:
        with pytest.raises(AnswerCountMismatch):
            label_of(pool)
    else:
        assert label_of(pool) is reference_label(pool)


@given(
    st.lists(st.sampled_from(["yes", "no", "maybe", "2"]), min_size=2, max_size=10),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_agreement_and_valid_answers_permutation_invariant(pool, rnd):
    shuffled = list(pool)
    rnd.shuffle(shuffled)
    assert label_of(shuffled) is label_of(pool)
    assert valid_answers(shuffled, 2) == valid_answers(pool, 2)


@given(st.lists(st.sampled_from(["a1", "b2", "c3", "d4"]), min_size=4, max_size=10))
@settings(max_examples=100, deadline=None)
def test_valid_answers_monotone_in_threshold(pool):
    previous = None
    for m in range(1, len(pool) + 1):
        current = valid_answers(pool, m)
        if previous is not None:
            assert current <= previous
        previous = current


@given(st.lists(st.sampled_from(["x", "y"]), min_size=10, max_size=10))
@settings(max_examples=100, deadline=None)
def test_agreement_implies_single_valid_answer_at_two(pool):
    if label_of(pool) is False:
        assert len(valid_answers(pool, 2)) == 1


def _three_question_corpus():
    return Corpus.from_questions(
        [
            vq(1, "is it day", ["yes"] * 10),
            vq(2, "is it night", ["no"] * 9 + ["dusk"]),
            vq(3, "what color", ["red", "red", "blue", "blue", "green", "green",
                                 "cyan", "pink", "gray", "tan"]),
        ]
    )


def test_diversity_histogram_hand_count():
    hist = diversity_histogram(_three_question_corpus(), m=2)
    assert hist[1] == 2
    assert hist[3] == 1
    assert sum(hist.values()) == 3
    assert set(hist) == set(range(11))


def test_diversity_histogram_conservation(mixed_corpus):
    for m in (1, 2, 3):
        assert sum(diversity_histogram(mixed_corpus, m).values()) == len(mixed_corpus)


def test_diversity_histogram_threshold_validation(mixed_corpus):
    with pytest.raises(InvalidArgument):
        diversity_histogram(mixed_corpus, 0)


def test_agreement_by_answer_type_hand_count():
    corpus = Corpus.from_questions(
        [
            vq(1, "is it sunny", ["yes"] * 10, "yes/no"),
            vq(2, "is it pretty", ["yes"] * 5 + ["no"] * 5, "yes/no"),
        ]
    )
    rates = agreement_by_answer_type(corpus)
    assert rates["yes/no"].unanimous_rate == 0.5
    assert rates["yes/no"].exactly_one_disagreement_rate == 0.0
    assert rates["yes/no"].at_most_one_disagreement_rate == 0.5
    assert rates["yes/no"].n == 2
    assert rates["all"].n == 2


def test_agreement_by_answer_type_strata(mixed_corpus):
    rates = agreement_by_answer_type(mixed_corpus)
    assert set(rates) == {"yes/no", "number", "other", "unknown", "all"}
    assert rates["all"].n == len(mixed_corpus)
    for r in rates.values():
        for value in (r.unanimous_rate, r.exactly_one_disagreement_rate,
                      r.at_most_one_disagreement_rate):
            assert 0.0 <= value <= 1.0
        assert r.at_most_one_disagreement_rate == pytest.approx(
            r.unanimous_rate + r.exactly_one_disagreement_rate
        )


@st.composite
def _corpora(draw):
    a = draw(st.integers(min_value=2, max_value=10))
    pools = draw(st.lists(
        st.lists(st.sampled_from(POOL_WORDS), min_size=a, max_size=a), max_size=12
    ))
    return Corpus.from_questions([vq(i, "what is it", pool) for i, pool in enumerate(pools)])


@given(_corpora())
@settings(max_examples=150, deadline=None)
def test_answer_table_matches_single_pool_functions(corpus):
    table = corpus.answer_table
    a = corpus.answers_per_question
    labels = table.labels()
    assert labels.dtype == bool and labels.shape == (len(corpus),)
    buckets = {m: table.distinct_at_least(m).tolist() for m in range(1, a + 1)}
    for row, q in enumerate(corpus):
        assert bool(labels[row]) is reference_label(q.raw_answers)
        tally = Counter(normalize_answer(ans) for ans in q.raw_answers).values()
        assert table.counts[row].max() == max(tally)
        for m in range(1, a + 1):
            assert buckets[m][row] == sum(c >= m for c in tally)
        truth = sum(c >= 2 for c in tally)
        assert table.distinct_at_least(2)[row] == truth
        assert {table.vocabulary[c] for c in table.codes[row]} == {
            normalize_answer(ans) for ans in q.raw_answers
        }
    for m in range(1, a + 1):
        hist = diversity_histogram(corpus, m)
        assert hist == {k: buckets[m].count(k) for k in range(a + 1)}
    # counts by the whole (n, A, A) comparison tensor.
    same = table.codes[:, :, None] == table.codes[:, None, :]
    first = ~np.tril(same, -1).any(axis=2)
    assert table.codes.dtype == np.int32 and table.counts.dtype == np.int64
    assert np.array_equal(table.counts, np.where(first, same.sum(axis=2), 0))


def test_answer_table_memory_is_linear_in_pool_size():
    # 500 pools of 200 answers: the (n, A, A) comparison tensor is 20 MB of
    # bools. Measured peaks: 42 MB building it, 3.1 MB comparing one slot at a time.
    vocabulary = tuple(f"answer {k}" for k in range(300))
    raw_codes = ((np.arange(500)[:, None] + np.arange(200)) % 300).astype(np.int32)
    tracemalloc.start()
    try:
        table = AnswerTable(vocabulary, raw_codes)
        table.counts  # derived on first use
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.counts.sum() == 500 * 200
    assert peak < 8_000_000, peak


def test_answer_table_is_built_once_per_corpus(mixed_corpus):
    assert mixed_corpus.answer_table is mixed_corpus.answer_table
    assert mixed_corpus.answer_table.codes.shape == (len(mixed_corpus), 10)


def test_answer_table_labels_need_two_answers():
    corpus = Corpus.from_questions([vq(1, "is it", ["yes"])])
    with pytest.raises(AnswerCountMismatch):
        corpus.answer_table.labels()
