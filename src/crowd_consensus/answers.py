"""Answer normalization, agreement labels, and crowd agreement statistics.

words() is the one word rule, shared by answers and questions: lowercase,
strip ASCII punctuation, split on whitespace. An answer is normalized in
one ordered pass over its words: number words to digits, articles dropped.
AnswerTable.labels() is the one labeler. A label is one bool per
question, True for disagreement, and disagreement_mask reads only bools.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AnswerCountMismatch, InvalidArgument

if TYPE_CHECKING:
    from .corpus import Corpus

ANSWER_TYPES = ("yes/no", "number", "other")

#: Whole-token number words converted to digits during normalization.
NUMBER_WORDS = {
    "zero": "0",
    "one": "1",
    "two": "2",
    "three": "3",
    "four": "4",
    "five": "5",
    "six": "6",
    "seven": "7",
    "eight": "8",
    "nine": "9",
    "ten": "10",
}

#: Articles dropped when they appear as standalone tokens.
ARTICLES = frozenset({"a", "an", "the"})

# The 32 ASCII punctuation characters, removed outright.
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def rows_by_stratum(answer_types: Sequence[str | None]) -> dict[str, list[int]]:
    """Row indices of each non-empty answer-type stratum, in ANSWER_TYPES order.

    Untyped rows (None) form the last stratum, "unknown".
    """
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(answer_types):
        groups.setdefault("unknown" if t is None else t, []).append(i)
    return {s: groups[s] for s in (*ANSWER_TYPES, "unknown") if s in groups}


def words(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, and split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def normalize_answer(raw: str) -> str:
    """Canonicalize one crowd answer for exact-string comparison.

    One ordered pass: lowercase, strip ASCII punctuation, split on
    whitespace (words()), map whole-word number words ("zero".."ten") to
    digits, drop standalone articles, and join with single spaces.
    Punctuation goes before words are matched, so "o!ne" is "1", and the
    result is a fixed point of normalization.
    """
    return " ".join(NUMBER_WORDS.get(w, w) for w in words(raw) if w not in ARTICLES)


@dataclass(frozen=True, eq=False)
class AnswerTable:
    """Equal-size answer pools, coded once; row i is pool i.

    raw_codes[i, j] indexes `raw_vocabulary` (distinct raw answers, in the
    order they were read) for pool i's j-th answer. The normalized view is
    derived on first use, normalizing each distinct raw answer once:
    codes[i, j] indexes `vocabulary` (distinct normalized answers, first
    met first in raw_vocabulary), and counts[i, j] is how often pool i
    gives that answer if slot j is its first occurrence, else 0.
    """

    raw_vocabulary: tuple[str, ...]
    raw_codes: np.ndarray  # (n, A) int32

    @cached_property
    def _normalized(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The vocabulary, and the code in it of each raw_vocabulary entry."""
        code_of_answer: dict[str, int] = {}
        code_of_raw = [
            code_of_answer.setdefault(normalize_answer(raw), len(code_of_answer))
            for raw in self.raw_vocabulary
        ]
        return tuple(code_of_answer), np.array(code_of_raw, dtype=np.int32)

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self._normalized[0]

    @cached_property
    def codes(self) -> np.ndarray:  # (n, A) int32
        return self._normalized[1][self.raw_codes]

    @cached_property
    def counts(self) -> np.ndarray:  # (n, A) int64
        codes = self.codes
        # One (n, A) comparison per slot keeps the peak at O(n * A).
        counts = np.zeros(codes.shape, dtype=np.int64)
        for j in range(codes.shape[1]):
            same = codes == codes[:, j, None]
            counts[:, j] = np.where(same[:, :j].any(axis=1), 0, same.sum(axis=1))
        return counts

    def distinct_at_least(self, m: int) -> np.ndarray:
        """Per pool: number of distinct normalized answers given at least m times;
        m is an integer >= 1 (a float or bool would be read as another m), and
        m > A counts 0."""
        if not (isinstance(m, Integral) and not isinstance(m, bool) and m >= 1):
            raise InvalidArgument(f"m must be an integer >= 1, got {m!r}")
        return (self.counts >= m).sum(axis=1)

    def labels(self) -> np.ndarray:
        """(n,) bool, True for disagreement: the modal answer covers fewer than A - 1 of A."""
        a = self.raw_codes.shape[1]
        if a < 2:
            raise AnswerCountMismatch(f"need at least 2 answers, got {a}")
        return self.counts.max(axis=1, initial=0) < a - 1


def disagreement_mask(labels) -> np.ndarray:
    """Labels as an (n,) bool array, True for disagreement.

    Only bools are labels; 0/1 integers, strings, floats and plain objects
    raise InvalidArgument rather than being read by value or truthiness.
    """
    y = np.asarray(labels)
    if y.ndim != 1:
        raise InvalidArgument(f"labels must be one-dimensional, got shape {y.shape}")
    if y.size and y.dtype != bool:
        raise InvalidArgument(f"labels must be bools, got dtype {y.dtype}")
    return y.astype(bool)


def diversity_histogram(corpus: Corpus, m: int) -> dict[int, int]:
    """Count questions by number of unique valid answers, k = 0..A; m is an
    integer, as a float or bool would be read as another one (1.5 as 2)."""
    a = corpus.answers_per_question
    if not (isinstance(m, Integral) and not isinstance(m, bool) and 1 <= m <= a):
        raise InvalidArgument(f"m must be in [1, {a}], got {m!r}")
    distinct = corpus.answer_table.distinct_at_least(m)
    return dict(enumerate(np.bincount(distinct, minlength=a + 1).tolist()))


@dataclass(frozen=True)
class AgreementRates:
    """Share of questions at each agreement level within one stratum."""

    unanimous_rate: float
    exactly_one_disagreement_rate: float
    at_most_one_disagreement_rate: float
    n: int


def agreement_by_answer_type(corpus: Corpus) -> dict[str, AgreementRates]:
    """Agreement rates per answer-type stratum plus a pooled "all" stratum.

    Questions without an answer type fall into the "unknown" stratum.
    Unanimous means every answer matches; exactly-one means the modal
    answer covers all but one.
    """
    a = corpus.answers_per_question
    modal = corpus.answer_table.counts.max(axis=1, initial=0)
    groups = rows_by_stratum(corpus.answer_types)
    groups["all"] = list(range(len(modal)))
    report = {}
    for stratum, rows in groups.items():
        top = modal[rows]
        n = len(top)
        if n:
            unanimous, exactly_one = int((top == a).sum()), int((top == a - 1).sum())
            report[stratum] = AgreementRates(
                unanimous_rate=unanimous / n,
                exactly_one_disagreement_rate=exactly_one / n,
                at_most_one_disagreement_rate=(unanimous + exactly_one) / n,
                n=n,
            )
    return report
