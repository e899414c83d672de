"""Question tokenization, first/second-word vocabularies, and feature encoding.

A question is described by its token count plus one-hot encodings of its
first and second words against vocabularies learned from training data;
an image contributes its five salient-object-count probabilities. The
descriptor is [length | first-word one-hot | second-word one-hot |
saliency probabilities], and a feature mode keeps only the blocks it
reads: mode q the first three, mode i the last, mode qi all four.

extract_matrix does not store the one-hot columns: a FeatureMatrix keeps
one float64 row per real-valued column and one per word block, holding
each question's vocabulary id (the block's vocabulary size when the word
is unseen or missing), plus a map from every descriptor column to its
row, so a question costs at most 64 bytes (eight floats) however large
the vocabularies are. The forest trains and predicts on this encoding in
place; np.asarray(matrix) builds the dense descriptor matrix when one is
needed (for code that expects a plain array).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .answers import _PUNCT_TABLE
from .corpus import Corpus, ImageFeatureTable, UNIFORM_SALIENCY, VisualQuestion
from .errors import EmptyQuestion

SALIENCY_DIM = 5


class FeatureMode(enum.Enum):
    """Which feature blocks a model consumes."""

    Q = "q"  # question features only
    I = "i"  # image saliency features only
    QI = "qi"  # both


def tokenize_question(question_text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, and split on whitespace."""
    tokens = question_text.lower().translate(_PUNCT_TABLE).split()
    if not tokens:
        raise EmptyQuestion(f"question has no tokens: {question_text!r}")
    return tokens


def _question_tokens(vq: VisualQuestion) -> list[str]:
    """tokenize_question on a corpus question; EmptyQuestion names its id."""
    try:
        return tokenize_question(vq.question_text)
    except EmptyQuestion as exc:
        raise EmptyQuestion(f"question {vq.question_id}: {exc}") from exc


@dataclass(frozen=True)
class Vocabularies:
    """Distinct first/second question words in first-seen training order."""

    first_words: tuple[str, ...]
    second_words: tuple[str, ...]
    built_from: str = ""

    def to_doc(self) -> dict:
        """JSON form, as stored in model files."""
        return {
            "first": list(self.first_words),
            "second": list(self.second_words),
            "built_from": self.built_from,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Vocabularies":
        """Inverse of to_doc; each word list must be a list of distinct strings
        and built_from a string, or ValueError is raised."""
        first, second, built_from = doc["first"], doc["second"], doc["built_from"]
        for block in (first, second):
            if (
                type(block) is not list
                or not all(type(w) is str for w in block)
                or len(set(block)) != len(block)
            ):
                raise ValueError("vocabularies must be lists of distinct strings")
        if type(built_from) is not str:
            raise ValueError(f"built_from must be a string, got {type(built_from).__name__}")
        return cls(tuple(first), tuple(second), built_from)

    @cached_property
    def first_index(self) -> dict[str, int]:
        return {word: i for i, word in enumerate(self.first_words)}

    @cached_property
    def second_index(self) -> dict[str, int]:
        return {word: i for i, word in enumerate(self.second_words)}


def build_vocabularies(training_corpus: Corpus) -> Vocabularies:
    """Collect distinct first and second words over a training corpus.

    The second-word vocabulary only sees questions with two or more
    tokens. Raises EmptyQuestion (with the offending question id) if any
    question tokenizes to nothing.
    """
    if len(training_corpus) == 0:
        raise ValueError("cannot build vocabularies from an empty corpus")
    first: dict[str, None] = {}
    second: dict[str, None] = {}
    for vq in training_corpus:
        tokens = _question_tokens(vq)
        first.setdefault(tokens[0])
        if len(tokens) > 1:
            second.setdefault(tokens[1])
    return Vocabularies(
        first_words=tuple(first),
        second_words=tuple(second),
        built_from=training_corpus.source_tag,
    )


def _column_map(vocab: Vocabularies, mode: FeatureMode) -> np.ndarray:
    """The mode's descriptor columns in order, as FeatureMatrix.source.

    The values rows are length, first word and second word when the mode
    reads the question, then p0..p4 when it reads the image.
    """
    question, image = mode is not FeatureMode.I, mode is not FeatureMode.Q
    source = []
    if question:
        source.append((0, -1))
        source += [(1, w) for w in range(len(vocab.first_words))]
        source += [(2, w) for w in range(len(vocab.second_words))]
    if image:
        source += [(3 * question + k, -1) for k in range(SALIENCY_DIM)]
    return np.array(source, dtype=np.int64)


def feature_dimension(vocab: Vocabularies, mode: FeatureMode) -> int:
    """Width of the descriptor produced for the given mode."""
    return len(_column_map(vocab, mode))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Compact (n, d) descriptor matrix: float64 rows read through a column map.

    values holds one row of n entries per real-valued column (question
    length, p0..p4, or each column of a plain dense matrix) and one per
    word block, holding each question's vocabulary id in that block; an
    unseen or missing word is coded as the block's vocabulary size, a
    word no one-hot column reads. source maps each descriptor column f to
    (r, -1), numeric row r, or to (r, w), the one-hot column that is 1
    where values[r] == w. np.asarray(matrix) gives the dense float64
    descriptor matrix.
    """

    values: np.ndarray  # (rows, n) float64, C-contiguous
    source: np.ndarray  # (d, 2) int64

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "FeatureMatrix":
        """Treat every column of a 2-d float64 array as numeric."""
        d = X.shape[1]
        source = np.column_stack([np.arange(d), np.full(d, -1)])
        return cls(np.ascontiguousarray(X.T), source)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self.source))

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.source.nbytes

    def __len__(self) -> int:
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        row, word = self.source.T
        values = self.values[row].T
        dense = np.where(word < 0, values, values == word)
        return dense if dtype is None else dense.astype(dtype, copy=False)


def extract_matrix(
    questions: Corpus | Sequence[VisualQuestion],
    vocab: Vocabularies,
    table: ImageFeatureTable | None = None,
    mode: FeatureMode = FeatureMode.QI,
) -> FeatureMatrix:
    """Encode descriptors for a whole corpus, rows in question-id order.

    Only the mode's blocks are encoded (see the module docstring), and
    question text is only tokenized when the mode reads it; EmptyQuestion
    names the question. Out-of-vocabulary first/second words leave their
    one-hot block all zero, as does a missing second word. Images absent
    from the table get the uniform saliency fallback.
    """
    question, image = mode is not FeatureMode.I, mode is not FeatureMode.Q
    values = np.empty((3 * question + SALIENCY_DIM * image, len(questions)))

    if question:
        unseen = (len(vocab.first_words), len(vocab.second_words))
        for i, vq in enumerate(questions):
            tokens = _question_tokens(vq)
            values[0, i] = len(tokens)
            values[1, i] = vocab.first_index.get(tokens[0], unseen[0])
            values[2, i] = (
                vocab.second_index.get(tokens[1], unseen[1]) if len(tokens) > 1 else unseen[1]
            )

    if image:
        probs = np.zeros((len(questions), SALIENCY_DIM))
        for i, vq in enumerate(questions):
            probs[i] = table.get(vq.image_id) if table is not None else UNIFORM_SALIENCY
        values[-SALIENCY_DIM:] = probs.T

    return FeatureMatrix(values=values, source=_column_map(vocab, mode))
