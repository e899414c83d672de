"""Question tokenization, first/second-word vocabularies, and feature encoding.

A question is described by its token count plus one-hot encodings of its
first and second words against vocabularies learned from training data;
an image contributes its five salient-object-count probabilities. The
descriptor is [length | first-word one-hot | second-word one-hot |
saliency probabilities], and a feature mode keeps only the blocks it
reads: mode q the first three, mode i the last, mode qi all four.

extract_matrix does not store the one-hot columns: a FeatureMatrix keeps
the real-valued columns as floats and each question's two word ids as
integer codes, plus a map from every descriptor column to its source, so
a question costs at most 56 bytes (six floats, two int32 codes) however
large the vocabularies are. The forest trains and predicts on this
encoding directly; np.asarray(matrix) builds the dense descriptor matrix
when one is needed (for code that expects a plain array).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
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
        """JSON form, as stored in vocabularies.json and in model files."""
        return {
            "first": list(self.first_words),
            "second": list(self.second_words),
            "built_from": self.built_from,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Vocabularies":
        """Inverse of to_doc; each word list must hold distinct strings."""
        words = tuple(doc["first"]), tuple(doc["second"])
        for block in words:
            if not all(type(w) is str for w in block) or len(set(block)) != len(block):
                raise ValueError("vocabulary words must be distinct strings")
        return cls(*words, built_from=doc.get("built_from", ""))

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


def feature_dimension(vocab: Vocabularies, mode: FeatureMode) -> int:
    """Width of the descriptor produced for the given mode."""
    question = 1 + len(vocab.first_words) + len(vocab.second_words)
    if mode is FeatureMode.Q:
        return question
    if mode is FeatureMode.I:
        return SALIENCY_DIM
    return question + SALIENCY_DIM


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Compact (n, d) descriptor matrix: a numeric block plus word codes.

    numeric holds the real-valued columns (question length and/or the five
    saliency probabilities, or every column of a plain dense matrix);
    codes holds each question's first- and second-word vocabulary ids,
    -1 where the word is out of vocabulary or missing. source maps each
    descriptor column f to (-1, j), numeric column j, or to (b, w), the
    one-hot column that is 1 where codes[:, b] == w. np.asarray(matrix)
    gives the dense float64 descriptor matrix.
    """

    numeric: np.ndarray  # (n, p) float64
    codes: np.ndarray  # (n, 2) int32, or (n, 0) for a plain dense matrix
    source: np.ndarray  # (d, 2) int64

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "FeatureMatrix":
        """Treat every column of a 2-d float64 array as numeric."""
        d = X.shape[1]
        source = np.column_stack([np.full(d, -1), np.arange(d)])
        return cls(X, np.empty((len(X), 0), dtype=np.int32), source)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.numeric), len(self.source))

    @property
    def nbytes(self) -> int:
        return self.numeric.nbytes + self.codes.nbytes + self.source.nbytes

    def __len__(self) -> int:
        return len(self.numeric)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.empty(self.shape)
        block, j = self.source.T
        num = block < 0
        dense[:, num] = self.numeric[:, j[num]]
        dense[:, ~num] = self.codes[:, block[~num]] == j[~num]
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
    n = len(questions)
    numeric: list[np.ndarray] = []  # columns
    source: list[tuple[int, int]] = []
    codes = np.full((n, 2), -1, dtype=np.int32)

    if mode is not FeatureMode.I:
        length = np.zeros(n)
        for row, vq in enumerate(questions):
            tokens = _question_tokens(vq)
            length[row] = len(tokens)
            codes[row, 0] = vocab.first_index.get(tokens[0], -1)
            if len(tokens) > 1:
                codes[row, 1] = vocab.second_index.get(tokens[1], -1)
        source.append((-1, len(numeric)))
        numeric.append(length)
        source += [(0, w) for w in range(len(vocab.first_words))]
        source += [(1, w) for w in range(len(vocab.second_words))]

    if mode is not FeatureMode.Q:
        probs = np.zeros((n, SALIENCY_DIM))
        for row, vq in enumerate(questions):
            probs[row] = table.get(vq.image_id) if table is not None else UNIFORM_SALIENCY
        source += [(-1, len(numeric) + k) for k in range(SALIENCY_DIM)]
        numeric.extend(probs.T)

    return FeatureMatrix(
        numeric=np.column_stack(numeric),
        codes=codes,
        source=np.array(source, dtype=np.int64),
    )


def save_vocabularies(vocab: Vocabularies, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vocab.to_doc(), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def load_vocabularies(path: str | Path) -> Vocabularies:
    with open(path, "r", encoding="utf-8") as fh:
        return Vocabularies.from_doc(json.load(fh))
