"""Question tokenization, first/second-word vocabularies, and feature encoding.

A question is split by answers.words, the word rule answer normalization
also uses, and described by its token count plus one-hot encodings of its
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
place, and it is the forest's only input: FeatureMatrix.from_dense wraps
a plain all-numeric array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .answers import words
from .corpus import Corpus, ImageFeatureTable, UNIFORM_SALIENCY
from .errors import DimensionMismatch, EmptyQuestion, InvalidArgument

SALIENCY_DIM = 5


class FeatureMode(enum.Enum):
    """Which feature blocks a model consumes."""

    Q = "q"  # question features only
    I = "i"  # image saliency features only
    QI = "qi"  # both


def _question_tokens(corpus: Corpus) -> Iterator[list[str]]:
    """words() of each corpus question; EmptyQuestion names its id."""
    for i, text in enumerate(corpus.texts):
        tokens = words(text)
        if not tokens:
            raise EmptyQuestion(f"question {corpus.ids[i]}: question has no tokens: {text!r}")
        yield tokens


@dataclass(frozen=True)
class Vocabularies:
    """Distinct first/second question words in first-seen training order."""

    first_words: tuple[str, ...]
    second_words: tuple[str, ...]

    def to_doc(self) -> dict:
        """JSON form, as stored in model files."""
        return {"first": list(self.first_words), "second": list(self.second_words)}

    @classmethod
    def from_doc(cls, doc: dict) -> "Vocabularies":
        """Inverse of to_doc; doc must hold just the two word lists, each a
        list of distinct strings, or InvalidArgument is raised."""
        if set(doc) != {"first", "second"}:
            raise InvalidArgument(f"vocab keys {sorted(doc)}, expected ['first', 'second']")
        for block in (doc["first"], doc["second"]):
            if (
                type(block) is not list
                or not all(type(w) is str for w in block)
                or len(set(block)) != len(block)
            ):
                raise InvalidArgument("vocabularies must be lists of distinct strings")
        return cls(tuple(doc["first"]), tuple(doc["second"]))


def build_vocabularies(training_corpus: Corpus) -> Vocabularies:
    """Collect distinct first and second words over a training corpus.

    The second-word vocabulary only sees questions with two or more
    tokens. Nothing else about the corpus is kept. Raises EmptyQuestion
    (with the offending question id) if any question tokenizes to nothing,
    and InvalidArgument for a kept word that UTF-8 cannot encode, such as
    a lone surrogate read from a JSON escape: the model file could not store it.
    """
    if len(training_corpus) == 0:
        raise InvalidArgument("cannot build vocabularies from an empty corpus")
    first: dict[str, None] = {}
    second: dict[str, None] = {}
    for tokens in _question_tokens(training_corpus):
        first.setdefault(tokens[0])
        if len(tokens) > 1:
            second.setdefault(tokens[1])
    for word in (*first, *second):  # surrogates are the only code points UTF-8 cannot encode
        if not word.isascii() and any("\ud800" <= c <= "\udfff" for c in word):
            raise InvalidArgument(f"question word {word!r} is not UTF-8 text")
    return Vocabularies(first_words=tuple(first), second_words=tuple(second))


def _blocks(mode: FeatureMode) -> tuple[bool, bool]:
    """(reads the question, reads the image); InvalidArgument unless mode is a FeatureMode."""
    if not isinstance(mode, FeatureMode):
        raise InvalidArgument(f"mode must be a FeatureMode, got {mode!r}")
    return mode is not FeatureMode.I, mode is not FeatureMode.Q


def _column_map(vocab: Vocabularies, mode: FeatureMode) -> np.ndarray:
    """The mode's descriptor columns in order, as FeatureMatrix.source.

    The values rows are length, first word and second word when the mode
    reads the question, then p0..p4 when it reads the image.
    """
    question, image = _blocks(mode)
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
    where values[r] == w.
    """

    values: np.ndarray  # (rows, n) float64, C-contiguous
    source: np.ndarray  # (d, 2) int64

    def __post_init__(self) -> None:
        """DimensionMismatch unless source only reads rows of values, and a
        word row holds only non-negative whole numbers (split search counts
        them with bincount)."""
        values, source = self.values, self.source
        if not (isinstance(values, np.ndarray) and values.ndim == 2
                and values.dtype == np.float64):
            raise DimensionMismatch("values must be a 2-d float64 array")
        if not (isinstance(source, np.ndarray) and source.ndim == 2 and source.shape[1] == 2
                and np.issubdtype(source.dtype, np.integer)):
            raise DimensionMismatch("source must be a (d, 2) integer array")
        row, word = source.T
        if ((row < 0) | (row >= len(values))).any():
            raise DimensionMismatch(f"source rows must lie in [0, {len(values)})")
        if (word < -1).any():
            raise DimensionMismatch("source words must be -1 (numeric) or >= 0")
        for r in sorted(set(row[word >= 0].tolist())):  # np.unique would import numpy.ma
            codes = values[r]
            if not (np.isfinite(codes) & (codes >= 0) & (np.trunc(codes) == codes)).all():
                raise DimensionMismatch(f"word row {r} holds an entry that is not a whole number >= 0")

    @classmethod
    def from_dense(cls, X) -> "FeatureMatrix":
        """Every column of X, an (n, d) array or a sequence of d-vectors, as numeric."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatch(f"X must be 2-dimensional, got shape {X.shape}")
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


def extract_matrix(
    corpus: Corpus,
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
    question, image = _blocks(mode)
    values = np.empty((3 * question + SALIENCY_DIM * image, len(corpus)))

    if question:
        first, second = vocab.first_words, vocab.second_words
        first_id = {word: i for i, word in enumerate(first)}
        second_id = {word: i for i, word in enumerate(second)}
        for i, tokens in enumerate(_question_tokens(corpus)):
            values[0, i] = len(tokens)
            values[1, i] = first_id.get(tokens[0], len(first))
            values[2, i] = second_id.get(tokens[1], len(second)) if len(tokens) > 1 else len(second)

    if image:
        probs = table.lookup(corpus.image_ids) if table is not None else np.array([UNIFORM_SALIENCY])
        values[-SALIENCY_DIM:] = probs.T

    return FeatureMatrix(values=values, source=_column_map(vocab, mode))
