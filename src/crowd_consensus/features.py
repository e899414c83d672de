"""Question tokenization, first/second-word vocabularies, and feature assembly.

A question is described by its token count plus one-hot encodings of its
first and second words against vocabularies learned from training data;
an image contributes its five salient-object-count probabilities. The
descriptor layout is [length | first-word one-hot | second-word one-hot |
saliency probabilities].
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .answers import _PUNCT_TABLE
from .corpus import Corpus, ImageFeatureTable, UNIFORM_SALIENCY, VisualQuestion
from .errors import EmptyQuestion

SALIENCY_DIM = 5

#: Ablation layouts: "truncated" drops unused blocks from the vector,
#: "zeroed" keeps the full dimension and zero-fills them.
LAYOUTS = ("truncated", "zeroed")


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


@dataclass(frozen=True)
class Vocabularies:
    """Distinct first/second question words in first-seen training order."""

    first_words: tuple[str, ...]
    second_words: tuple[str, ...]
    built_from: str = ""

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
        try:
            tokens = tokenize_question(vq.question_text)
        except EmptyQuestion as exc:
            raise EmptyQuestion(f"question {vq.question_id}: {exc}") from exc
        first.setdefault(tokens[0])
        if len(tokens) > 1:
            second.setdefault(tokens[1])
    return Vocabularies(
        first_words=tuple(first),
        second_words=tuple(second),
        built_from=training_corpus.source_tag,
    )


def question_block_dim(vocab: Vocabularies) -> int:
    return 1 + len(vocab.first_words) + len(vocab.second_words)


def feature_dimension(vocab: Vocabularies, mode: FeatureMode, layout: str = "truncated") -> int:
    """Width of the descriptor produced for the given mode and layout."""
    _check_layout(layout)
    if layout == "zeroed":
        return question_block_dim(vocab) + SALIENCY_DIM
    if mode is FeatureMode.Q:
        return question_block_dim(vocab)
    if mode is FeatureMode.I:
        return SALIENCY_DIM
    return question_block_dim(vocab) + SALIENCY_DIM


def _check_layout(layout: str) -> None:
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")


def extract_features(
    vq: VisualQuestion,
    vocab: Vocabularies,
    table: ImageFeatureTable | None = None,
    mode: FeatureMode = FeatureMode.QI,
    layout: str = "truncated",
) -> np.ndarray:
    """Assemble one question's descriptor.

    Out-of-vocabulary first/second words leave their one-hot block all
    zero, as does a missing second word. Images absent from the table get
    the uniform saliency fallback. In "zeroed" layout the unused mode's
    blocks stay in place as zeros; in "truncated" layout they are omitted.
    """
    _check_layout(layout)
    parts: list[np.ndarray] = []

    question_dim = question_block_dim(vocab)
    if mode is not FeatureMode.I:
        block = np.zeros(question_dim)
        tokens = tokenize_question(vq.question_text)
        block[0] = len(tokens)
        i = vocab.first_index.get(tokens[0])
        if i is not None:
            block[1 + i] = 1.0
        if len(tokens) > 1:
            j = vocab.second_index.get(tokens[1])
            if j is not None:
                block[1 + len(vocab.first_words) + j] = 1.0
        parts.append(block)
    elif layout == "zeroed":
        parts.append(np.zeros(question_dim))

    if mode is not FeatureMode.Q:
        probs = table.get(vq.image_id) if table is not None else UNIFORM_SALIENCY
        parts.append(np.asarray(probs, dtype=float))
    elif layout == "zeroed":
        parts.append(np.zeros(SALIENCY_DIM))

    return np.concatenate(parts)


def extract_matrix(
    corpus: Corpus,
    vocab: Vocabularies,
    table: ImageFeatureTable | None = None,
    mode: FeatureMode = FeatureMode.QI,
    layout: str = "truncated",
) -> np.ndarray:
    """Stack descriptors for a whole corpus, rows in question-id order."""
    dim = feature_dimension(vocab, mode, layout)
    out = np.empty((len(corpus), dim))
    for row, vq in enumerate(corpus):
        out[row] = extract_features(vq, vocab, table, mode, layout)
    return out


def save_feature_matrix_csv(matrix, path: str | Path, question_ids=None) -> None:
    """Dump a feature matrix as CSV, optionally keyed by question id."""
    matrix = np.asarray(matrix)
    columns = [f"f{i}" for i in range(matrix.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        if question_ids is not None:
            if len(question_ids) != len(matrix):
                raise ValueError(
                    f"{len(question_ids)} ids for {len(matrix)} feature rows"
                )
            fh.write(",".join(["question_id"] + columns) + "\n")
            for qid, row in zip(question_ids, matrix):
                fh.write(",".join([str(qid)] + [repr(v) for v in row.tolist()]) + "\n")
        else:
            fh.write(",".join(columns) + "\n")
            for row in matrix:
                fh.write(",".join(repr(v) for v in row.tolist()) + "\n")


def save_vocabularies(vocab: Vocabularies, path: str | Path) -> None:
    doc = {
        "first": list(vocab.first_words),
        "second": list(vocab.second_words),
        "built_from": vocab.built_from,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def load_vocabularies(path: str | Path) -> Vocabularies:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return Vocabularies(
        first_words=tuple(doc["first"]),
        second_words=tuple(doc["second"]),
        built_from=doc.get("built_from", ""),
    )
