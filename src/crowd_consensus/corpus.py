"""Immutable visual-question corpora and precomputed image-saliency tables.

Two corpus formats are supported: the paired questions/annotations JSON
layout used by the large public VQA releases, and a flat JSONL record
format convenient for synthetic or desk-scale corpora. Image saliency
comes in as a CSV of five per-image probabilities (0, 1, 2, 3, or 4+
salient objects).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AnswerCountMismatch,
    InvalidProbability,
    KeyMismatch,
    MissingAnnotation,
    ParseError,
)

ANSWER_TYPES = ("yes/no", "number", "other")
CORPUS_FORMATS = ("jsonl", "vqa_v1_json")
DEFAULT_ANSWERS_PER_QUESTION = 10

#: Saliency fallback for images absent from a feature table.
UNIFORM_SALIENCY = (0.2, 0.2, 0.2, 0.2, 0.2)

def rows_by_stratum(answer_types: Sequence[str | None]) -> dict[str, list[int]]:
    """Row indices of each non-empty answer-type stratum, in ANSWER_TYPES order.

    Untyped rows (None) form the last stratum, "unknown".
    """
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(answer_types):
        groups.setdefault("unknown" if t is None else t, []).append(i)
    return {s: groups[s] for s in (*ANSWER_TYPES, "unknown") if s in groups}


_SALIENCY_HEADER = ["image_id", "p0", "p1", "p2", "p3", "p4"]
_SUM_BAND = 1e-3


@dataclass(frozen=True)
class VisualQuestion:
    """One question about one image plus its stored crowd answers."""

    question_id: int
    image_id: int
    question_text: str
    raw_answers: tuple[str, ...]
    answer_type: str | None = None


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of visual questions sharing one answer count.

    It records nothing of where its questions came from; a CLI run names
    its input files in run_config.json.
    """

    questions: tuple[VisualQuestion, ...]
    answers_per_question: int

    @classmethod
    def from_questions(cls, questions: Iterable[VisualQuestion]) -> "Corpus":
        """Validate, sort by question id, and freeze a corpus.

        The answer count A is taken from the first question; later questions
        with a different count raise AnswerCountMismatch. Duplicate question
        ids and unknown answer types raise ParseError.
        """
        ordered = sorted(questions, key=lambda vq: vq.question_id)
        a = len(ordered[0].raw_answers) if ordered else DEFAULT_ANSWERS_PER_QUESTION
        seen: set[int] = set()
        for vq in ordered:
            if vq.question_id in seen:
                raise ParseError(f"duplicate question_id {vq.question_id}")
            seen.add(vq.question_id)
            if vq.answer_type is not None and vq.answer_type not in ANSWER_TYPES:
                raise ParseError(
                    f"question {vq.question_id}: unknown answer_type "
                    f"{vq.answer_type!r} (expected one of {ANSWER_TYPES})"
                )
            if len(vq.raw_answers) != a:
                raise AnswerCountMismatch(
                    f"question {vq.question_id} has {len(vq.raw_answers)} answers, "
                    f"expected {a}"
                )
        return cls(tuple(ordered), a)

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self) -> Iterator[VisualQuestion]:
        return iter(self.questions)

    def question_ids(self) -> tuple[int, ...]:
        return tuple(vq.question_id for vq in self.questions)

    @cached_property
    def answer_table(self):
        """The `answers.AnswerTable` of every question, in corpus order, built on first use."""
        from .answers import AnswerTable

        return AnswerTable.from_pools([vq.raw_answers for vq in self], self.answers_per_question)

    def subset(self, question_ids: Iterable[int]) -> "Corpus":
        """New corpus of the given ids, re-sorted ascending.

        Raises KeyMismatch if an id repeats or is not in this corpus.
        """
        ids = list(question_ids)
        wanted = set(ids)
        if len(wanted) != len(ids):
            raise KeyMismatch("subset lists a question id more than once")
        picked = sorted((vq for vq in self if vq.question_id in wanted),
                        key=lambda vq: vq.question_id)
        if len(picked) != len(wanted):
            raise KeyMismatch(f"{len(wanted) - len(picked)} subset ids are not in the corpus")
        return Corpus(tuple(picked), self.answers_per_question)


def load_corpus(
    questions_source: str | Path,
    annotations_source: str | Path | None = None,
    format: str = "jsonl",
) -> Corpus:
    """Load a corpus from disk.

    format "jsonl" reads one record per line with keys question_id,
    image_id, question, answers and optional answer_type, and takes no
    annotations_source. format "vqa_v1_json" reads the paired
    questions/annotations JSON files and requires annotations_source.

    Raises ParseError for malformed input or an annotations_source given
    with "jsonl", MissingAnnotation when a question has no answer record,
    and AnswerCountMismatch for uneven answer lists.
    """
    if format not in CORPUS_FORMATS:
        raise ParseError(f"unknown corpus format {format!r} (expected {CORPUS_FORMATS})")
    if format == "jsonl":
        if annotations_source is not None:
            raise ParseError(f"{annotations_source}: an annotations file needs format vqa_v1_json")
        questions = _read_jsonl(Path(questions_source))
    else:
        if annotations_source is None:
            raise MissingAnnotation(
                "vqa_v1_json needs both a questions file and an annotations file"
            )
        questions = _read_vqa_v1(Path(questions_source), Path(annotations_source))
    return Corpus.from_questions(questions)


def _field(record, key: str, where: str, kind: type):
    """record[key], which must exist and be of the given JSON type (a bool is not an int)."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: expected key {key!r} of type {kind.__name__}, got {value!r}")
    return value


def _read_text(path: str | Path, split=iter):
    """The lines of a UTF-8 text file, or its rows with split=csv.reader;
    bytes that are not UTF-8 and CSV the reader rejects raise ParseError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield from split(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _shared(strings: dict[str, str], value):
    """value, or the first equal string met in this file if value is a string."""
    return strings.setdefault(value, value) if isinstance(value, str) else value


def _read_jsonl(path: Path) -> list[VisualQuestion]:
    questions = []
    shared: dict[str, str] = {}  # each distinct answer or answer type, kept once
    for lineno, line in enumerate(_read_text(path), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        # ValueError includes JSONDecodeError; RecursionError is too deep nesting.
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        answers = _field(record, "answers", where, list)
        if not all(isinstance(ans, str) for ans in answers):
            raise ParseError(f"{where}: answers must be strings, got {answers!r}")
        questions.append(
            VisualQuestion(
                question_id=_field(record, "question_id", where, int),
                image_id=_field(record, "image_id", where, int),
                question_text=_field(record, "question", where, str),
                raw_answers=tuple(map(shared.setdefault, answers, answers)),
                answer_type=_shared(shared, record.get("answer_type")),
            )
        )
    return questions


def _read_vqa_v1(questions_path: Path, annotations_path: Path) -> list[VisualQuestion]:
    where = str(questions_path)
    records = _field(_load_json_doc(questions_path), "questions", where, list)
    annotations = _field(
        _load_json_doc(annotations_path), "annotations", str(annotations_path), list
    )

    by_id: dict[int, dict] = {}
    for ann in annotations:
        qid = _field(ann, "question_id", str(annotations_path), int)
        if qid in by_id:
            raise ParseError(f"{annotations_path}: duplicate annotation for question_id {qid}")
        by_id[qid] = ann

    questions = []
    answer_types: dict[str, str] = {}
    for q in records:
        qid = _field(q, "question_id", where, int)
        ann = by_id.get(qid)
        if ann is None:
            raise MissingAnnotation(f"question {qid} has no annotation record")
        ann_where = f"{annotations_path} question {qid}"
        answers = tuple(
            entry[0] if type(entry) is tuple else _field(entry, "answer", ann_where, str)
            for entry in _field(ann, "answers", ann_where, list)
        )
        questions.append(
            VisualQuestion(
                question_id=qid,
                image_id=_field(q, "image_id", where, int),
                question_text=_field(q, "question", where, str),
                raw_answers=answers,
                answer_type=_shared(answer_types, ann.get("answer_type")),
            )
        )
    orphans = by_id.keys() - {vq.question_id for vq in questions}
    if orphans:
        raise ParseError(
            f"{annotations_path}: {len(orphans)} annotation record(s) match no question, "
            f"the smallest question_id being {min(orphans)}"
        )
    return questions


#: Keys _read_vqa_v1 reads from some object; an object holding one is never an answer entry.
_RECORD_KEYS = frozenset(
    {"questions", "annotations", "question_id", "image_id", "question", "answers", "answer_type"}
)


def _load_json_doc(path: Path) -> dict:
    """The JSON object in path, with each answer entry replaced as it is parsed.

    An object whose "answer" is a string and that holds none of
    _RECORD_KEYS becomes a 1-tuple (answer,), one tuple per distinct
    answer, so no entry dict is kept and each answer string is kept once.
    A tuple is no JSON type, so a malformed entry (a bare string, a list)
    still reaches the reader's type checks as before. Every key the reader
    looks up is absent from such an object, so it reads None from the
    tuple just as from the dict.
    """
    entries: dict[str, tuple[str]] = {}

    def answer_entry(obj: dict):
        answer = obj.get("answer")
        if type(answer) is not str or not _RECORD_KEYS.isdisjoint(obj):
            return obj
        entry = entries.get(answer)
        if entry is None:
            entry = entries[answer] = (answer,)
        return entry

    with open(path, "r", encoding="utf-8") as fh:
        # ValueError includes JSONDecodeError and UnicodeDecodeError.
        try:
            doc = json.load(fh, object_hook=answer_entry)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if type(doc) is tuple:  # a whole document shaped like an answer entry
        return {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def save_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the flat JSONL record format (round-trips with load_corpus)."""
    with open(path, "w", encoding="utf-8") as fh:
        for vq in corpus:
            record: dict = {
                "question_id": vq.question_id,
                "image_id": vq.image_id,
                "question": vq.question_text,
                "answers": list(vq.raw_answers),
            }
            if vq.answer_type is not None:
                record["answer_type"] = vq.answer_type
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class ImageFeatureTable:
    """image_id -> five salient-object-count probabilities summing to 1."""

    probabilities: Mapping[int, tuple[float, ...]]

    def get(self, image_id: int) -> tuple[float, ...]:
        """Stored 5-vector, or the uniform fallback for unknown images."""
        return self.probabilities.get(image_id, UNIFORM_SALIENCY)

    def __contains__(self, image_id: int) -> bool:
        return image_id in self.probabilities


def load_image_features(path: str | Path) -> ImageFeatureTable:
    """Read the saliency CSV (header image_id,p0,p1,p2,p3,p4).

    Every cell is a plain ASCII number: a cell holding "_" or any
    non-ASCII character raises ParseError, though int() and float() would
    read "1_0" as 10 and Arabic-Indic digits as ASCII ones. Rows whose
    components are finite, non-negative and sum to 1 within 1e-3 are
    renormalized to sum exactly 1; anything else raises InvalidProbability.
    """
    table: dict[int, tuple[float, ...]] = {}
    reader = _read_text(path, csv.reader)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _SALIENCY_HEADER:
        raise ParseError(
            f"{path}: expected header {','.join(_SALIENCY_HEADER)}, got {header}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != 6:
            raise ParseError(f"{where}: expected 6 columns, got {len(row)}")
        if any("_" in cell or not cell.isascii() for cell in row):
            raise ParseError(f"{where}: cells must be plain ASCII numbers, got {row}")
        try:
            image_id = int(row[0])
            probs = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if image_id in table:
            raise ParseError(f"{where}: duplicate image_id {image_id}")
        if not all(math.isfinite(p) for p in probs):
            raise InvalidProbability(f"{where}: non-finite probability component")
        if any(p < 0.0 for p in probs):
            raise InvalidProbability(f"{where}: negative probability component")
        total = sum(probs)
        if abs(total - 1.0) > _SUM_BAND:
            raise InvalidProbability(
                f"{where}: probabilities sum to {total}, outside 1 +/- {_SUM_BAND}"
            )
        table[image_id] = tuple(p / total for p in probs)
    return ImageFeatureTable(table)
