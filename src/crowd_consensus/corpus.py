"""Immutable visual-question corpora and precomputed image-saliency tables.

Two corpus formats are supported: the paired questions/annotations JSON
layout used by the large public VQA releases, and a flat JSONL record
format convenient for synthetic or desk-scale corpora. Both are read
record by record into columns; the VQA JSON files are decoded a chunk at
a time, so a file that loads never has its whole text or a list of its
parsed records held. A file the stream rejects is parsed again by json,
whose error is the one raised. Image saliency comes in as a CSV of five
per-image probabilities (0, 1, 2, 3, or 4+ salient objects). Every reader
reports bytes that are not UTF-8 at their offset in the file.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .answers import ANSWER_TYPES, AnswerTable
from .errors import (
    AnswerCountMismatch,
    CrowdConsensusError,
    InvalidProbability,
    MissingAnnotation,
    ParseError,
)

CORPUS_FORMATS = ("jsonl", "vqa_v1_json")
DEFAULT_ANSWERS_PER_QUESTION = 10

#: Saliency fallback for images absent from a feature table.
UNIFORM_SALIENCY = (0.2, 0.2, 0.2, 0.2, 0.2)

_SALIENCY_HEADER = ["image_id", "p0", "p1", "p2", "p3", "p4"]
_SUM_BAND = 1e-3

#: Bytes of a VQA JSON file read and decoded at a time, and of a file's bytes
#: checked as UTF-8 at a time (see _file_text).
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class VisualQuestion:
    """One question about one image plus its stored crowd answers."""

    question_id: int
    image_id: int
    question_text: str
    raw_answers: tuple[str, ...]
    answer_type: str | None = None


@dataclass(frozen=True, eq=False)
class Corpus:
    """Ordered, immutable collection of visual questions sharing one answer count.

    The questions are held as columns; row i is the question with the
    i-th smallest id. ids and image_ids are int64 arrays, texts the
    question texts, answer_types a name in ANSWER_TYPES or None per row,
    and answer_table codes each row's raw answers. Indexing a corpus
    builds a VisualQuestion row on demand, and iterating it indexes each
    row in turn. It records nothing of where its questions came from; a
    CLI run names its input files in run_config.json.
    """

    ids: np.ndarray  # (n,) int64, strictly increasing
    image_ids: np.ndarray  # (n,) int64
    texts: tuple[str, ...]
    answer_types: tuple[str | None, ...]
    answer_table: AnswerTable

    @classmethod
    def from_questions(cls, questions: Iterable[VisualQuestion]) -> "Corpus":
        """Validate, sort by question id, and freeze a corpus.

        The answer count A is taken from the question with the smallest
        id; another question with a different count raises
        AnswerCountMismatch. Duplicate question ids, unknown answer types
        and ids outside the int64 range raise ParseError, and so does a
        field of another type than a JSONL file allows: ids are ints (a
        bool is not one), the text a str, the answers a list or tuple of
        strs.
        """
        columns = _Columns()
        for vq in questions:
            qid, answers = vq.question_id, vq.raw_answers
            # type() tests, and isinstance(a, str) mapped over the answers in C.
            if not (type(qid) is int and type(vq.image_id) is int
                    and type(vq.question_text) is str and type(answers) in (list, tuple)
                    and all(map(str.__instancecheck__, answers))):
                raise ParseError(
                    f"Corpus question {qid!r}: expected int ids, a str question_text "
                    f"and a list or tuple of str raw_answers, got {vq!r}"
                )
            columns.add_question(qid, vq.image_id, vq.question_text, "Corpus")
            columns.add_answers(answers, vq.answer_type)
        return _corpus(columns, columns)

    @property
    def answers_per_question(self) -> int:
        return self.answer_table.raw_codes.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> VisualQuestion:
        table = self.answer_table
        return VisualQuestion(
            question_id=int(self.ids[i]),
            image_id=int(self.image_ids[i]),
            question_text=self.texts[i],
            raw_answers=tuple(map(table.raw_vocabulary.__getitem__, table.raw_codes[i].tolist())),
            answer_type=self.answer_types[i],
        )

    def __iter__(self) -> Iterator[VisualQuestion]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.answers_per_question == other.answers_per_question and list(self) == list(other)


class _Columns:
    """Corpus records coded into columns as they are read, in reading order.

    A VQA questions file fills ids, image_ids and texts; an annotations
    file fills ids, the answers and their types; a JSONL file fills all.
    Raw answers are coded through one dict as they arrive, so each
    distinct answer string is kept once, and so is each answer type.
    """

    def __init__(self) -> None:
        self.ids = array("q")
        self.image_ids = array("q")
        self.texts: list[str] = []
        self.types: list = []
        self.codes = array("i")  # every record's raw answer codes, end to end
        self.sizes = array("q")  # answers per record
        self.code_of_raw: dict[str, int] = {}
        self.type_names: dict[str, str] = {}
        #: The first record a VQA file's reader rejected (see _read_records).
        self.fault: CrowdConsensusError | None = None

    def add_question(self, question_id: int, image_id: int, text: str, where: str) -> None:
        _append_int64(self.ids, question_id, "question_id", where)
        _append_int64(self.image_ids, image_id, "image_id", where)
        self.texts.append(text)

    def add_answers(self, answers: Sequence[str], answer_type) -> None:
        code = self.code_of_raw
        coded = list(map(code.get, answers))
        if None in coded:  # answers not met before get the next codes
            coded = [code.setdefault(raw, len(code)) for raw in answers]
        self.codes.fromlist(coded)
        self.sizes.append(len(answers))
        if isinstance(answer_type, str):
            answer_type = self.type_names.setdefault(answer_type, answer_type)
        self.types.append(answer_type)


def _append_int64(column: array, value: int, key: str, where: str) -> None:
    try:
        column.append(value)
    except OverflowError:
        raise ParseError(f"{where}: {key} {value} is outside the int64 range") from None


def _corpus(questions: _Columns, answers: _Columns, rows: np.ndarray | None = None) -> Corpus:
    """Freeze columns into a Corpus sorted by question id.

    rows[i] is the answers record of questions record i (default: record
    i itself). Taken in id order, the first question that repeats an id,
    has an unknown answer type, or has another answer count than the
    first question raises ParseError or AnswerCountMismatch.
    """
    ids = np.array(questions.ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    rows = order if rows is None else rows[order]
    sizes = np.array(answers.sizes, dtype=np.int64)[rows]
    types = [answers.types[r] for r in rows.tolist()]
    a = int(sizes[0]) if len(ids) else DEFAULT_ANSWERS_PER_QUESTION
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[1:] = ids[1:] == ids[:-1]
    unknown = np.array([t is not None and t not in ANSWER_TYPES for t in types], dtype=bool)
    bad = repeated | unknown | (sizes != a)
    if bad.any():
        k = int(bad.argmax())
        if repeated[k]:
            raise ParseError(f"duplicate question_id {ids[k]}")
        if unknown[k]:
            raise ParseError(
                f"question {ids[k]}: unknown answer_type {types[k]!r} (expected one of {ANSWER_TYPES})"
            )
        raise AnswerCountMismatch(f"question {ids[k]} has {sizes[k]} answers, expected {a}")
    # Every answers record belongs to exactly one question, so all hold A answers.
    codes = np.frombuffer(answers.codes, dtype=np.int32).reshape(len(answers.sizes), a)
    return Corpus(
        ids,
        np.array(questions.image_ids, dtype=np.int64)[order],
        tuple(map(questions.texts.__getitem__, order.tolist())),
        tuple(types),
        AnswerTable(tuple(answers.code_of_raw), codes[rows]),
    )


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
        return _read_jsonl(Path(questions_source))
    if annotations_source is None:
        raise MissingAnnotation(
            "vqa_v1_json needs both a questions file and an annotations file"
        )
    return _read_vqa_v1(Path(questions_source), Path(annotations_source))


def _field(record, key: str, where: str, kind: type):
    """record[key], which must exist and be of the given JSON type (a bool is not an int)."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: expected key {key!r} of type {kind.__name__}, got {value!r}")
    return value


def _read_text(path: str | Path, split=iter):
    """The lines of a UTF-8 text file, or its rows with split=csv.reader;
    bytes that are not UTF-8 (at their offset in the file, see _file_text)
    and CSV the reader rejects raise ParseError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield from split(fh)
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except UnicodeDecodeError:
            _file_text(path)  # the text layer's offsets count from its own read chunk
            raise


def _read_jsonl(path: Path) -> Corpus:
    columns = _Columns()
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
        _add_question(columns, record, where)
        columns.add_answers(answers, record.get("answer_type"))
    return _corpus(columns, columns)


def _add_question(columns: _Columns, record, where: str) -> None:
    columns.add_question(
        _field(record, "question_id", where, int),
        _field(record, "image_id", where, int),
        _field(record, "question", where, str),
        where,
    )


def _add_annotation(columns: _Columns, record, where: str) -> None:
    qid = _field(record, "question_id", where, int)
    entries_where = f"{where} question {qid}"
    entries = _field(record, "answers", entries_where, list)
    answers = [entry.get("answer") if type(entry) is dict else None for entry in entries]
    if not set(map(type, answers)) <= {str}:  # _field's check, on all entries at once
        for entry in entries:
            _field(entry, "answer", entries_where, str)
    _append_int64(columns.ids, qid, "question_id", where)
    columns.add_answers(answers, record.get("answer_type"))


def _read_vqa_v1(questions_path: Path, annotations_path: Path) -> Corpus:
    questions = _read_records(questions_path, "questions", _add_question)
    annotations = _read_records(annotations_path, "annotations", _add_annotation)
    question_ids = np.array(questions.ids, dtype=np.int64)
    annotated = np.array(annotations.ids, dtype=np.int64)
    by_id = np.argsort(annotated, kind="stable")
    annotated = annotated[by_id]
    repeats = by_id[1:][annotated[1:] == annotated[:-1]]
    if repeats.size:
        qid = annotations.ids[repeats.min()]
        raise ParseError(f"{annotations_path}: duplicate annotation for question_id {qid}")
    at = np.searchsorted(annotated, question_ids)
    found = at < len(annotated)
    found[found] = annotated[at[found]] == question_ids[found]
    if not found.all():
        raise MissingAnnotation(f"question {question_ids[found.argmin()]} has no annotation record")
    orphans = np.ones(len(annotated), dtype=bool)
    orphans[at] = False
    if orphans.any():
        raise ParseError(
            f"{annotations_path}: {orphans.sum()} annotation record(s) match no question, "
            f"the smallest question_id being {annotated[orphans.argmax()]}"
        )
    return _corpus(questions, annotations, by_id[at])


def _read_records(path: Path, key: str, add: Callable[[_Columns, object, str], None]) -> _Columns:
    """Columns of the records in the array doc[key], where path holds the JSON object doc.

    The file is decoded a chunk at a time and the array one record at a
    time, each record going to add(columns, record, str(path)) as soon as
    it is decoded. As with json.load, a repeated top-level key keeps its
    last value; text json.load would not read raises its error (see
    _JsonStream.reject), before the first record add rejected, which is
    raised once the whole file has parsed.
    """
    where = str(path)
    with open(path, "rb") as fh:
        doc = _JsonStream(fh, where)
        found = None
        if doc.peek() != "{":
            doc.value()
            doc.end()
            raise ParseError(f"{where}: expected a JSON object")
        for _ in doc.items("}"):
            if doc.peek() != '"':
                doc.reject()
            name = doc.value()
            if doc.peek() != ":":
                doc.reject()
            doc.pos += 1
            if doc.peek() != "[" or name != key:
                value = doc.value()
                if name == key:
                    found = value
            else:
                found = columns = _Columns()
                for _ in doc.items("]"):
                    record = doc.value()
                    if columns.fault is None:
                        try:
                            add(columns, record, where)
                        except CrowdConsensusError as exc:
                            columns.fault = exc
        doc.end()
    if not isinstance(found, _Columns):
        _field({key: found}, key, where, list)
    if found.fault is not None:
        raise found.fault
    return found


class _JsonStream:
    """The text of a UTF-8 JSON file, decoded _CHUNK_BYTES at a time.

    text[pos:] is decoded text not yet consumed; each refill drops the
    text before pos. The stream only accepts or rejects: where it finds
    text it will not accept, reject() has json parse the whole file, so
    every error is json.load's own, worded and placed as json.load words
    and places it.
    """

    _whitespace = json.decoder.WHITESPACE
    _decoder = json.JSONDecoder()

    def __init__(self, fh, path: str) -> None:
        self.fh, self.path = fh, path
        self.utf8 = codecs.getincrementaldecoder("utf-8")()
        self.text, self.pos = "", 0
        self.done = False

    def more(self) -> bool:
        """Decode the next chunk onto the text; False once the file is exhausted.

        A read takes at least as many bytes as the text kept from pos on,
        so a value spanning many chunks is decoded in linear time.
        """
        if self.done:
            return False
        rest, self.text = self.text[self.pos :], ""  # the consumed text goes before the read
        self.pos = 0
        self.text = rest + self._read(max(_CHUNK_BYTES, len(rest)))
        return True

    def _read(self, size: int) -> str:
        """The next `size` bytes of the file, decoded. The bytes are freed on
        return, before more() joins the text to what it kept, or before
        reject() reads the file."""
        data = self.fh.read(size)
        self.done = not data
        try:
            return self.utf8.decode(data, final=self.done)
        except UnicodeDecodeError:
            data = None
        self.reject()

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        c = self.text[self.pos : self.pos + 1]
        if c and c not in " \t\n\r":
            return c
        while True:
            self.pos = self._whitespace.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos : self.pos + 1]

    def value(self):
        """Decode the JSON value at pos and move past it."""
        while True:
            try:
                value, end = self._decoder.raw_decode(self.text, self.pos)
            except (ValueError, RecursionError):
                # Handled outside the except clause, so the exception and the text it
                # holds are gone before more() reads on.
                end = None
            # A number within three characters of the end may go on ("1" + "e+5").
            if end is not None and end + 3 <= len(self.text) or not self.more():
                break
        if end is None:
            self.reject()
        self.pos = end
        return value

    def items(self, close: str) -> Iterator[None]:
        """Yield with pos at each member of the object or array whose opening
        bracket is at pos, then move past its closing bracket `close`.
        A separator other than a comma, or a comma before `close`, is rejected."""
        self.pos += 1
        c = self.peek()
        while c != close:
            yield
            c = self.peek()
            if c == ",":
                self.pos += 1
                if self.peek() == close:
                    self.reject()
            elif c != close:
                self.reject()
        self.pos += 1

    def end(self) -> None:
        """Only whitespace may follow the document."""
        if self.peek():
            self.reject()

    def reject(self) -> NoReturn:
        """Raise json.load's error for this file, which the stream will not accept.

        The file is decoded whole, so a byte that is not UTF-8 is reported
        at its offset in the file, and json parses the text, dropping each
        object as it is built: the error path holds the file's bytes and
        text, never its records.
        """
        self.text = ""
        try:
            json.loads(_file_text(self.path), object_pairs_hook=lambda pairs: None)
        except (ValueError, RecursionError) as exc:
            # Raised outside the except clause, so the text the exception holds is freed.
            message = f"{self.path}: {exc}"
        else:
            raise AssertionError(f"{self.path}: json accepted text this reader rejected")
        raise ParseError(message)


def _file_text(path: str | Path) -> str:
    """The whole text of a UTF-8 file, its newlines translated as text-mode
    open() translates them; bytes that are not UTF-8 raise ParseError at
    their offset in the file.

    The bytes are checked _CHUNK_BYTES at a time before the file is decoded
    whole, as a whole-file decode error would hold a copy of every byte.
    """
    data = Path(path).read_bytes()
    utf8 = codecs.getincrementaldecoder("utf-8")()
    for start in range(0, len(data), _CHUNK_BYTES):
        # The decoder's error counts from the bytes it kept from the last chunk.
        at = start - len(utf8.getstate()[0])
        try:
            utf8.decode(data[start : start + _CHUNK_BYTES], final=start + _CHUNK_BYTES >= len(data))
        except UnicodeDecodeError as exc:
            # Worded on data itself, which the error refers to without copying it.
            bad = UnicodeDecodeError("utf-8", data, at + exc.start, at + exc.end, exc.reason)
            break
    else:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    raise ParseError(f"{path}: {bad}")


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


@dataclass(frozen=True, eq=False)
class ImageFeatureTable:
    """Five salient-object-count probabilities, summing to 1, per image.

    Row k of probabilities belongs to image_ids[k]; the ids ascend.
    """

    image_ids: np.ndarray  # (m,) int64, strictly increasing
    probabilities: np.ndarray  # (m, 5) float64

    def lookup(self, image_ids: np.ndarray) -> np.ndarray:
        """(n, 5) rows of the given image ids, the uniform fallback for unknown ones."""
        rows = np.empty((len(image_ids), 5))
        rows[:] = UNIFORM_SALIENCY
        if len(self.image_ids):
            at = np.searchsorted(self.image_ids, image_ids).clip(max=len(self.image_ids) - 1)
            found = self.image_ids[at] == image_ids
            rows[found] = self.probabilities[at[found]]
        return rows


def load_image_features(path: str | Path) -> ImageFeatureTable:
    """Read the saliency CSV (header image_id,p0,p1,p2,p3,p4).

    Every cell is a plain ASCII number: a cell holding "_" or any
    non-ASCII character raises ParseError, though int() and float() would
    read "1_0" as 10 and Arabic-Indic digits as ASCII ones. An image_id
    outside the int64 range or given twice raises ParseError. Rows whose
    components are finite, non-negative and sum to 1 within 1e-3 are
    renormalized to sum exactly 1; anything else raises
    InvalidProbability. A row's sum adds its components left to right, so
    it is the same float on every Python version. The first failing row
    in the file is the one reported.
    """
    ids, probabilities = array("q"), array("d")
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
        try:
            if len(row) != 6:
                raise ParseError(f"{where}: expected 6 columns, got {len(row)}")
            cells = "".join(row)
            if "_" in cells or not cells.isascii():
                raise ParseError(f"{where}: cells must be plain ASCII numbers, got {row}")
            try:
                image_id = int(row[0])
                p0, p1, p2, p3, p4 = probs = list(map(float, row[1:]))
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            _append_int64(ids, image_id, "image_id", where)
            total = p0 + p1 + p2 + p3 + p4  # finite if every component is
            if not math.isfinite(total) and not all(map(math.isfinite, probs)):
                raise InvalidProbability(f"{where}: non-finite probability component")
            if min(probs) < 0.0:
                raise InvalidProbability(f"{where}: negative probability component")
            if abs(total - 1.0) > _SUM_BAND:
                raise InvalidProbability(
                    f"{where}: probabilities sum to {total}, outside 1 +/- {_SUM_BAND}"
                )
        except CrowdConsensusError:
            _id_order(ids, path)  # a repeated id on an earlier row fails first
            raise
        probabilities.extend([p / total for p in probs])
    order = _id_order(ids, path)
    return ImageFeatureTable(
        np.frombuffer(ids, dtype=np.int64)[order],
        np.frombuffer(probabilities, dtype=np.float64).reshape(len(ids), 5)[order],
    )


def _id_order(ids: array, path) -> np.ndarray | slice:
    """The order that sorts ids: a slice of all of them, which copies
    nothing, when they strictly ascend, else a stable argsort. ParseError
    names the first row (in file order) whose image_id an earlier row
    holds, read again for its line."""
    image_ids = np.frombuffer(ids, dtype=np.int64)
    if (image_ids[1:] > image_ids[:-1]).all():
        return slice(None)
    order = np.argsort(image_ids, kind="stable")
    repeats = order[1:][image_ids[order[1:]] == image_ids[order[:-1]]]
    if repeats.size:
        k = repeats.min()
        rows = enumerate(_read_text(path, csv.reader), start=1)  # row 1 is the header
        lineno = next(islice((n for n, row in rows if row and n > 1), k, None))
        raise ParseError(f"{path}:{lineno}: duplicate image_id {image_ids[k]}")
    return order
