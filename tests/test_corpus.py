import dataclasses
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import (
    Corpus,
    VisualQuestion,
    load_corpus,
    load_image_features,
    save_corpus_jsonl,
)
from crowd_consensus import corpus as corpus_module
from crowd_consensus.corpus import UNIFORM_SALIENCY
from crowd_consensus.errors import (
    AnswerCountMismatch,
    InvalidProbability,
    MissingAnnotation,
    ParseError,
)

from crowd_consensus.cli import main

from conftest import vq, write_jsonl


def _records(n=3, answers=10):
    return [
        {
            "question_id": i,
            "image_id": 100 + i,
            "question": f"what is item {i}",
            "answers": [f"thing {i}"] * answers,
        }
        for i in range(n)
    ]


def test_load_jsonl(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", _records())
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.answers_per_question == 10
    assert corpus[1].question_id == 1
    assert corpus[1].image_id == 101


def test_load_jsonl_orders_by_question_id(tmp_path):
    records = _records()
    records.reverse()
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    corpus = load_corpus(path)
    assert corpus.ids.tolist() == [0, 1, 2]


def test_load_is_deterministic(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", _records())
    assert load_corpus(path) == load_corpus(path)


def test_jsonl_round_trip(tmp_path, mixed_corpus):
    path = tmp_path / "out.jsonl"
    save_corpus_jsonl(mixed_corpus, path)
    assert load_corpus(path) == mixed_corpus


def test_answer_count_mismatch(tmp_path):
    records = _records()
    records[2]["answers"] = ["short"] * 9
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    with pytest.raises(AnswerCountMismatch):
        load_corpus(path)


def test_jsonl_parse_errors(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"question_id": 1,\n')
    with pytest.raises(ParseError):
        load_corpus(bad_json)

    missing_key = write_jsonl(
        tmp_path / "missing.jsonl",
        [{"question_id": 1, "image_id": 2, "answers": ["x"] * 10}],
    )
    with pytest.raises(ParseError):
        load_corpus(missing_key)

    records = _records()
    records[1]["question_id"] = 0
    duplicate = write_jsonl(tmp_path / "dup.jsonl", records)
    with pytest.raises(ParseError):
        load_corpus(duplicate)


def test_unknown_answer_type_rejected(tmp_path):
    records = _records(1)
    records[0]["answer_type"] = "color"
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    with pytest.raises(ParseError):
        load_corpus(path)


def test_unknown_format_rejected(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", _records())
    with pytest.raises(ParseError):
        load_corpus(path, format="csv")


def test_small_answer_pools_allowed(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", _records(answers=4))
    assert load_corpus(path).answers_per_question == 4


def _write_vqa_pair(tmp_path, mixed_corpus, drop_annotation_for=None):
    questions = {
        "questions": [
            {"question_id": q.question_id, "image_id": q.image_id, "question": q.question_text}
            for q in mixed_corpus
        ]
    }
    annotations = {
        "annotations": [
            {
                "question_id": q.question_id,
                "answer_type": q.answer_type or "other",
                "answers": [{"answer": a} for a in q.raw_answers],
            }
            for q in mixed_corpus
            if q.question_id != drop_annotation_for
        ]
    }
    q_path = tmp_path / "questions.json"
    a_path = tmp_path / "annotations.json"
    q_path.write_text(json.dumps(questions))
    a_path.write_text(json.dumps(annotations))
    return q_path, a_path


def test_load_vqa_v1_json(tmp_path, mixed_corpus):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
    corpus = load_corpus(q_path, a_path, format="vqa_v1_json")
    assert len(corpus) == len(mixed_corpus)
    assert corpus.ids.tolist() == mixed_corpus.ids.tolist()
    row = corpus.ids.tolist().index(3)
    assert corpus[row].raw_answers == mixed_corpus[row].raw_answers
    assert corpus[row].answer_type == "number"


def test_vqa_missing_annotation(tmp_path, mixed_corpus):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus, drop_annotation_for=4)
    with pytest.raises(MissingAnnotation):
        load_corpus(q_path, a_path, format="vqa_v1_json")


def test_vqa_duplicate_annotation_rejected(tmp_path, mixed_corpus, capsys):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
    annotations = json.loads(a_path.read_text())
    # Question 1's unanimous pool, then a second record giving ten distinct answers.
    first = annotations["annotations"][0]
    assert first["question_id"] == 1
    annotations["annotations"].append(
        dict(first, answers=[{"answer": f"answer {i}"} for i in range(10)])
    )
    a_path.write_text(json.dumps(annotations))
    with pytest.raises(ParseError, match="question_id 1"):
        load_corpus(q_path, a_path, format="vqa_v1_json")
    assert main(["analyze", "--corpus", str(q_path), "--annotations", str(a_path),
                 "--format", "vqa_v1_json", "--out-dir", str(tmp_path / "out")]) == 2
    assert "duplicate annotation for question_id 1" in capsys.readouterr().err


def test_vqa_orphan_annotation_rejected(tmp_path, capsys):
    # One question (id 1) paired with annotations for ids 1 and 2.
    q_path, a_path = tmp_path / "questions.json", tmp_path / "annotations.json"
    q_path.write_text(json.dumps(
        {"questions": [{"question_id": 1, "image_id": 10, "question": "what is it"}]}
    ))
    a_path.write_text(json.dumps({"annotations": [
        {"question_id": qid, "answer_type": "other", "answers": [{"answer": "yes"}] * 10}
        for qid in (2, 1)
    ]}))
    with pytest.raises(ParseError, match="1 annotation record.*question_id being 2"):
        load_corpus(q_path, a_path, format="vqa_v1_json")
    assert main(["analyze", "--corpus", str(q_path), "--annotations", str(a_path),
                 "--format", "vqa_v1_json", "--out-dir", str(tmp_path / "out")]) == 2
    assert "match no question" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "5", '"q"', "null", ' [{"questions": []}]\n'])
def test_vqa_file_that_is_not_a_json_object_is_rejected(tmp_path, mixed_corpus, text):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for questions, annotations in ((bad, a_path), (q_path, bad)):
        with pytest.raises(ParseError, match=re.escape(f"{bad}: expected a JSON object")):
            load_corpus(questions, annotations, format="vqa_v1_json")


def test_vqa_requires_annotations_file(tmp_path, mixed_corpus):
    q_path, _ = _write_vqa_pair(tmp_path, mixed_corpus)
    with pytest.raises(MissingAnnotation):
        load_corpus(q_path, format="vqa_v1_json")


def test_jsonl_rejects_an_annotations_file(tmp_path, mixed_corpus):
    path = tmp_path / "c.jsonl"
    save_corpus_jsonl(mixed_corpus, path)
    missing = tmp_path / "nonexistent.json"
    with pytest.raises(ParseError, match=re.escape(str(missing))):
        load_corpus(path, annotations_source=missing)


def test_analyze_jsonl_with_annotations_exits_two(tmp_path, mixed_corpus, capsys):
    path = tmp_path / "c.jsonl"
    save_corpus_jsonl(mixed_corpus, path)
    missing = tmp_path / "nonexistent.json"
    out = tmp_path / "out"
    assert main(["analyze", "--corpus", str(path), "--annotations", str(missing),
                 "--out-dir", str(out)]) == 2
    assert f"{missing}: an annotations file needs format vqa_v1_json" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_question_ids_rejected():
    with pytest.raises(ParseError):
        Corpus.from_questions([vq(1, "a b", ["x"] * 10), vq(1, "c d", ["y"] * 10)])


def _write_features(tmp_path, rows):
    path = tmp_path / "features.csv"
    lines = ["image_id,p0,p1,p2,p3,p4"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_image_features(tmp_path):
    path = _write_features(tmp_path, ["7,0.1,0.2,0.3,0.2,0.2"])
    table = load_image_features(path)
    assert 7 in table.image_ids
    assert table.lookup(np.array([7])).sum() == pytest.approx(1.0, abs=1e-9)


def test_image_features_negative_component(tmp_path):
    path = _write_features(tmp_path, ["8,-0.1,0.5,0.3,0.2,0.1"])
    with pytest.raises(InvalidProbability):
        load_image_features(path)


def test_image_features_sum_out_of_band(tmp_path):
    path = _write_features(tmp_path, ["9,0.3,0.3,0.3,0.3,0.3"])
    with pytest.raises(InvalidProbability):
        load_image_features(path)


def test_image_features_renormalized_within_band(tmp_path):
    path = _write_features(tmp_path, ["3,0.2005,0.2,0.2,0.2,0.2"])
    table = load_image_features(path)
    assert table.lookup(np.array([3])).sum() == pytest.approx(1.0, abs=1e-6)


def test_image_features_uniform_fallback(tmp_path):
    table = load_image_features(_write_features(tmp_path, ["1,0.2,0.2,0.2,0.2,0.2"]))
    assert table.lookup(np.array([999])).tolist() == [list(UNIFORM_SALIENCY)]
    assert 999 not in table.image_ids


def test_image_features_parse_errors(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("id,a,b,c,d,e\n1,0.2,0.2,0.2,0.2,0.2\n")
    with pytest.raises(ParseError):
        load_image_features(bad_header)

    with pytest.raises(ParseError):
        load_image_features(_write_features(tmp_path, ["1,0.2,0.2,0.2,0.2"]))

    with pytest.raises(ParseError):
        load_image_features(_write_features(tmp_path, ["1,x,0.2,0.2,0.2,0.2"]))

    # int() and float() accept digit separators and non-ASCII digits; the loader does not.
    for image_id in ("1_0", "\u0663"):
        row = f"{image_id},0.2,0.2,0.2,0.2,0.2"
        path = _write_features(tmp_path, ["1,0.2,0.2,0.2,0.2,0.2", row])
        with pytest.raises(ParseError, match=re.escape(f"{path}:3")):
            load_image_features(path)

    with pytest.raises(ParseError):
        load_image_features(
            _write_features(tmp_path, ["1,0.2,0.2,0.2,0.2,0.2", "1,0.2,0.2,0.2,0.2,0.2"])
        )


BAD_FIELDS = [
    ("question_id", None),
    ("question_id", 7.9),
    ("question_id", True),
    ("question_id", "7"),
    ("image_id", None),
    ("image_id", False),
    ("question", None),
    ("question", 5),
    ("answers", None),
    ("answers", ["x"] * 9 + [None]),
    ("answers", ["x"] * 9 + [3]),
    ("question_id", 2**63),
    ("image_id", -(2**63) - 1),
]


@pytest.mark.parametrize("key,value", BAD_FIELDS)
def test_jsonl_field_types_rejected(tmp_path, key, value):
    records = _records()
    records[1][key] = value
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    with pytest.raises(ParseError):
        load_corpus(path)
    assert main(["analyze", "--corpus", str(path), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("key,value", BAD_FIELDS)
def test_vqa_field_types_rejected(tmp_path, mixed_corpus, key, value):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
    questions = json.loads(q_path.read_text())
    annotations = json.loads(a_path.read_text())
    if key == "answers":
        if value is None:
            annotations["annotations"][1]["answers"] = None
        else:
            annotations["annotations"][1]["answers"][-1]["answer"] = value[-1]
    else:
        questions["questions"][1][key] = value
    q_path.write_text(json.dumps(questions))
    a_path.write_text(json.dumps(annotations))
    with pytest.raises(ParseError):
        load_corpus(q_path, a_path, format="vqa_v1_json")
    assert main(["analyze", "--corpus", str(q_path), "--annotations", str(a_path),
                 "--format", "vqa_v1_json", "--out-dir", str(tmp_path)]) == 2


def test_vqa_annotation_id_type_rejected(tmp_path, mixed_corpus):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
    annotations = json.loads(a_path.read_text())
    annotations["annotations"][0]["question_id"] = 1.0
    a_path.write_text(json.dumps(annotations))
    with pytest.raises(ParseError):
        load_corpus(q_path, a_path, format="vqa_v1_json")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_image_features_non_finite_rejected(tmp_path, mixed_corpus, cell):
    path = _write_features(tmp_path, [f"4,{cell},0.25,0.25,0.25,0.25"])
    with pytest.raises(InvalidProbability):
        load_image_features(path)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(mixed_corpus, corpus_path)
    assert main(["train", "--corpus", str(corpus_path), "--image-features", str(path),
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("which,doc", [
    ("questions", {}),
    ("questions", {"questions": 5}),
    ("questions", {"questions": {"a": 1}}),
    ("annotations", {"annotations": 3}),
    ("annotations", {"annotations": None}),
])
def test_vqa_top_level_types_rejected(tmp_path, mixed_corpus, which, doc):
    q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
    (q_path if which == "questions" else a_path).write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_corpus(q_path, a_path, format="vqa_v1_json")
    assert main(["analyze", "--corpus", str(q_path), "--annotations", str(a_path),
                 "--format", "vqa_v1_json", "--out-dir", str(tmp_path)]) == 2


_ENTRY = ("annotations", 1, "answers", 2)

#: Edits of a two-question pair: the file ("q" or "a"), the keys of the value
#: replaced (none: the whole document), the new value, and the message the
#: load fails with ({q} and {a} stand for the paths), or None if it loads.
PARSE_PARITY = {
    "bare-string-entry": ("a", _ENTRY, "a2",
                          "{a} question 2: expected key 'answer' of type str, got None"),
    "list-entry": ("a", _ENTRY, ["a2"],
                   "{a} question 2: expected key 'answer' of type str, got None"),
    "answer-not-a-string": ("a", _ENTRY, {"answer": 3},
                            "{a} question 2: expected key 'answer' of type str, got 3"),
    "entry-extra-keys": ("a", _ENTRY, {"answer": "a2", "answer_id": 3,
                                       "answer_confidence": "yes"}, None),
    "annotation-answer-key": ("a", ("annotations", 1, "answer"), "a0", None),
    "questions-doc-is-answer": ("q", (), {"answer": "x"},
                                "{q}: expected key 'questions' of type list, got None"),
    "annotations-doc-is-answer": ("a", (), {"answer": "x"},
                                  "{a}: expected key 'annotations' of type list, got None"),
    "question-record-is-answer": ("q", ("questions", 1), {"answer": "x"},
                                  "{q}: expected key 'question_id' of type int, got None"),
    "annotation-record-is-answer": ("a", ("annotations", 1), {"answer": "x"},
                                    "{a}: expected key 'question_id' of type int, got None"),
    "question-text-is-answer": ("q", ("questions", 1, "question"), {"answer": "yes"},
                                "{q}: expected key 'question' of type str, got {{'answer': 'yes'}}"),
    "answer-type-is-answer": ("a", ("annotations", 1, "answer_type"), {"answer": "x"},
                              "question 2: unknown answer_type {{'answer': 'x'}} "
                              "(expected one of ('yes/no', 'number', 'other'))"),
}


@pytest.mark.parametrize("which,keys,value,message", PARSE_PARITY.values(),
                         ids=PARSE_PARITY.keys())
def test_vqa_answer_entry_messages(tmp_path, capsys, which, keys, value, message):
    docs = {
        "q": {"questions": [
            {"question_id": qid, "image_id": 10 + qid, "question": f"what is {qid}"}
            for qid in (1, 2)
        ]},
        "a": {"annotations": [
            {"question_id": qid, "answer_type": "other",
             "answers": [{"answer": f"a{j % 3}"} for j in range(4)]}
            for qid in (1, 2)
        ]},
    }
    if keys:
        target = docs[which]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    else:
        docs[which] = value
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    if message is None:
        corpus = load_corpus(paths["q"], paths["a"], format="vqa_v1_json")
        assert [vq.raw_answers for vq in corpus] == [("a0", "a1", "a2", "a0")] * 2
        return
    expected = message.format(**paths)
    with pytest.raises(ParseError) as exc:
        load_corpus(paths["q"], paths["a"], format="vqa_v1_json")
    assert type(exc.value) is ParseError and str(exc.value) == expected
    assert main(["analyze", "--corpus", str(paths["q"]), "--annotations", str(paths["a"]),
                 "--format", "vqa_v1_json", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("fmt", ["jsonl", "vqa_v1_json"])
def test_loaders_keep_one_string_per_distinct_answer(tmp_path, mixed_corpus, fmt):
    if fmt == "jsonl":
        save_corpus_jsonl(mixed_corpus, tmp_path / "corpus.jsonl")
        corpus = load_corpus(tmp_path / "corpus.jsonl")
    else:
        corpus = load_corpus(*_write_vqa_pair(tmp_path, mixed_corpus), format=fmt)
    assert [vq.raw_answers for vq in corpus] == [vq.raw_answers for vq in mixed_corpus]
    answers = [ans for vq in corpus for ans in vq.raw_answers]
    assert len({id(ans) for ans in answers}) == len(set(answers))
    types = [vq.answer_type for vq in corpus]
    assert len({id(t) for t in types}) == len(set(types))


def _write_memory_pair(tmp_path):
    n = 6000
    (tmp_path / "q.json").write_text(json.dumps({"questions": [
        {"question_id": i, "image_id": i // 3, "question": f"what is on table {i}"}
        for i in range(n)
    ]}))
    (tmp_path / "a.json").write_text(json.dumps({"annotations": [
        {"question_id": i, "image_id": i // 3, "answer_type": "other",
         "answers": [{"answer": f"answer {(7 * i + j) % 50}", "answer_id": j + 1}
                     for j in range(10)]}
        for i in range(n)
    ]}))
    return n


def test_vqa_load_memory_is_bounded(tmp_path):
    # 6,000 questions of 10 answers, each answer an {"answer", "answer_id"} entry
    # (2.9 MB of annotations, three 1 MiB chunks). Measured peaks: 7.7 MB parsing
    # each file whole with json.load, 2.8 MB streaming it: one chunk's bytes and
    # text (2 MiB) plus 0.9 MB of columns. The bound is that plus 0.7 MB.
    n = _write_memory_pair(tmp_path)
    tracemalloc.start()
    try:
        corpus = load_corpus(tmp_path / "q.json", tmp_path / "a.json", format="vqa_v1_json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(corpus) == n
    assert peak < 3_500_000, peak


def test_rejected_vqa_file_memory_is_bounded(tmp_path):
    # The annotations file above with trailing data, which json parses again whole.
    # Measured peak: 6.8 MB, the file's bytes and text (2 x 2.9 MB) plus the 1.0 MB
    # of columns read before the fault. Parsing it into objects took 21.3 MB; the
    # bound, bytes and text plus 1.7 MB, holds only if no record is built.
    _write_memory_pair(tmp_path)
    path = tmp_path / "a.json"
    path.write_bytes(path.read_bytes() + b" x")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="Extra data"):
            load_corpus(tmp_path / "q.json", path, format="vqa_v1_json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * size + 1_700_000, peak


def test_bad_utf8_vqa_file_memory_is_bounded(tmp_path):
    # The annotations file above with a 0xff byte two-thirds of the way in. Measured
    # peak: 6.8 MB, the file's bytes (2.9 MB), 0.7 MB of columns read before the
    # fault, and three 1 MiB chunks: the piece being checked, the text decoded from
    # it and the decode error's copy of it. Decoding the file whole took 11.6 MB, as
    # the error copies every byte. The bound is the bytes plus 4.3 MB.
    _write_memory_pair(tmp_path)
    path = tmp_path / "a.json"
    data = bytearray(path.read_bytes())
    data[data.index(b"answer", 2 * len(data) // 3) + 3] = 0xFF
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="can't decode byte 0xff in position"):
            load_corpus(tmp_path / "q.json", path, format="vqa_v1_json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 4_300_000, peak


def test_image_features_memory_is_bounded(tmp_path):
    # 6,000 rows, as in the planted benchmark workloads. Measured peaks: 1.7 MB
    # keeping a dict of tuples, 0.7 MB filling id and probability arrays (0.3 MB
    # kept). The bound is that plus 0.2 MB.
    # The rows are read in id order and shuffled: the peak must not depend on order.
    rows = np.random.default_rng(1).dirichlet(np.ones(5), size=6000).tolist()
    lines = [f"{3 * i}," + ",".join(map(repr, row)) for i, row in enumerate(rows)]
    shuffled = [lines[k] for k in np.random.default_rng(2).permutation(len(lines))]
    for content in (lines, shuffled):
        path = _write_features(tmp_path, content)
        tracemalloc.start()
        try:
            table = load_image_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.image_ids.tolist() == list(range(0, 18000, 3))
        assert table.probabilities.shape == (6000, 5)
        assert peak < 900_000, peak


def test_saliency_rows_are_summed_left_to_right(tmp_path):
    # Python 3.12's sum() of floats rounds this row's total to 1.0; added left
    # to right it is 0.9999999999999999, as sum() gave before 3.12.
    probs = [0.3700220793237553, 0.2773631961205968, 0.026474735166627246,
             0.10737499531541232, 0.2187649940736083]
    total = 0.0
    for p in probs:
        total += p
    assert total == 0.9999999999999999
    table = load_image_features(_write_features(tmp_path, ["2," + ",".join(map(repr, probs))]))
    assert table.lookup(np.array([2])).tolist() == [[p / total for p in probs]]


@pytest.mark.parametrize("image_id", [2**63, -(2**63) - 1])
def test_image_ids_outside_int64_are_parse_errors(tmp_path, image_id):
    path = _write_features(tmp_path, ["1,0.2,0.2,0.2,0.2,0.2", f"{image_id},0.2,0.2,0.2,0.2,0.2"])
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}:3: image_id {image_id} is outside"):
        load_image_features(path)
    with pytest.raises(ParseError, match="question_id 9223372036854775808 is outside"):
        Corpus.from_questions([vq(2**63, "what is it", ["a"] * 10)])


def test_from_questions_applies_the_jsonl_type_rule():
    # True was once read as id 1; question_text=5 and answers (1,) * 10 were
    # accepted and failed later with a bare AttributeError, and question_id=1.0
    # with a bare TypeError.
    good = VisualQuestion(1, 1, "what is it", ("a",) * 10)
    for key, value in [
        ("question_id", True), ("question_id", 1.0), ("question_id", np.int64(1)),
        ("image_id", False), ("question_text", 5), ("question_text", b"what"),
        ("raw_answers", (1,) * 10), ("raw_answers", ("a",) * 9 + (None,)),
        ("raw_answers", "a" * 10), ("raw_answers", None),
    ]:
        bad = dataclasses.replace(good, **{key: value})
        message = f"Corpus question {bad.question_id!r}: expected int ids"
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            Corpus.from_questions([vq(0, "is it", ["b"] * 10), bad])
        assert f"{key}={value!r}" in str(exc.value)
    as_list = dataclasses.replace(good, raw_answers=list(good.raw_answers))
    assert Corpus.from_questions([as_list]) == Corpus.from_questions([good])


def test_first_failing_saliency_row_is_reported(tmp_path):
    # A repeated id is reported on its own row, before any later bad row.
    path = _write_features(tmp_path, ["5,0.2,0.2,0.2,0.2,0.2", "", "5,0.2,0.2,0.2,0.2,0.2",
                                      "6,0.5,0.5,0.5,0.5,0.5"])
    with pytest.raises(ParseError, match=re.escape(f"{path}:4: duplicate image_id 5")):
        load_image_features(path)
    path = _write_features(tmp_path, ["5,0.2,0.2,0.2,0.2,0.2", "6,nan,0.2,0.2,0.2,0.2",
                                      "5,0.2,0.2,0.2,0.2,0.2"])
    with pytest.raises(InvalidProbability, match=re.escape(f"{path}:3: non-finite")):
        load_image_features(path)
    path = _write_features(tmp_path, ["5,0.2,0.2,0.2,0.2,0.2", "5,nan,0.2,0.2,0.2,0.2"])
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: duplicate image_id 5")):
        load_image_features(path)
    # The first repeat in file order, not the smallest repeated id; blank lines counted.
    path = _write_features(tmp_path, ["9,0.2,0.2,0.2,0.2,0.2", "4,0.2,0.2,0.2,0.2,0.2", "",
                                      "9,0.2,0.2,0.2,0.2,0.2", "4,0.2,0.2,0.2,0.2,0.2"])
    with pytest.raises(ParseError, match=re.escape(f"{path}:5: duplicate image_id 9")):
        load_image_features(path)


#: Inputs the JSON parser rejects with something other than JSONDecodeError.
UNPARSABLE = {
    "nested": b"[" * 200_000,  # RecursionError
    "not-utf8": b'{"question": "caf\xe9"}',  # UnicodeDecodeError
    # Past the first read of a text-mode file, whose offsets count from that read.
    "not-utf8-far": b'{"question": "' + b"x" * 28_000 + b'\xff"}',
    "long-int": b"1" * 5000,  # ValueError: too many digits for int()
}


@pytest.mark.parametrize("which", ["jsonl", "questions", "annotations"])
@pytest.mark.parametrize("content", UNPARSABLE.values(), ids=UNPARSABLE.keys())
def test_unparsable_corpus_is_a_parse_error(tmp_path, mixed_corpus, which, content):
    if which == "jsonl":
        path = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(mixed_corpus, path)
        path.write_bytes(path.read_bytes() + content + b"\n")
        args = ["--corpus", str(path)]
    else:
        q_path, a_path = _write_vqa_pair(tmp_path, mixed_corpus)
        path = q_path if which == "questions" else a_path
        path.write_bytes(content)
        args = ["--corpus", str(q_path), "--annotations", str(a_path),
                "--format", "vqa_v1_json"]
    with pytest.raises(ParseError) as exc:
        load_corpus(args[1], args[3] if len(args) > 2 else None,
                    format="jsonl" if which == "jsonl" else "vqa_v1_json")
    _assert_bad_byte_at_its_file_offset(exc.value, path)
    assert main(["analyze", *args, "--out-dir", str(tmp_path / "out")]) == 2


def _assert_bad_byte_at_its_file_offset(error, path):
    """If path is not UTF-8, error is the one decoding the whole file gives."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        assert str(error) == f"{path}: {whole}"


@pytest.mark.parametrize("row", [
    b"4,0.2,0.2,0.2,0.2,0.2\xff",
    b'4,"' + b"0" * 200_000 + b'",0.2,0.2,0.2,0.2',  # over the csv module's field limit
    # Past the first read of a text-mode file, whose offsets count from that read.
    b"".join(b"%d,0.2,0.2,0.2,0.2,0.2\n" % i for i in range(4, 1400)) + b"9999,0.2\xc3,0.2,0.2,0.2,0.2",
], ids=["not-utf8", "huge-field", "not-utf8-far"])
def test_unreadable_image_features_are_a_parse_error(tmp_path, mixed_corpus, row):
    path = tmp_path / "features.csv"
    path.write_bytes(b"image_id,p0,p1,p2,p3,p4\n3,0.2,0.2,0.2,0.2,0.2\n" + row + b"\n")
    with pytest.raises(ParseError) as exc:
        load_image_features(path)
    _assert_bad_byte_at_its_file_offset(exc.value, path)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(mixed_corpus, corpus_path)
    assert main(["train", "--corpus", str(corpus_path), "--image-features", str(path),
                 "--out-dir", str(tmp_path)]) == 2


#: A sequence that is not UTF-8, the _CHUNK_BYTES that places it when it starts
#: at file offset k, and whether it ends the file.
BAD_UTF8 = {
    # The second byte of the second chunk.
    "inside-a-chunk": (b"\xff", lambda k: k - 1, False),
    # A chunk ends in two bytes of a three-byte sequence; the next starts with "(".
    "split-across-chunks": (b"\xe2\x82(", lambda k: k + 2, False),
    # The file ends in two bytes of a three-byte sequence, one each side of a boundary.
    "truncated-at-end": (b"\xe2\x82", lambda k: k + 1, True),
}


@pytest.mark.parametrize("reader", ["jsonl", "vqa_v1_json", "saliency"])
@pytest.mark.parametrize("bad", BAD_UTF8.values(), ids=BAD_UTF8.keys())
def test_bad_utf8_across_chunks_is_placed_as_a_whole_decode(tmp_path, monkeypatch, mixed_corpus,
                                                             reader, bad):
    sequence, chunk, ends_file = bad
    if reader == "jsonl":
        path = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(mixed_corpus, path)
        prefix, suffix = path.read_bytes() + b'{"question": "x', b'"}\n'
        args = (path,)
    elif reader == "vqa_v1_json":
        q_path, path = _write_vqa_pair(tmp_path, mixed_corpus)
        prefix, suffix = b'{"annotations": [{"question": "x', b'"}]}'
        args = (q_path, path, "vqa_v1_json")
    else:
        path = tmp_path / "features.csv"
        prefix, suffix = b"image_id,p0,p1,p2,p3,p4\n3,0.2,0.2,0.2,0.2,0.2\n4,0.2", b",0.2,0.2,0.2,0.2\n"
    path.write_bytes(prefix + sequence + (b"" if ends_file else suffix))
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    assert whole.value.start == len(prefix)
    monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", chunk(len(prefix)))
    with pytest.raises(ParseError) as exc:
        load_image_features(path) if reader == "saliency" else load_corpus(*args)
    assert str(exc.value) == f"{path}: {whole.value}"


@given(st.lists(st.sampled_from([b"a", b"\n", b"\xc3", b"\xa9", b"\xe2", b"\x82", b"\xac",
                                 b"\xed", b"\xa0", b"\xf0", b"\x9f", b"\x80", b"\xff"]),
                max_size=16).map(b"".join),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_file_text_places_bad_utf8_as_a_whole_decode(tmp_path_factory, data, chunk):
    path = tmp_path_factory.mktemp("utf8") / "file"
    path.write_bytes(data)
    with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as whole:
            with pytest.raises(ParseError, match=re.escape(f"{path}: {whole}")):
                corpus_module._file_text(path)
        else:
            assert corpus_module._file_text(path) == text


def test_saliency_rows_in_any_order_give_one_table(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(5), size=50).tolist()
    lines = [f"{7 * i - 20}," + ",".join(map(repr, row)) for i, row in enumerate(rows)]
    ascending = load_image_features(_write_features(tmp_path, lines))
    shuffled = load_image_features(_write_features(tmp_path, [lines[k] for k in rng.permutation(50)]))
    assert ascending.image_ids.tolist() == shuffled.image_ids.tolist() == [7 * i - 20 for i in range(50)]
    assert ascending.probabilities.tolist() == shuffled.probabilities.tolist()
    # A repeat next to its first row, in rows that otherwise ascend, names its line.
    path = _write_features(tmp_path, lines[:10] + [lines[9]] + lines[10:])
    with pytest.raises(ParseError, match=re.escape(f"{path}:12: duplicate image_id 43")):
        load_image_features(path)
