import json
import re

import pytest

from crowd_consensus import (
    Corpus,
    load_corpus,
    load_image_features,
    save_corpus_jsonl,
)
from crowd_consensus.corpus import UNIFORM_SALIENCY
from crowd_consensus.errors import (
    AnswerCountMismatch,
    InvalidProbability,
    KeyMismatch,
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
    assert corpus.questions[1].question_id == 1
    assert corpus.questions[1].image_id == 101


def test_load_jsonl_orders_by_question_id(tmp_path):
    records = _records()
    records.reverse()
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    corpus = load_corpus(path)
    assert corpus.question_ids() == (0, 1, 2)


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
    assert corpus.question_ids() == mixed_corpus.question_ids()
    row = corpus.question_ids().index(3)
    assert corpus.questions[row].raw_answers == mixed_corpus.questions[row].raw_answers
    assert corpus.questions[row].answer_type == "number"


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


def test_vqa_requires_annotations_file(tmp_path, mixed_corpus):
    q_path, _ = _write_vqa_pair(tmp_path, mixed_corpus)
    with pytest.raises(MissingAnnotation):
        load_corpus(q_path, format="vqa_v1_json")


def test_corpus_subset(mixed_corpus):
    sub = mixed_corpus.subset([5, 2])
    assert sub.question_ids() == (2, 5)
    assert sub.answers_per_question == mixed_corpus.answers_per_question
    with pytest.raises(KeyMismatch, match="more than once"):
        mixed_corpus.subset([2, 5, 2])
    with pytest.raises(KeyMismatch, match="not in the corpus"):
        mixed_corpus.subset([2, 10**6])


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
    assert 7 in table
    assert sum(table.get(7)) == pytest.approx(1.0, abs=1e-9)


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
    assert sum(table.get(3)) == pytest.approx(1.0, abs=1e-6)


def test_image_features_uniform_fallback(tmp_path):
    table = load_image_features(_write_features(tmp_path, ["1,0.2,0.2,0.2,0.2,0.2"]))
    assert table.get(999) == UNIFORM_SALIENCY
    assert 999 not in table


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


#: Inputs the JSON parser rejects with something other than JSONDecodeError.
UNPARSABLE = {
    "nested": b"[" * 200_000,  # RecursionError
    "not-utf8": b'{"question": "caf\xe9"}',  # UnicodeDecodeError
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
        (q_path if which == "questions" else a_path).write_bytes(content)
        args = ["--corpus", str(q_path), "--annotations", str(a_path),
                "--format", "vqa_v1_json"]
    with pytest.raises(ParseError):
        load_corpus(args[1], args[3] if len(args) > 2 else None,
                    format="jsonl" if which == "jsonl" else "vqa_v1_json")
    assert main(["analyze", *args, "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("row", [
    b"4,0.2,0.2,0.2,0.2,0.2\xff",
    b'4,"' + b"0" * 200_000 + b'",0.2,0.2,0.2,0.2',  # over the csv module's field limit
], ids=["not-utf8", "huge-field"])
def test_unreadable_image_features_are_a_parse_error(tmp_path, mixed_corpus, row):
    path = tmp_path / "features.csv"
    path.write_bytes(b"image_id,p0,p1,p2,p3,p4\n3,0.2,0.2,0.2,0.2,0.2\n" + row + b"\n")
    with pytest.raises(ParseError):
        load_image_features(path)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(mixed_corpus, corpus_path)
    assert main(["train", "--corpus", str(corpus_path), "--image-features", str(path),
                 "--out-dir", str(tmp_path)]) == 2
