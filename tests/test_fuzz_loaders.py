"""Fuzz the three file loaders: every input either loads or raises a
CrowdConsensusError (exit 2 in the CLI), within a per-example time bound.

Inputs mix raw bytes, deeply nested JSON, and well-formed documents with
fields replaced by arbitrary JSON values, so that the checks behind the
parsers are reached too. derandomize=True makes every run draw the same
examples.
"""

import copy
import csv
import io
import json
import tempfile
from contextlib import suppress
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import (
    ForestConfig,
    FeatureMode,
    build_vocabularies,
    extract_matrix,
    load_corpus,
    load_image_features,
    load_model,
    make_planted_corpus,
    save_model,
    train_forest,
)
from crowd_consensus.errors import CrowdConsensusError

FUZZ = settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=2))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)
NESTED = st.integers(0, 20_000).map(lambda depth: ("[" * depth).encode())


def _record(fields):
    """A dict holding any subset of fields, each well-typed or arbitrary JSON."""
    return st.fixed_dictionaries({}, optional={k: v | JSON for k, v in fields.items()})


QUESTION = _record({
    "question_id": st.integers(-2, 30),
    "image_id": st.integers(-2, 30),
    "question": st.text(max_size=20),
})
ANNOTATION = _record({
    "question_id": st.integers(-2, 30),
    "answer_type": st.sampled_from(["yes/no", "number", "other"]),
    "answers": st.lists(_record({"answer": st.text(max_size=6)}), max_size=12),
})
JSONL_RECORD = _record({
    "question_id": st.integers(-2, 30),
    "image_id": st.integers(-2, 30),
    "question": st.text(max_size=20),
    "answers": st.lists(st.text(max_size=6), max_size=12),
    "answer_type": st.sampled_from(["yes/no", "number", "other"]),
})
JSONL_LINE = JSONL_RECORD.map(json.dumps) | JSON.map(json.dumps) | st.text(max_size=20)
JSONL = st.lists(JSONL_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode())
VQA_FILES = {
    name: _record({name: st.lists(record, max_size=6)}).map(json.dumps).map(str.encode)
    | NESTED
    | st.binary(max_size=200)
    for name, record in (("questions", QUESTION), ("annotations", ANNOTATION))
}

CELL = (
    st.sampled_from(["0.2", "0", "nan", "inf", "-0.1", "1e309", "0x1", ""])
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.text(max_size=5)
)
HEADER = st.just(["image_id", "p0", "p1", "p2", "p3", "p4"]) | st.lists(CELL, max_size=7)


def _csv_text(header, rows) -> bytes:
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    return out.getvalue().encode()


SALIENCY = st.builds(_csv_text, HEADER, st.lists(st.lists(CELL, max_size=7), max_size=6))


def _model_doc() -> dict:
    corpus = make_planted_corpus(30, seed=1)
    vocab = build_vocabularies(corpus)
    X = extract_matrix(corpus, vocab, mode=FeatureMode.Q)
    model = train_forest(X, corpus.answer_table.labels(), ForestConfig(n_trees=3, seed=1),
                         vocab=vocab, feature_mode=FeatureMode.Q)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.json")
        return json.loads((Path(tmp) / "model.json").read_text())


MODEL_DOC = _model_doc()


@st.composite
def mutated_models(draw) -> bytes:
    """MODEL_DOC with one to three values, at any depth, replaced by arbitrary JSON."""
    doc = copy.deepcopy(MODEL_DOC)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            else:
                node[key] = draw(JSON)
                break
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _load(load, path, content: bytes):
    path.write_bytes(content)
    with suppress(CrowdConsensusError):
        load(path)


@FUZZ
@given(content=JSONL | NESTED | st.binary(max_size=200))
def test_jsonl_corpus_loader(work, content):
    _load(load_corpus, work / "corpus.jsonl", content)


@FUZZ
@given(questions=VQA_FILES["questions"], annotations=VQA_FILES["annotations"])
def test_vqa_corpus_loader(work, questions, annotations):
    paths = {name: work / f"{name}.json" for name in VQA_FILES}
    paths["questions"].write_bytes(questions)
    paths["annotations"].write_bytes(annotations)
    with suppress(CrowdConsensusError):
        load_corpus(paths["questions"], paths["annotations"], format="vqa_v1_json")


@FUZZ
@given(content=SALIENCY | st.binary(max_size=200))
def test_saliency_loader(work, content):
    _load(load_image_features, work / "saliency.csv", content)


@FUZZ
@given(content=mutated_models() | NESTED | st.binary(max_size=200))
def test_model_loader(work, content):
    _load(load_model, work / "model.json", content)
