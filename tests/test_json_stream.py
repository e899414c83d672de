"""The streamed VQA JSON reader against json.load.

corpus._read_records decodes a file _CHUNK_BYTES at a time and the wanted
array one record at a time. json_load_records below reads the same file
with json.load and then hands over the records, as the loader did before
it streamed; it is the reference. On every input both give the same
columns, or the same error class and message, whatever the chunk size.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import corpus, load_corpus
from crowd_consensus.errors import CrowdConsensusError, ParseError

ADD = {"questions": corpus._add_question, "annotations": corpus._add_annotation}


def json_load_records(path, key, add):
    where = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    columns = corpus._Columns()
    for record in corpus._field(doc, key, where, list):
        add(columns, record, where)
    return columns


def outcome(read, path, key, chunk=corpus._CHUNK_BYTES):
    """The columns read from path, or the error class and message."""
    with mock.patch.object(corpus, "_CHUNK_BYTES", chunk):
        try:
            c = read(path, key, ADD[key])
        except CrowdConsensusError as exc:
            return type(exc), str(exc)
    # repr: a type read from the file may be NaN, which equals nothing.
    return (c.ids.tolist(), c.image_ids.tolist(), c.texts, repr(c.types),
            c.codes.tolist(), c.sizes.tolist(), list(c.code_of_raw))


TEXT = st.text(st.sampled_from('ab "\\/\n\t\x00\x7fé中\U0001f600'), max_size=8) | st.text(
    max_size=6
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6,
)
ID = st.integers(-3, 30) | st.integers()
RECORDS = {
    "questions": st.fixed_dictionaries(
        {"question_id": ID, "image_id": ID, "question": TEXT}
    ) | JSON,
    "annotations": st.fixed_dictionaries({
        "question_id": ID,
        "answer_type": st.sampled_from(["yes/no", "number", "other"]) | JSON,
        "answers": st.lists(st.fixed_dictionaries({"answer": TEXT}) | JSON, max_size=4),
    }) | JSON,
}
SEPARATORS = [(", ", ": "), (",", ":"), (" ,\n", " :\t")]
WHITESPACE = ["", " ", "\n  ", "\t\r\n ", "\r"]


@st.composite
def documents(draw, key) -> bytes:
    """A JSON object whose keys may repeat, one of them `key` holding records or any value."""
    pairs = draw(st.lists(
        st.tuples(st.sampled_from([key, key, "info"]), st.lists(RECORDS[key], max_size=4) | JSON),
        max_size=4,
    ))
    item, colon = draw(st.sampled_from(SEPARATORS))
    ws = draw(st.sampled_from(WHITESPACE))
    dumps = dict(ensure_ascii=draw(st.booleans()), indent=draw(st.sampled_from([None, 0, 2])),
                 separators=(item, colon))
    body = item.join(json.dumps(k) + colon + json.dumps(v, **dumps) for k, v in pairs)
    return (ws + "{" + ws + body + ws + "}" + ws).encode()


MUTATIONS = ["none", "truncate", "not-utf8", "bom", "trailing", "repeat"]


@st.composite
def mutated(draw, key) -> bytes:
    """A document, maybe truncated, with bytes that are not UTF-8, a BOM,
    trailing data, or one more value for `key` put first; at times with
    two of these, so that faults compete."""
    content = draw(documents(key))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)):
        content = draw(mutation(content, key, kind))
    return content


@st.composite
def mutation(draw, content, key, kind) -> bytes:
    if kind == "truncate":
        content = content[: draw(st.integers(0, len(content)))]
    elif kind == "not-utf8":
        at = draw(st.integers(0, len(content)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe4\xb8", b"\xed\xa0\x80", b"\xc0\xaf"]))
        content = content[:at] + bad + content[at:]
    elif kind == "bom":
        content = b"\xef\xbb\xbf" + content
    elif kind == "trailing":
        # ".5" and "e5" would extend a number that ended the document.
        content += draw(st.sampled_from([b" x", b"{}", b"\n1", b",", b"\xff", b".5", b"e5"]))
    elif kind == "repeat":
        value = json.dumps(draw(st.lists(RECORDS[key], max_size=3) | JSON)).encode()
        content = content.replace(b"{", b'{"%s": %s, ' % (key.encode(), value), 1)
    return content


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("stream")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(ADD)), chunk=st.integers(1, 9))
def test_streamed_reader_matches_json_load(work, data, key, chunk):
    path = work / f"{key}.json"
    path.write_bytes(data.draw(mutated(key)))
    want = outcome(json_load_records, path, key)
    assert outcome(corpus._read_records, path, key, chunk) == want
    assert outcome(corpus._read_records, path, key) == want


#: Every kind of token, with strings holding escapes and multi-byte UTF-8,
#: numbers that a cut could shorten, and long whitespace runs.
TOKENS = """{
  "info": {"zero": -0.0, "big": 123456789012345678901234567890, "exp": 1.5e+300,
           "small": 2E-3, "flags": [true, false, null, NaN, -Infinity],
           "escapes": "tab\\t quote\\" back\\\\ slash\\/ e\\u00e9 pair\\ud83d\\ude00"},
  "questions"     :
        [
     {"question_id": 12345, "image_id": -7, "question": "café — 中文 \U0001f600 \\"q\\""},
\t\t\r\n  {"image_id": 9000000000000000000, "question": "x\\u0041\\n", "question_id": 7}   ,
     {"question_id": 1e0, "image_id": 0, "question": ""}
        ]   ,  "license": "\U0001f600\U0001f600"
}
"""


@pytest.mark.parametrize("text", [
    TOKENS,
    TOKENS.replace("1e0", "8"),
    "\ufeff" + TOKENS,
    # json 3.13 words a trailing comma itself, at the comma's position.
    TOKENS.replace('"question": ""}', '"question": ""} ,\n\t '),
    TOKENS.replace('"\U0001f600\U0001f600"', '"\U0001f600\U0001f600",\r\n\n  '),
    # Text right after a value that would extend a number ending there.
    TOKENS.rstrip() + ".5",
    TOKENS.rstrip() + "e5",
    TOKENS.replace('"\U0001f600\U0001f600"', "1.5.5"),
    TOKENS.replace('\\"q\\""}', '\\"q\\""}.5'),
], ids=["float-id", "valid", "bom", "array-trailing-comma", "object-trailing-comma",
        "fraction-after-document", "exponent-after-document", "after-member", "after-record"])
def test_chunk_boundaries_inside_any_token(tmp_path, text):
    path = tmp_path / "questions.json"
    path.write_bytes(text.encode())
    whole = outcome(corpus._read_records, path, "questions", chunk=1 << 20)
    assert whole == outcome(json_load_records, path, "questions")
    for chunk in range(1, 17):
        assert outcome(corpus._read_records, path, "questions", chunk) == whole, chunk


def test_chunked_load_gives_the_same_corpus(tmp_path):
    q_path, a_path = tmp_path / "q.json", tmp_path / "a.json"
    q_path.write_bytes(TOKENS.replace("1e0", "8").encode())
    a_path.write_text(json.dumps({"annotations": [
        {"question_id": qid, "answer_type": "other",
         "answers": [{"answer": f"é {qid % (j + 1)}"} for j in range(4)]}
        for qid in (12345, 7, 8)
    ]}, ensure_ascii=False, indent=1))
    whole = load_corpus(q_path, a_path, format="vqa_v1_json")
    assert whole.ids.tolist() == [7, 8, 12345]
    for chunk in (1, 2, 3, 5):
        with mock.patch.object(corpus, "_CHUNK_BYTES", chunk):
            assert load_corpus(q_path, a_path, format="vqa_v1_json") == whole


def test_repeated_key_keeps_its_last_value(tmp_path):
    path = tmp_path / "questions.json"
    record = {"question_id": 1, "image_id": 2, "question": "what"}
    # The first array's bad record is not reported: the last array replaces it.
    path.write_text(json.dumps({"questions": [{"question_id": "x"}]})[:-1]
                    + ', "questions": ' + json.dumps([record]) + "}")
    assert outcome(corpus._read_records, path, "questions", chunk=4)[:3] == (
        [1], [2], ["what"])
    path.write_text('{"questions": [], "questions": 5}')
    with pytest.raises(ParseError, match="expected key 'questions' of type list, got 5"):
        corpus._read_records(path, "questions", ADD["questions"])


def test_json_errors_go_before_an_earlier_bad_record(tmp_path):
    path = tmp_path / "questions.json"
    text = '{"questions": [{"question_id": "x"}, {"question_id": 2}\n  , ]}'
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    assert "line 2 column" in str(want.value)
    with pytest.raises(ParseError) as got:
        corpus._read_records(path, "questions", ADD["questions"])
    assert str(got.value) == f"{path}: {want.value}"


def test_bytes_that_are_not_utf8_go_before_any_json_error(tmp_path):
    path = tmp_path / "questions.json"
    # A BOM, trailing data and a missing comma, each with a bad byte 40 bytes on.
    for text in (b"\xef\xbb\xbf{}", b"{} x", b'{"questions": [1 2]}'):
        path.write_bytes(text + b" " * 40 + b"\xff")
        want = outcome(json_load_records, path, "questions")
        assert "can't decode byte 0xff in position" in want[1]
        for chunk in (1, 4, 1 << 20):
            assert outcome(corpus._read_records, path, "questions", chunk) == want
