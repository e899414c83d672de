import os
import subprocess
import sys
from pathlib import Path

from crowd_consensus import make_planted_corpus, save_corpus_jsonl
from crowd_consensus.synthetic import _answer_type_of

SRC = Path(__file__).resolve().parent.parent / "src"

_DUMP = """
import sys
from crowd_consensus import make_planted_corpus, save_corpus_jsonl
save_corpus_jsonl(make_planted_corpus(6000, seed=3), sys.argv[1])
"""


def test_planted_corpus_does_not_depend_on_the_hash_seed(tmp_path):
    # Tied modal answers once picked an answer type in string-hash order;
    # these two hash seeds gave different answer_type fields for this corpus.
    outputs = []
    for hash_seed in ("0", "3"):
        path = tmp_path / f"planted-{hash_seed}.jsonl"
        subprocess.run(
            [sys.executable, "-c", _DUMP, str(path)],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            check=True, timeout=120,
        )
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_answer_type_ties_break_by_first_occurrence():
    assert _answer_type_of(["amber", "yes"] * 5) == "other"
    assert _answer_type_of(["yes", "amber"] * 5) == "yes/no"
    assert _answer_type_of(["2", "amber", "amber", "2"]) == "number"


def test_planted_corpus_matches_the_golden_file(tmp_path):
    # The golden corpus is make_planted_corpus(40, seed=1); any drift in the
    # generator (or in numpy's streams) changes these bytes.
    path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(make_planted_corpus(40, seed=1), path)
    golden = Path(__file__).parent / "data" / "golden" / "corpus.jsonl"
    assert path.read_bytes() == golden.read_bytes()
