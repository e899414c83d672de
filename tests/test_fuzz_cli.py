"""Drive every CLI command in-process on tiny valid and broken inputs: each
run exits 0 or 2, never 3, and a run that exits 2 creates no output
directory.

The corpora, saliency CSVs and model files are written once per module.
Each example draws a command, its inputs and its flag values, among them
extreme integers that must be refused before any work is done, among
them --trees, --trials and --status-quo-seeds of 2**31 and more. Values of
those three flags that would be accepted are drawn small only, so no
example scales into real work. derandomize=True makes
every run draw the same examples. The draws need not pair a refused count
with otherwise valid inputs, so each refused value of those three flags
also runs once with the valid planted corpus and a trained model, under a
deadline: a count that escaped its bound would run there until stopped.
"""

import itertools
import json
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import make_planted_corpus, save_corpus_jsonl
from crowd_consensus.cli import main

from conftest import write_jsonl

N = 12  # questions in the planted corpus
HUGE = [str(2**63), str(2**64), "99999999999999999999"]

#: Each input's and flag's (accepted, refused) values; None leaves it out. An
#: accepted value may still fail with another, as R = 10 does with A = 2.
INPUTS = {
    "corpus": (
        ["planted", "vqa", "all-agree", "one-answer", "two-answers", "empty"],
        ["vqa-without-annotations", "jsonl-with-annotations", "uneven", "not-json", "missing"],
    ),
    "saliency": ([None, "good"], ["bad-sum", "bad-header", "missing"]),
    "model": (["q", "i", "i-without-saliency", "qi"], ["truncated", "version-1", "missing"]),
}
SEED = ([None, "0", "1", str(2**64 - 1)], ["-1", str(2**64), str(2**200)])
S = ([None, "1", "2"], ["0", "-1", *HUGE])
R = ([None, "5", "2", "10", "11", str(2**63 - 1)], ["1", "-1", *HUGE])
FLAGS = {
    "analyze": {"--m": ([None, "1", "2", "3", "10"], ["0", "-1", "11", *HUGE])},
    "train": {
        "--mode": ([None, "q", "i", "qi"], ["x"]),
        # Only 1 and 3 trees are accepted, so no example grows a large forest.
        "--trees": ([None, "1", "3"], ["0", "-1", "2", "4", str(2**31), str(2**31 + 1), *HUGE]),
        "--seed": SEED,
    },
    "predict": {},
    "eval": {},
    "allocate": {
        "--budget": (["0", "1", str(N)], [None, "-1", str(N + 1), *HUGE]),
        "--s": S,
        "--r": R,
    },
    "sweep": {
        "--budgets": ([None, "0", f"0,{N // 2},{N}", f"{N},0"], ["-1", str(N + 1), "1,x", "", *HUGE]),
        "--s": S,
        "--r": R,
        "--sim": ([None, "exact", "mc"], ["x"]),
        "--trials": ([None, "1", "2"], ["0", "-1", str(2**31), *HUGE]),
        "--status-quo-seeds": ([None, "1", "2"], ["0", "-1", str(2**31), *HUGE]),
        "--seed": SEED,
    },
}
USES = {"analyze": ["corpus"], "train": ["corpus", "saliency"]}


@st.composite
def runs(draw):
    """(command, {input or flag: value}) of one CLI run: all values accepted,
    or all but one, which is refused."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    parts = {name: INPUTS[name] for name in USES.get(command, INPUTS)}
    parts.update(FLAGS[command])
    broken = draw(st.sampled_from(sorted(parts))) if draw(st.booleans()) else None
    return command, {name: draw(st.sampled_from(v[name == broken])) for name, v in parts.items()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{input: {name: the argv words that pass it}}, and a fresh directory per run."""
    d = tmp_path_factory.mktemp("inputs")
    corpus = make_planted_corpus(N, seed=3)
    planted = d / "planted.jsonl"
    save_corpus_jsonl(corpus, planted)
    questions, annotations = d / "questions.json", d / "annotations.json"
    questions.write_text(json.dumps({"questions": [
        {"question_id": q.question_id, "image_id": q.image_id, "question": q.question_text}
        for q in corpus
    ]}))
    annotations.write_text(json.dumps({"annotations": [
        {"question_id": q.question_id, "answer_type": q.answer_type,
         "answers": [{"answer": a} for a in q.raw_answers]}
        for q in corpus
    ]}))

    def pools(name, *answer_lists):
        return write_jsonl(d / f"{name}.jsonl", [
            {"question_id": i, "image_id": i, "question": f"what is {i}", "answers": answers}
            for i, answers in enumerate(answer_lists)
        ])

    (d / "empty.jsonl").write_text("")
    (d / "not-json.jsonl").write_text("{not json\n")
    corpora = {
        "planted": ["--corpus", planted],
        "vqa": ["--corpus", questions, "--annotations", annotations, "--format", "vqa_v1_json"],
        "vqa-without-annotations": ["--corpus", questions, "--format", "vqa_v1_json"],
        "jsonl-with-annotations": ["--corpus", planted, "--annotations", annotations],
        "all-agree": ["--corpus", pools("all-agree", *[["yes"] * 10] * 4)],
        "one-answer": ["--corpus", pools("one-answer", ["yes"], ["no"], ["2"])],
        "two-answers": ["--corpus", pools("two-answers", ["yes", "no"], ["yes", "yes"])],
        "uneven": ["--corpus", pools("uneven", ["yes"] * 10, ["no"] * 9)],
        "empty": ["--corpus", d / "empty.jsonl"],
        "not-json": ["--corpus", d / "not-json.jsonl"],
        "missing": ["--corpus", d / "missing.jsonl"],
    }

    images = sorted({q.image_id for q in corpus})
    probabilities = np.random.default_rng(3).dirichlet(np.ones(5), size=len(images))
    header = "image_id,p0,p1,p2,p3,p4\n"
    rows = "".join(f"{i}," + ",".join(map(repr, p)) + "\n" for i, p in zip(images, probabilities.tolist()))
    (d / "good.csv").write_text(header + rows)
    (d / "bad-sum.csv").write_text(header + f"{images[0]},0.5,0.5,0.5,0.5,0.0\n")
    (d / "bad-header.csv").write_text("image,p0,p1,p2,p3,p4\n" + rows)
    saliency = {name: ["--image-features", d / f"{name}.csv"]
                for name in ("good", "bad-sum", "bad-header", "missing")}

    for name, mode, features in (
        ("q", "q", []), ("i", "i", saliency["good"]), ("i-without-saliency", "i", []),
        ("qi", "qi", saliency["good"]),
    ):
        argv = ["train", "--corpus", planted, "--mode", mode, "--trees", "3",
                "--model", d / f"{name}.json", "--out-dir", d / f"train-{name}", *features]
        assert main(list(map(str, argv))) == 0
    text = (d / "q.json").read_text()
    (d / "truncated.json").write_text(text[: len(text) // 2])
    (d / "version-1.json").write_text(text.replace('"version": 2', '"version": 1'))
    models = {name: ["--model", d / f"{name}.json"] for name in sum(INPUTS["model"], [])}
    words = {
        part: {name: list(map(str, argv)) for name, argv in by_name.items()}
        for part, by_name in (("corpus", corpora), ("saliency", saliency), ("model", models))
    }
    return words, (d / f"run{k}" for k in itertools.count())


@given(run=runs())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_every_command_exits_zero_or_two(inputs, run):
    words, out_dirs = inputs
    command, values = run
    out = next(out_dirs)
    argv = [command, "--out-dir", str(out)]
    for name, value in values.items():
        if value is not None:
            argv += words[name][value] if name in INPUTS else [name, value]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a missing or unknown flag value by exiting
        code = exc.code
    assert code in (0, 2), argv
    assert code == 0 or not out.exists(), argv


#: Each refused --trees, --trials and --status-quo-seeds value, with the command that reads it.
REFUSED_COUNTS = [
    (command, flag, value)
    for command, flag in [("train", "--trees"), ("sweep", "--trials"),
                          ("sweep", "--status-quo-seeds")]
    for value in FLAGS[command][flag][1]
]


@pytest.mark.parametrize("command, flag, value", REFUSED_COUNTS)
def test_a_refused_count_with_valid_inputs_exits_two_at_once(inputs, capsys, command, flag,
                                                             value):
    words, out_dirs = inputs
    out = next(out_dirs)
    argv = [command, "--out-dir", str(out), *words["corpus"]["planted"], flag, value]
    if command == "sweep":
        argv += words["model"]["q"] + ["--sim", "mc"] * (flag == "--trials")

    def expire(signum, frame):  # pytest.fail is a BaseException, which main does not catch
        pytest.fail(f"{argv} still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2, argv
    assert flag in capsys.readouterr().err
    assert not out.exists()
