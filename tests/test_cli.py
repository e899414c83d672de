import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import numpy as np

from crowd_consensus import make_planted_corpus, save_corpus_jsonl, status_quo_ranking
from crowd_consensus.cli import _StatusQuoOrderings, main
from crowd_consensus.errors import CrowdConsensusError, InvalidArgument

from conftest import (
    reference_exact_capture,
    reference_mc,
    reference_truth_counts,
    scattered_ids,
    write_jsonl,
)


@pytest.fixture
def toy_corpus_path(tmp_path, mixed_corpus):
    path = tmp_path / "toy.jsonl"
    save_corpus_jsonl(mixed_corpus, path)
    return path


@pytest.fixture(scope="module")
def planted_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    save_corpus_jsonl(make_planted_corpus(300, seed=5), path)
    return path


GOLDEN_MODEL = Path(__file__).parent / "data" / "golden" / "model.json"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def train(planted_path, out_dir, **extra):
    args = ["train", "--corpus", str(planted_path), "--mode", "q",
            "--seed", "11", "--out-dir", str(out_dir)]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    return out_dir / "model.json"


def test_analyze_outputs(toy_corpus_path, tmp_path, mixed_corpus):
    out = tmp_path / "out"
    assert main(["analyze", "--corpus", str(toy_corpus_path), "--out-dir", str(out)]) == 0
    for m in (1, 2, 3):
        rows = read_csv(out / f"histogram_m{m}.csv")
        assert sum(int(r["count"]) for r in rows) == len(mixed_corpus)
        assert all(r["m"] == str(m) for r in rows)
    types = read_csv(out / "answer_types.csv")
    strata = [r["answer_type"] for r in types]
    assert "all" in strata
    assert (out / "run_config.json").exists()


def test_analyze_single_threshold(toy_corpus_path, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--corpus", str(toy_corpus_path), "--m", "2",
                 "--out-dir", str(out)]) == 0
    assert (out / "histogram_m2.csv").exists()
    assert not (out / "histogram_m1.csv").exists()


def _corpus_with_answers(tmp_path, answers):
    return write_jsonl(tmp_path / f"a{len(answers)}.jsonl", [
        {"question_id": i, "image_id": i, "question": f"what is {i}", "answers": answers}
        for i in range(3)
    ])


def test_analyze_bad_threshold_writes_no_histogram(tmp_path, capsys):
    # With two answers per question an explicit m = 3 is out of range.
    path = _corpus_with_answers(tmp_path, ["a", "b"])
    out = tmp_path / "out"
    assert main(["analyze", "--corpus", str(path), "--m", "3", "--out-dir", str(out)]) == 2
    assert "m must be in [1, 2], got 3" in capsys.readouterr().err
    assert list(out.glob("histogram_m*.csv")) == []


def test_analyze_defaults_to_the_thresholds_a_corpus_allows(tmp_path):
    out = tmp_path / "out"
    path = _corpus_with_answers(tmp_path, ["a", "b"])
    assert main(["analyze", "--corpus", str(path), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("histogram_m*.csv")) == [
        "histogram_m1.csv", "histogram_m2.csv"]
    assert read_csv(out / "histogram_m2.csv")[1] == {"m": "2", "k": "1", "count": "0"}


def test_analyze_without_answers_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    path = _corpus_with_answers(tmp_path, [])
    assert main(["analyze", "--corpus", str(path), "--out-dir", str(out)]) == 2
    assert "m must be in [1, 0], got 1" in capsys.readouterr().err
    assert not out.exists()  # no histogram, no rates, no directory


def test_missing_corpus_is_input_error(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert main(["analyze", "--corpus", str(missing), "--out-dir", str(tmp_path)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_internal_errors_exit_three(toy_corpus_path, tmp_path, monkeypatch, capsys):
    import crowd_consensus.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli_module, "diversity_histogram", boom)
    assert main(["analyze", "--corpus", str(toy_corpus_path),
                 "--out-dir", str(tmp_path)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_a_bare_value_error_is_internal(tmp_path, monkeypatch, capsys):
    # Only a CrowdConsensusError or an OSError blames the input; a ValueError
    # that a layer raises on its own is a fault of the program.
    import crowd_consensus.cli as cli_module

    evaluate = cli_module.stratified_eval

    def faulty(*args, **kwargs):
        evaluate(*args, **kwargs)
        raise ValueError("layer fault")

    monkeypatch.setattr(cli_module, "stratified_eval", faulty)
    out = tmp_path / "out"
    assert main(["eval", "--corpus", str(GOLDEN_MODEL.parent / "corpus.jsonl"),
                 "--model", str(GOLDEN_MODEL), "--out-dir", str(out)]) == 3
    assert "internal error: ValueError: layer fault" in capsys.readouterr().err
    assert not out.exists()


def test_a_refused_argument_is_a_toolkit_error_and_a_value_error():
    assert issubclass(InvalidArgument, CrowdConsensusError)
    assert issubclass(InvalidArgument, ValueError)


def test_question_word_that_utf8_cannot_store(tmp_path, capsys):
    # json reads "\ud800" as a lone surrogate, which model.json could not hold as a
    # vocabulary word; as a later word it is read and ignored by every command.
    path = tmp_path / "corpus.jsonl"
    save_corpus_jsonl(make_planted_corpus(12, seed=1), path)
    lines = path.read_text().splitlines()
    for words, code in (('"\\ud800 ', 2), ('"what is \\ud800 ', 0)):
        edited = lines[:3] + [lines[3].replace('"question": "', '"question": ' + words, 1)]
        path.write_text("\n".join(edited + lines[4:]) + "\n")
        out = tmp_path / f"out{code}"
        assert main(["train", "--corpus", str(path), "--mode", "q", "--trees", "1",
                     "--out-dir", str(out)]) == code
    assert "question word '\\ud800' is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()
    model = str(tmp_path / "out0" / "model.json")
    for argv in (["analyze"], ["predict", "--model", model], ["eval", "--model", model],
                 ["allocate", "--model", model, "--budget", "3"], ["sweep", "--model", model]):
        assert main([*argv, "--corpus", str(path), "--out-dir", str(tmp_path / "out0")]) == 0


def test_deleted_command_and_flags_exit_two(toy_corpus_path, tmp_path, capsys):
    out = tmp_path / "out"
    corpus = ["--corpus", str(toy_corpus_path), "--out-dir", str(out)]
    for argv, name in [
        (["vocab", *corpus], "vocab"),
        (["analyze", *corpus, "--skip-malformed"], "--skip-malformed"),
        (["sweep", *corpus, "--model", "model.json", "--plot-data"], "--plot-data"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert name in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_model_and_config(planted_path, tmp_path):
    out = tmp_path / "run"
    model_path = train(planted_path, out)
    doc = json.loads(model_path.read_text())
    assert doc["format"] == "crowd-consensus-forest"
    config = json.loads((out / "run_config.json").read_text())
    assert config["seed"] == 11
    assert config["command"] == "train"
    assert "layout" not in config
    with pytest.raises(SystemExit) as exc:  # the layout option is gone
        main(["train", "--corpus", str(planted_path), "--layout", "zeroed",
              "--out-dir", str(out)])
    assert exc.value.code == 2


def test_train_model_flag_creates_its_directory(planted_path, tmp_path):
    out = tmp_path / "run"
    model_path = tmp_path / "new" / "dir" / "m.json"
    train(planted_path, out, model=model_path)
    assert json.loads(model_path.read_text())["format"] == "crowd-consensus-forest"
    assert json.loads((out / "run_config.json").read_text())["model"] == str(model_path)
    assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_failed_command_creates_no_directory(planted_path, tmp_path, capsys, command):
    bad = tmp_path / "saliency.csv"
    bad.write_text("image_id,p0,p1,p2,p3,p4\n0,0.5,0.5,0,0,x\n")
    out = tmp_path / "new" / "run"
    argv = [command, "--corpus", str(planted_path), "--image-features", str(bad),
            "--out-dir", str(out)]
    if command == "eval":
        argv += ["--model", str(GOLDEN_MODEL)]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_train_rerun_is_byte_identical(planted_path, tmp_path):
    out = tmp_path / "run"
    model_path = train(planted_path, out)
    first = model_path.read_bytes(), (out / "run_config.json").read_bytes()
    model_path2 = train(planted_path, out)
    assert model_path2.read_bytes() == first[0]
    assert (out / "run_config.json").read_bytes() == first[1]


def test_train_empty_corpus(tmp_path, capsys):
    empty = write_jsonl(tmp_path / "empty.jsonl", [])
    assert main(["train", "--corpus", str(empty), "--out-dir", str(tmp_path)]) == 2
    assert "no questions" in capsys.readouterr().err


def test_question_without_tokens_is_named(planted_path, tmp_path, capsys):
    model = train(planted_path, tmp_path / "run")
    records = [{"question_id": qid, "image_id": qid, "question": text, "answers": ["a"] * 10}
               for qid, text in ((4, "what is it"), (5, "?!"))]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
    for argv in (["train"], ["eval", "--model", str(model)]):
        capsys.readouterr()
        assert main([*argv, "--corpus", str(corpus), "--out-dir", str(tmp_path / "out")]) == 2
        assert "question 5: question has no tokens: '?!'" in capsys.readouterr().err


def test_predict_and_allocate(planted_path, tmp_path, capsys):
    out = tmp_path / "run"
    model_path = train(planted_path, out)
    assert main(["predict", "--corpus", str(planted_path), "--model", str(model_path),
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "predictions.csv")
    assert len(rows) == 300
    assert all(0.0 <= float(r["p_disagreement"]) <= 1.0 for r in rows)
    assert {r["label"] for r in rows} == {"agreement", "disagreement"}
    for r in rows:
        assert (r["label"] == "disagreement") == (float(r["p_disagreement"]) > 0.5)

    assert main(["allocate", "--corpus", str(planted_path), "--model", str(model_path),
                 "--budget", "100", "--out-dir", str(out)]) == 0
    plan_rows = read_csv(out / "plan.csv")
    counts = [int(r["answer_count"]) for r in plan_rows]
    assert counts.count(5) == 100 and counts.count(1) == 200
    # The R-answer questions are exactly the highest-scored prefix.
    boosted = {r["question_id"] for r in plan_rows if r["answer_count"] == "5"}
    by_score = sorted(
        plan_rows, key=lambda r: (-float(r["p_disagreement"]), int(r["question_id"]))
    )
    assert {r["question_id"] for r in by_score[:100]} == boosted

    # An R past int64 once overflowed plan.counts (exit 3).
    assert main(["allocate", "--corpus", str(planted_path), "--model", str(model_path),
                 "--budget", "1", "--r", "9223372036854775809",
                 "--out-dir", str(tmp_path / "big-r")]) == 2
    assert "R < 2**63" in capsys.readouterr().err
    assert not (tmp_path / "big-r").exists()


def test_golden_plan_byte_for_byte(tmp_path):
    # Written by `allocate --budget 20` with the golden model on the golden
    # corpus of 40 questions, the inputs of the golden predictions.csv.
    golden = GOLDEN_MODEL.parent
    assert main(["allocate", "--corpus", str(golden / "corpus.jsonl"), "--model", str(GOLDEN_MODEL),
                 "--budget", "20", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "plan.csv").read_bytes() == (golden / "plan.csv").read_bytes()


def test_status_quo_orderings_are_counted_drawn_and_bounded():
    orderings = _StatusQuoOrderings(9, 4, 3)
    assert len(orderings) == 3
    assert list(orderings) == [status_quo_ranking(9, [4, k]) for k in range(3)]
    with pytest.raises(IndexError):
        orderings[3]
    with pytest.raises(IndexError):
        orderings[-1]


def test_golden_sweep_byte_for_byte(tmp_path):
    # Written by `sweep` with its defaults, the golden model and the golden corpus.
    golden = GOLDEN_MODEL.parent
    assert main(["sweep", "--corpus", str(golden / "corpus.jsonl"), "--model", str(GOLDEN_MODEL),
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (golden / "sweep.csv").read_bytes()


def test_golden_analysis_byte_for_byte(tmp_path):
    # Written by `analyze` with its defaults on the golden corpus.
    golden = GOLDEN_MODEL.parent
    assert main(["analyze", "--corpus", str(golden / "corpus.jsonl"), "--out-dir", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert written == ["answer_types.csv", "histogram_m1.csv", "histogram_m2.csv", "histogram_m3.csv"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_eval_reports_high_ap_on_planted_signal(planted_path, tmp_path):
    out = tmp_path / "run"
    model_path = train(planted_path, out)
    assert main(["eval", "--corpus", str(planted_path), "--model", str(model_path),
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ap_overall"] > 0.95
    assert set(report["n_by_type"]) <= {"yes/no", "number", "other", "unknown"}
    assert (out / "pr_overall.csv").exists()
    for stratum in report["ap_by_type"]:
        assert (out / f"pr_{stratum.replace('/', '_')}.csv").exists()


def test_eval_invariant_to_corpus_file_order(planted_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    model_path = train(planted_path, out1)

    records = [json.loads(line) for line in planted_path.read_text().splitlines()]
    shuffled = write_jsonl(tmp_path / "shuffled.jsonl", list(reversed(records)))
    assert main(["eval", "--corpus", str(planted_path), "--model", str(model_path),
                 "--out-dir", str(out1)]) == 0
    assert main(["eval", "--corpus", str(shuffled), "--model", str(model_path),
                 "--out-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "pr_overall.csv").read_bytes() == (out2 / "pr_overall.csv").read_bytes()


def test_sweep_outputs_and_boundaries(planted_path, tmp_path):
    out = tmp_path / "run"
    model_path = train(planted_path, out)
    assert main(["sweep", "--corpus", str(planted_path), "--model", str(model_path),
                 "--budgets", "0,150,300", "--status-quo-seeds", "3",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert {r["ranking"] for r in rows} == {"ours", "status_quo", "oracle"}
    assert len(rows) == 9
    for boundary in ("0", "300"):
        values = {r["diversity"] for r in rows if r["budget"] == boundary}
        assert len(values) == 1

    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep", "--corpus", str(planted_path), "--model", str(model_path),
                 "--budgets", "0,150,300", "--status-quo-seeds", "3",
                 "--out-dir", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_allocate_and_sweep_key_rows_by_question_id(tmp_path):
    corpus = scattered_ids(make_planted_corpus(120, seed=5), seed=2)
    ids = sorted(corpus.ids.tolist())
    path = tmp_path / "scattered.jsonl"
    save_corpus_jsonl(corpus, path)
    out = tmp_path / "run"
    model = str(train(path, out))
    common = ["--corpus", str(path), "--model", model]
    assert main(["predict", *common, "--out-dir", str(out)]) == 0
    p = {int(r["question_id"]): float(r["p_disagreement"])
         for r in read_csv(out / "predictions.csv")}
    assert main(["allocate", *common, "--budget", "40", "--out-dir", str(out)]) == 0
    plan = read_csv(out / "plan.csv")
    assert [int(r["question_id"]) for r in plan] == ids
    assert all(float(r["p_disagreement"]) == p[int(r["question_id"])] for r in plan)
    ours = sorted(ids, key=lambda qid: (-p[qid], qid))
    assert {int(r["question_id"]) for r in plan if r["answer_count"] == "5"} == set(ours[:40])

    truth = reference_truth_counts(corpus)
    rankings = {
        "ours": [ours],
        "oracle": [sorted(ids, key=lambda qid: (-truth[qid], qid))],
        "status_quo": [
            [ids[i] for i in np.random.default_rng([3, k]).permutation(len(ids))]
            for k in range(2)
        ],
    }
    for sim in ("exact", "mc"):
        assert main(["sweep", *common, "--budgets", "0,40,120", "--status-quo-seeds", "2",
                     "--seed", "3", "--sim", sim, "--trials", "20",
                     "--out-dir", str(out / sim)]) == 0
        rows = read_csv(out / sim / "sweep.csv")
        assert len(rows) == 9
        for row in rows:
            budget = int(row["budget"])
            want = []
            for ranking in rankings[row["ranking"]]:
                sizes = {qid: 5 if pos < budget else 1 for pos, qid in enumerate(ranking)}
                if sim == "exact":
                    want.append(reference_exact_capture(corpus, sizes))
                else:
                    want.append(reference_mc(corpus, sizes, trials=20, seed=3))
            got = float(row["diversity"])
            if sim == "exact":
                assert got == float(sum(want) / len(want)), row
            else:
                assert got == pytest.approx(sum(want) / len(want), abs=1e-12), row


def test_sweep_budgets_default_to_eleven_rounded_steps(tmp_path):
    path = tmp_path / "planted15.jsonl"
    save_corpus_jsonl(make_planted_corpus(15, seed=5), path)
    out = tmp_path / "run"
    model_path = train(path, out)
    assert main(["sweep", "--corpus", str(path), "--model", str(model_path),
                 "--out-dir", str(out)]) == 0
    # round(15 * i / 10) rounds halves to even: 1.5 -> 2, 4.5 -> 4.
    budgets = [0, 2, 3, 4, 6, 8, 9, 10, 12, 14, 15]
    assert json.loads((out / "run_config.json").read_text())["budgets"] == budgets
    rows = read_csv(out / "sweep.csv")
    assert [int(r["budget"]) for r in rows] == budgets * 3


def test_sweep_on_an_empty_corpus_writes_budget_zero_rows(tmp_path):
    empty = write_jsonl(tmp_path / "empty.jsonl", [])
    out = tmp_path / "run"
    assert main(["sweep", "--corpus", str(empty), "--model", str(GOLDEN_MODEL),
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [(r["ranking"], r["budget"], r["diversity"]) for r in rows] == [
        ("ours", "0", "0.0"), ("status_quo", "0", "0.0"), ("oracle", "0", "0.0"),
    ]


def test_sweep_needs_a_status_quo_ordering(planted_path, tmp_path, capsys):
    model_path = train(planted_path, tmp_path / "run")
    assert main(["sweep", "--corpus", str(planted_path), "--model", str(model_path),
                 "--status-quo-seeds", "0", "--out-dir", str(tmp_path / "run")]) == 2
    assert "--status-quo-seeds" in capsys.readouterr().err


def test_sweep_rejects_monte_carlo_without_trials_before_loading(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["sweep", "--corpus", str(missing / "c.jsonl"), "--model",
                 str(missing / "model.json"), "--sim", "mc", "--trials", "0",
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "--trials" in capsys.readouterr().err


def test_sweep_monte_carlo_mode(planted_path, tmp_path):
    out = tmp_path / "run"
    model_path = train(planted_path, out)
    assert main(["sweep", "--corpus", str(planted_path), "--model", str(model_path),
                 "--budgets", "150", "--sim", "mc", "--trials", "50",
                 "--seed", "9", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3


def test_train_and_eval_with_image_features(planted_path, tmp_path):
    features_path = tmp_path / "saliency.csv"
    lines = ["image_id,p0,p1,p2,p3,p4"]
    lines += [f"{i},0.6,0.1,0.1,0.1,0.1" for i in range(0, 300, 2)]
    features_path.write_text("\n".join(lines) + "\n")

    out = tmp_path / "run"
    model_path = train(planted_path, out, mode="qi",
                       **{"image-features": features_path})
    assert main(["eval", "--corpus", str(planted_path), "--model", str(model_path),
                 "--image-features", str(features_path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ap_overall"] > 0.9


def test_model_without_vocab_is_input_error(planted_path, tmp_path, capsys):
    import numpy as np

    from crowd_consensus import FeatureMatrix, ForestConfig, save_model, train_forest

    X = np.random.default_rng(0).normal(size=(20, 3))
    model = train_forest(FeatureMatrix.from_dense(X), X[:, 0] > 0, ForestConfig(seed=1))
    bare = tmp_path / "bare.json"
    save_model(model, bare)
    assert main(["predict", "--corpus", str(planted_path), "--model", str(bare),
                 "--out-dir", str(tmp_path)]) == 2
    assert "vocabularies" in capsys.readouterr().err


def test_seed_env_var_default(planted_path, tmp_path, monkeypatch):
    """The seed defaults to 0 whatever $CROWD_CONSENSUS_SEED says."""
    argv = ["train", "--corpus", str(planted_path), "--mode", "q", "--trees", "3"]
    outputs = []
    for env in (None, "77"):
        if env is None:
            monkeypatch.delenv("CROWD_CONSENSUS_SEED", raising=False)
        else:
            monkeypatch.setenv("CROWD_CONSENSUS_SEED", env)
        out = tmp_path / f"env-{env}"
        assert main(argv + ["--out-dir", str(out)]) == 0
        assert json.loads((out / "run_config.json").read_text())["seed"] == 0
        outputs.append((out / "model.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("flags,env", [
    (["--seed", "-3"], None),
    (["--seed", str(2**64)], None),
    ({"train": ["--trees", "4"], "sweep": ["--budgets", "x"]}, None),
    # Such --trees values once raised OverflowError (exit 3) or grew 2**63 trees.
    ({"train": ["--trees", "99999999999999999999"], "sweep": ["--status-quo-seeds", "0"]}, None),
    ({"train": ["--trees", "9223372036854775809"], "sweep": ["--trials", "0", "--sim", "mc"]},
     None),
    # Such --status-quo-seeds and --trials values once ran until stopped.
    ({"train": ["--trees", str(2**31)], "sweep": ["--status-quo-seeds", "99999999999999999999"]},
     None),
    ({"train": ["--trees", "0"], "sweep": ["--trials", "99999999999999999999", "--sim", "mc"]},
     None),
    ([], "abc"),
    ([], "-1"),
    ([], str(2**64)),
], ids=["flag-negative", "flag-too-large", "trees-or-budgets", "trees-past-int64",
        "trees-past-2**63", "trees-or-status-quo-seeds-huge", "trees-or-trials-huge",
        "env-not-an-integer", "env-negative", "env-too-large"])
def test_seed_is_checked_before_loading(tmp_path, monkeypatch, capsys, command, flags, env):
    if isinstance(flags, dict):
        flags = flags[command]
    if env is None:
        monkeypatch.delenv("CROWD_CONSENSUS_SEED", raising=False)
    else:
        monkeypatch.setenv("CROWD_CONSENSUS_SEED", env)
    missing = tmp_path / "missing"
    argv = [command, "--corpus", str(missing / "c.jsonl"), "--out-dir", str(tmp_path / "run")]
    if command == "sweep":
        argv += ["--model", str(missing / "model.json")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    if flags:
        # Missing input files: only a check made before loading can name the flag.
        assert flags[0] in err and "missing" not in err, err
    else:
        # The variable is ignored, so a bad value lets the run go on to the missing files.
        assert "missing" in err and "SEED" not in err, err


INTEGER_FLAGS = [
    ("analyze", "--m"),
    ("train", "--trees"),
    ("train", "--seed"),
    ("allocate", "--budget"),
    ("allocate", "--s"),
    ("allocate", "--r"),
    ("sweep", "--s"),
    ("sweep", "--r"),
    ("sweep", "--trials"),
    ("sweep", "--status-quo-seeds"),
    ("sweep", "--seed"),
    ("sweep", "--budgets"),
]


@pytest.mark.parametrize("value", ["1_0", "٣", " 3"], ids=["underscore", "arabic-indic", "space"])
@pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
def test_integer_flags_take_only_ascii_digits(tmp_path, capsys, command, flag, value):
    # int() reads all three values; each flag refuses them before any file is read.
    missing = tmp_path / "missing"
    argv = [command, "--corpus", str(missing / "c.jsonl"), "--out-dir", str(tmp_path / "run"),
            flag, f"0,{value}" if flag == "--budgets" else value]
    if command in ("allocate", "sweep"):
        argv += ["--model", str(missing / "model.json")]
    if command == "allocate" and flag != "--budget":
        argv += ["--budget", "1"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value by exiting
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(re.escape(flag) + "[: ]", err) and "missing" not in err, err
    assert not (tmp_path / "run").exists()


def test_module_entry_point_reports_missing_corpus(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "crowd_consensus.cli", "analyze",
         "--corpus", str(tmp_path / "missing.jsonl"), "--out-dir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "missing.jsonl" in result.stderr


def test_each_raw_answer_is_normalized_once_per_command(planted_path, tmp_path, monkeypatch):
    import crowd_consensus.answers as answers_module

    out = tmp_path / "run"
    model_path = train(planted_path, out)
    lines = planted_path.read_text().splitlines()
    distinct = {ans for line in lines for ans in json.loads(line)["answers"]}
    calls = Counter()
    original = answers_module.normalize_answer

    def counting(raw):
        calls[raw] += 1
        return original(raw)

    monkeypatch.setattr(answers_module, "normalize_answer", counting)
    for argv in (["analyze"], ["sweep", "--model", str(model_path), "--budgets", "0,150,300"]):
        calls.clear()
        assert main(argv + ["--corpus", str(planted_path), "--out-dir", str(out)]) == 0
        assert set(calls) <= distinct
        assert max(calls.values()) == 1, argv


def test_failed_write_keeps_previous_output(tmp_path, planted_path, monkeypatch):
    import crowd_consensus.cli as cli_module

    target = tmp_path / "report.json"
    target.write_text("previous\n")

    def write_half(tmp):
        tmp.write_text('{"ap_overall": 0.')
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli_module._atomic_write(target, write_half)
    assert target.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    # The same through a command: train fails while writing model.json.
    out = tmp_path / "run"
    model = train(planted_path, out)
    before = model.read_bytes()

    def save_half(model, path):
        Path(path).write_text("{")
        raise OSError("disk full")

    monkeypatch.setattr(cli_module, "save_model", save_half)
    assert main(["train", "--corpus", str(planted_path), "--mode", "q", "--seed", "12",
                 "--out-dir", str(out)]) == 2
    assert model.read_bytes() == before
    assert not list(out.glob("*.tmp"))


def _outputs(out):
    """Each file in out: (inode, mtime in ns, bytes)."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes()) for p in out.iterdir()}


def test_rerun_leaves_identical_outputs_in_place(planted_path, tmp_path):
    out = tmp_path / "run"
    model = str(out / "model.json")
    for argv in (["analyze"], ["train", "--mode", "q", "--trees", "3"], ["eval", "--model", model],
                 ["sweep", "--model", model, "--budgets", "0,150,300"]):
        argv = [*argv, "--corpus", str(planted_path), "--out-dir", str(out)]
        assert main(argv) == 0
        before = _outputs(out)
        assert main(argv) == 0
        assert _outputs(out) == before, argv[0]
        assert not list(out.glob("*.tmp"))

    # Other bytes replace the file: a new inode.
    inode = os.stat(model).st_ino
    old = Path(model).read_bytes()
    assert main(["train", "--corpus", str(planted_path), "--mode", "q", "--trees", "3",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    assert os.stat(model).st_ino != inode and Path(model).read_bytes() != old


def test_only_the_same_bytes_in_a_regular_file_are_kept(tmp_path):
    import crowd_consensus.cli as cli_module

    data = bytes(range(256)) * 80  # 20,480 bytes: three 8 KiB reads
    target = tmp_path / "out.bin"
    target.write_bytes(data)
    inode = target.stat().st_ino
    cli_module._atomic_write(target, lambda tmp: tmp.write_bytes(data))
    assert target.stat().st_ino == inode
    # The same size, differing only in the last byte.
    changed = data[:-1] + b"\x00"
    cli_module._atomic_write(target, lambda tmp: tmp.write_bytes(changed))
    assert target.read_bytes() == changed and target.stat().st_ino != inode

    # A symlink to a file with the same bytes becomes a regular file; its target
    # stays. The link's own size, len("real.bin"), is the size of the bytes too.
    real = tmp_path / "real.bin"
    real.write_bytes(b"8 bytes.")
    link = tmp_path / "link.bin"
    link.symlink_to("real.bin")
    assert os.lstat(link).st_size == 8
    cli_module._atomic_write(link, lambda tmp: tmp.write_bytes(b"8 bytes."))
    assert not link.is_symlink() and link.read_bytes() == b"8 bytes."
    assert os.stat(link).st_ino != os.stat(real).st_ino and real.read_bytes() == b"8 bytes."
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "out.bin", "real.bin"]


def test_a_failed_comparison_replaces_the_file(tmp_path, monkeypatch):
    import crowd_consensus.cli as cli_module

    target = tmp_path / "report.json"
    target.write_text("same\n")
    inode = target.stat().st_ino

    def unreadable(fd, n):
        raise OSError(5, "Input/output error")

    with monkeypatch.context() as patch:
        patch.setattr(cli_module.os, "read", unreadable)
        cli_module._atomic_write(target, lambda tmp: tmp.write_text("same\n"))
    assert target.read_text() == "same\n" and target.stat().st_ino != inode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_a_directory_at_an_output_path_exits_two(planted_path, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "answer_types.csv").mkdir(parents=True)
    assert main(["analyze", "--corpus", str(planted_path), "--out-dir", str(out)]) == 2
    assert "answer_types.csv" in capsys.readouterr().err
    assert (out / "answer_types.csv").is_dir()
    assert not list(out.glob("*.tmp"))
