import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import evalmetrics, stratified_eval
from crowd_consensus.answers import disagreement_mask
from crowd_consensus.cli import main
from crowd_consensus.errors import LengthMismatch, NoPositives

A, D = False, True


def average_precision(scores, labels):
    """AP of one untyped ranking."""
    return stratified_eval(scores, labels, [None] * len(scores)).ap_overall


def pr_curve(scores, labels):
    """PR curve of one untyped ranking."""
    return stratified_eval(scores, labels, [None] * len(scores)).curve_overall


def reference_average_precision(scores, labels):
    """Independent ranked scan: precision at each positive, ties grouped."""
    positives = [i for i, label in enumerate(labels) if label is D]
    total = 0.0
    for i in positives:
        n_at_or_above = sum(1 for s in scores if s >= scores[i])
        tp_at_or_above = sum(1 for j in positives if scores[j] >= scores[i])
        total += tp_at_or_above / n_at_or_above
    return total / len(positives)


def test_pr_curve_hand_enumeration():
    curve = pr_curve([0.9, 0.8, 0.7], [D, A, D])
    expected = [(0.5, 1.0, 0.9), (0.5, 0.5, 0.8), (1.0, 2 / 3, 0.7)]
    assert [tuple(pt) for pt in curve] == pytest.approx(expected)


def test_pr_curve_perfect_ranking_reaches_top_right():
    curve = pr_curve([0.9, 0.8, 0.2, 0.1], [D, D, A, A])
    assert (1.0, 1.0) in {(pt.recall, pt.precision) for pt in curve}


def test_pr_curve_all_positive():
    curve = pr_curve([0.3, 0.2, 0.1], [D, D, D])
    assert all(pt.precision == 1.0 for pt in curve)


def test_pr_curve_recall_non_decreasing():
    rng = np.random.default_rng(5)
    scores = rng.choice([0.1, 0.3, 0.5, 0.9], size=40)
    labels = [D if v else A for v in rng.random(40) < 0.4]
    recalls = [pt.recall for pt in pr_curve(scores, labels)]
    assert recalls == sorted(recalls)


def test_pr_errors():
    with pytest.raises(NoPositives):
        pr_curve([0.5, 0.4], [A, A])
    with pytest.raises(LengthMismatch):
        pr_curve([0.5], [A, D])
    with pytest.raises(NoPositives):
        average_precision([], [])
    with pytest.raises(NoPositives):
        pr_curve([], np.array([], dtype=bool))
    # Labels of another kind are refused, not read by truthiness.
    for labels in (["agreement", "disagreement"], [0.0, 1.0], [0, 2], [[0, 1]]):
        for types in ([None] * 2, ["other", "other"]):
            with pytest.raises(ValueError, match="labels"):
                stratified_eval([0.9, 0.1], labels, types)
    # A NaN score was once ranked: stratified_eval([nan, 0.5, 1.0], [D, A, D], ...) gave AP 0.8333.
    for bad in (math.nan, math.inf, -math.inf):
        scores, labels = [bad, 0.5, 1.0], [D, A, D]
        for types in ([None] * 3, ["yes/no", "other", "other"]):
            with pytest.raises(ValueError, match="NaN or infinite"):
                stratified_eval(scores, labels, types)


def test_inputs_are_checked_once_in_order(monkeypatch):
    # Bad labels go before a length mismatch, which goes before no positives,
    # which goes before a NaN score.
    with pytest.raises(ValueError, match="labels must be bools"):
        stratified_eval([math.nan], [0, 1], ["other"])
    with pytest.raises(LengthMismatch):
        stratified_eval([math.nan], [A, A], ["other"])
    with pytest.raises(NoPositives):
        stratified_eval([math.nan, 0.5], [A, A], ["other", "number"])
    # The labels are read once per call, not again for each stratum.
    reads = []
    monkeypatch.setattr(evalmetrics, "disagreement_mask",
                        lambda y: reads.append(y) or disagreement_mask(y))
    report = stratified_eval([0.9, 0.5, 0.1], [D, A, D], ["yes/no", "number", "other"])
    assert len(reads) == 1 and set(report.ap_by_type) == {"yes/no", "other"}


def test_label_forms_give_identical_metrics():
    rng = np.random.default_rng(21)
    scores = rng.choice([0.1, 0.4, 0.6, 0.9], size=60).tolist()
    as_bool = rng.random(60) < 0.4
    types = rng.choice(["yes/no", "number", "other"], size=60).tolist()
    forms = ([D if v else A for v in as_bool], as_bool)
    results = [(stratified_eval(scores, y, [None] * 60), stratified_eval(scores, y, types))
               for y in forms]
    assert results[0] == results[1]


def test_average_precision_hand_computation():
    assert average_precision([0.9, 0.8, 0.7], [D, A, D]) == pytest.approx((1 + 2 / 3) / 2)


def test_average_precision_perfect_ranking():
    assert average_precision([0.9, 0.8, 0.2], [D, D, A]) == 1.0


def test_average_precision_random_scores_near_positive_rate():
    rng = np.random.default_rng(99)
    n = 4000
    labels = [D] * (n // 2) + [A] * (n // 2)
    scores = rng.random(n)
    # Monte Carlo: AP for random scores concentrates on the positive rate.
    assert average_precision(scores, labels) == pytest.approx(0.5, abs=0.05)


def test_average_precision_matches_reference_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.9], size=n).tolist()
        labels = [D if v else A for v in rng.random(n) < 0.5]
        if D not in labels:
            labels[int(rng.integers(n))] = D
        assert average_precision(scores, labels) == pytest.approx(
            reference_average_precision(scores, labels), abs=1e-12
        )


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    scores = rng.choice([0.2, 0.5, 0.8], size=30).tolist()
    labels = [D if v else A for v in rng.random(30) < 0.5]
    types = rng.choice(["yes/no", "number", "other"], size=30).tolist()
    perm = rng.permutation(30)
    shuffled = ([scores[i] for i in perm], [labels[i] for i in perm],
                [types[i] for i in perm])
    assert average_precision(scores, labels) == average_precision(*shuffled[:2])
    assert pr_curve(scores, labels) == pr_curve(*shuffled[:2])
    assert stratified_eval(scores, labels, types) == stratified_eval(*shuffled)


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.booleans()),
        min_size=1,
        max_size=25,
    ).filter(lambda items: any(is_pos for _, is_pos in items))
)
@settings(max_examples=200, deadline=None)
def test_average_precision_bounds_and_separation(items):
    scores = [s for s, _ in items]
    labels = [D if is_pos else A for _, is_pos in items]
    ap = average_precision(scores, labels)
    assert 0.0 <= ap <= 1.0
    negatives = [s for s, label in zip(scores, labels) if label is A]
    separated = not negatives or min(
        s for s, label in zip(scores, labels) if label is D
    ) > max(negatives)
    assert (ap == 1.0) == separated


def test_stratified_eval_composition():
    scores = [0.9, 0.8, 0.7] * 2
    labels = [D, A, D] * 2
    types = ["yes/no"] * 3 + ["other"] * 3
    report = stratified_eval(scores, labels, types)
    assert report.ap_by_type["yes/no"] == pytest.approx((1 + 2 / 3) / 2)
    assert report.ap_by_type["other"] == pytest.approx((1 + 2 / 3) / 2)
    assert report.n_by_type == {"yes/no": 3, "other": 3}


def test_stratified_eval_skips_positive_free_strata():
    scores = [0.9, 0.1, 0.5]
    labels = [D, A, A]
    types = ["yes/no", "yes/no", "number"]
    report = stratified_eval(scores, labels, types)
    assert "number" not in report.ap_by_type
    assert report.n_by_type["number"] == 1


def test_stratified_eval_untyped_items():
    report = stratified_eval([0.9, 0.2], [D, A], [None, None])
    assert report.ap_by_type == {}
    assert report.n_by_type == {}
    assert report.ap_overall == 1.0

    mixed = stratified_eval([0.9, 0.2], [D, D], ["yes/no", None])
    assert set(mixed.ap_by_type) == {"yes/no", "unknown"}


def test_stratified_eval_length_check():
    with pytest.raises(LengthMismatch):
        stratified_eval([0.5], [D], ["yes/no", "other"])


GOLDEN = Path(__file__).parent / "data" / "golden"


def test_golden_pr_curves_byte_for_byte(tmp_path):
    # Written by `eval` with the golden model on the golden corpus. report.json is
    # not pinned: its AP goes through np.sum, which can differ by an ulp between
    # numpy versions.
    assert main(["eval", "--corpus", str(GOLDEN / "corpus.jsonl"),
                 "--model", str(GOLDEN / "model.json"), "--out-dir", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.glob("pr_*.csv"))
    assert written == ["pr_other.csv", "pr_overall.csv", "pr_yes_no.csv"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
