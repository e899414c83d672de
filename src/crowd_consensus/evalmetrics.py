"""Precision-recall curves, average precision, and stratified reports.

Disagreement is the positive class throughout: labels are bools, read by
answers.disagreement_mask, and True is disagreement. Precision
guards against wasting redundant answer collection, recall against
missing questions that genuinely elicit diverse answers. Items sharing
a score enter the ranking as one threshold group, which makes every
metric independent of input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .answers import disagreement_mask, rows_by_stratum
from .errors import LengthMismatch, NoPositives


class PrPoint(NamedTuple):
    recall: float
    precision: float
    threshold: float


@dataclass(frozen=True)
class EvalReport:
    ap_overall: float
    ap_by_type: Mapping[str, float]
    n_by_type: Mapping[str, int]
    curve_overall: tuple[PrPoint, ...]
    #: The PR curve of each stratum in ap_by_type.
    curve_by_type: Mapping[str, tuple[PrPoint, ...]]


def _grouped_counts(scores, labels):
    """Per threshold group (descending score): threshold, cum TP, cum predicted."""
    pos = disagreement_mask(labels)
    if len(scores) != len(pos):
        raise LengthMismatch(f"{len(scores)} scores vs {len(pos)} labels")
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise NoPositives("no disagreement-labeled items to rank")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores hold NaN or infinite values")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    cum_tp = np.cumsum(pos[order])
    # Last index of each tie group = positions where the score changes.
    last = np.nonzero(np.append(sorted_scores[:-1] != sorted_scores[1:], True))[0]
    return sorted_scores[last], cum_tp[last], last + 1, n_pos


def _curve(thresholds, tp, predicted, n_pos) -> tuple[PrPoint, ...]:
    """The PR curve of _grouped_counts' groups; the last group ends at the last item."""
    return tuple(
        PrPoint(recall=t / n_pos, precision=t / p, threshold=float(thr))
        for thr, t, p in zip(thresholds, tp, predicted)
    )


def _average_precision(tp, predicted, n_pos) -> float:
    """average_precision from _grouped_counts' cumulative counts."""
    pos_in_group = np.diff(tp, prepend=0)
    return float(np.sum((tp / predicted) * pos_in_group) / n_pos)


def pr_curve(scores: Sequence[float], labels) -> tuple[PrPoint, ...]:
    """Precision/recall at every distinct score threshold, descending."""
    return _curve(*_grouped_counts(scores, labels))


def average_precision(scores: Sequence[float], labels) -> float:
    """Mean precision over positives, each taken at its tie group (non-interpolated)."""
    _, tp, predicted, n_pos = _grouped_counts(scores, labels)
    return _average_precision(tp, predicted, n_pos)


def stratified_eval(
    scores: Sequence[float],
    labels,
    answer_types: Sequence[str | None],
) -> EvalReport:
    """Overall and per-answer-type average precision and PR curves.

    Untyped items form an "unknown" stratum; when nothing is typed at all
    only the overall numbers are reported. Strata without a positive item
    are left out of ap_by_type and curve_by_type rather than scored zero.
    Each curve and its AP come from one sort of the stratum's scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = disagreement_mask(labels)
    if not (len(scores) == len(labels) == len(answer_types)):
        raise LengthMismatch(
            f"{len(scores)} scores vs {len(labels)} labels vs "
            f"{len(answer_types)} answer types"
        )

    def evaluate(rows) -> tuple[float, tuple[PrPoint, ...]]:
        thresholds, tp, predicted, n_pos = _grouped_counts(scores[rows], labels[rows])
        return _average_precision(tp, predicted, n_pos), _curve(thresholds, tp, predicted, n_pos)

    ap_overall, curve_overall = evaluate(slice(None))
    ap_by_type: dict[str, float] = {}
    n_by_type: dict[str, int] = {}
    curve_by_type: dict[str, tuple[PrPoint, ...]] = {}
    if any(t is not None for t in answer_types):
        for stratum, rows in rows_by_stratum(answer_types).items():
            n_by_type[stratum] = len(rows)
            if labels[rows].any():
                ap_by_type[stratum], curve_by_type[stratum] = evaluate(rows)
    return EvalReport(ap_overall, ap_by_type, n_by_type, curve_overall, curve_by_type)
