"""Precision-recall curves, average precision, and stratified reports.

Disagreement is the positive class throughout; labels are read by
answers.disagreement_mask, so True or 1 is disagreement. Precision
guards against wasting redundant answer collection, recall against
missing questions that genuinely elicit diverse answers. Items sharing
a score enter the ranking as one threshold group, which makes every
metric independent of input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .answers import disagreement_mask
from .corpus import rows_by_stratum
from .errors import LengthMismatch, NoPositives


class PrPoint(NamedTuple):
    recall: float
    precision: float
    threshold: float


@dataclass(frozen=True)
class PrCurve:
    points: tuple[PrPoint, ...]
    n_positive: int
    n_total: int


@dataclass(frozen=True)
class EvalReport:
    ap_overall: float
    ap_by_type: Mapping[str, float]
    n_by_type: Mapping[str, int]
    #: Input row indices of each stratum; depends on input order, so not compared.
    rows_by_type: Mapping[str, Sequence[int]] = field(
        default_factory=dict, compare=False, repr=False
    )


def _grouped_counts(scores, labels):
    """Per threshold group (descending score): threshold, cum TP, cum predicted."""
    pos = disagreement_mask(labels)
    if len(scores) != len(pos):
        raise LengthMismatch(f"{len(scores)} scores vs {len(pos)} labels")
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise NoPositives("no disagreement-labeled items to rank")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    cum_tp = np.cumsum(pos[order])
    # Last index of each tie group = positions where the score changes.
    last = np.nonzero(np.append(sorted_scores[:-1] != sorted_scores[1:], True))[0]
    return sorted_scores[last], cum_tp[last], last + 1, n_pos


def pr_curve(scores: Sequence[float], labels) -> PrCurve:
    """Precision/recall at every distinct score threshold, descending."""
    thresholds, tp, predicted, n_pos = _grouped_counts(scores, labels)
    points = tuple(
        PrPoint(recall=t / n_pos, precision=t / p, threshold=float(thr))
        for thr, t, p in zip(thresholds, tp, predicted)
    )
    return PrCurve(points=points, n_positive=n_pos, n_total=len(scores))


def average_precision(scores: Sequence[float], labels) -> float:
    """Mean precision over positives, each taken at its tie group (non-interpolated)."""
    _, tp, predicted, n_pos = _grouped_counts(scores, labels)
    pos_in_group = np.diff(tp, prepend=0)
    return float(np.sum((tp / predicted) * pos_in_group) / n_pos)


def stratified_eval(
    scores: Sequence[float],
    labels,
    answer_types: Sequence[str | None],
) -> EvalReport:
    """Overall and per-answer-type average precision.

    Untyped items form an "unknown" stratum; when nothing is typed at all
    only the overall number is reported. Strata without a positive item
    are left out of ap_by_type rather than scored zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = disagreement_mask(labels)
    if not (len(scores) == len(labels) == len(answer_types)):
        raise LengthMismatch(
            f"{len(scores)} scores vs {len(labels)} labels vs "
            f"{len(answer_types)} answer types"
        )
    overall = average_precision(scores, labels)
    if all(t is None for t in answer_types):
        return EvalReport(ap_overall=overall, ap_by_type={}, n_by_type={})

    rows_by_type = rows_by_stratum(answer_types)
    ap_by_type: dict[str, float] = {}
    n_by_type: dict[str, int] = {}
    for stratum, rows in rows_by_type.items():
        n_by_type[stratum] = len(rows)
        if labels[rows].any():
            ap_by_type[stratum] = average_precision(scores[rows], labels[rows])
    return EvalReport(
        ap_overall=overall,
        ap_by_type=ap_by_type,
        n_by_type=n_by_type,
        rows_by_type=rows_by_type,
    )
