"""Average precision and PR curves, overall and per answer type.

Disagreement (label True) is the positive class. Items sharing a score
enter the ranking as one threshold group, so every metric is independent
of input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .answers import disagreement_mask, rows_by_stratum
from .errors import InvalidArgument, LengthMismatch, NoPositives


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


def _ranked(scores: np.ndarray, pos: np.ndarray) -> tuple[float, tuple[PrPoint, ...]]:
    """(AP, PR curve) of checked scores and labels holding a positive.

    AP is the mean precision over positives, each taken at its tie group
    (non-interpolated). The curve has one point per group, highest score
    first; the last ends at the last item.
    """
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    cum_tp = np.cumsum(pos[order])
    # Last index of each tie group = positions where the score changes.
    last = np.nonzero(np.append(sorted_scores[:-1] != sorted_scores[1:], True))[0]
    tp, predicted = cum_tp[last], last + 1
    n_pos = int(tp[-1])
    ap = float(np.sum((tp / predicted) * np.diff(tp, prepend=0)) / n_pos)
    curve = tuple(
        PrPoint(recall=t / n_pos, precision=t / p, threshold=float(thr))
        for thr, t, p in zip(sorted_scores[last], tp, predicted)
    )
    return ap, curve


def stratified_eval(
    scores: Sequence[float],
    labels,
    answer_types: Sequence[str | None],
) -> EvalReport:
    """Overall and per-answer-type average precision and PR curves.

    For one ranking alone, pass [None] * len(scores) as answer_types.
    Untyped items form an "unknown" stratum; when nothing is typed at all
    only the overall numbers are reported. Strata without a positive item
    are left out of ap_by_type and curve_by_type rather than scored zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = disagreement_mask(labels)
    if not (len(scores) == len(labels) == len(answer_types)):
        raise LengthMismatch(
            f"{len(scores)} scores vs {len(labels)} labels vs "
            f"{len(answer_types)} answer types"
        )
    if not labels.any():
        raise NoPositives("no disagreement-labeled items to rank")
    if not np.isfinite(scores).all():
        raise InvalidArgument("scores hold NaN or infinite values")

    ap_overall, curve_overall = _ranked(scores, labels)
    ap_by_type: dict[str, float] = {}
    n_by_type: dict[str, int] = {}
    curve_by_type: dict[str, tuple[PrPoint, ...]] = {}
    if any(t is not None for t in answer_types):
        for stratum, rows in rows_by_stratum(answer_types).items():
            n_by_type[stratum] = len(rows)
            if labels[rows].any():
                ap_by_type[stratum], curve_by_type[stratum] = _ranked(scores[rows], labels[rows])
    return EvalReport(ap_overall, ap_by_type, n_by_type, curve_overall, curve_by_type)
