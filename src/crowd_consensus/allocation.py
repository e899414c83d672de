"""Budgeted answer-collection planning and captured-diversity scoring.

A question is identified by its corpus row: a ranking is a permutation of
the rows 0..n-1, and question ids only seed the Monte Carlo streams. A
plan gives the first B rows of a ranking R answers each and every other
row the minimum S. Collection is simulated by sampling without
replacement from each question's stored answer pool; captured diversity
is the number of ground-truth answers (those observed at least twice in
the pool) that the sample hits, summed over questions. The exact mode
replaces sampling with the closed-form expectation: a truth answer
occurring c times in a pool of A is captured by an n-answer draw with
probability 1 - C(A-c, n) / C(A, n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .errors import InvalidArgument, KeyMismatch

#: Minimum occurrences for an answer to count as ground truth.
TRUTH_MIN_COUNT = 2

SIMULATION_MODES = ("exact", "mc")

_SEED_MASK = (1 << 64) - 1

#: Monte Carlo trials drawn per generator call, which bounds working memory.
_MC_TRIAL_CHUNK = 1024


def rank_by_disagreement(scores: Sequence[float]) -> list[int]:
    """Corpus rows by descending predicted disagreement, ties to the lower row;
    a NaN or infinite score, which has no place in the order, raises InvalidArgument."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise InvalidArgument("scores hold NaN or infinite values")
    return np.argsort(-scores, kind="stable").tolist()


def status_quo_ranking(n: int, seed) -> list[int]:
    """Uniform random priority order of n corpus rows, deterministic given the
    seed: an integer in [0, 2**64) or a list of them, like the CLI's [seed, k]."""
    # type(), unlike isinstance, refuses a bool as well as a float.
    if not all(type(x) is int and 0 <= x < 2**64 for x in (seed if type(seed) is list else [seed])):
        raise InvalidArgument(f"seed must be an integer in [0, 2**64) or a list of them, got {seed!r}")
    return np.random.default_rng(seed).permutation(n).tolist()


def oracle_ranking(corpus: Corpus) -> list[int]:
    """Corpus rows by descending true-diversity count, ties to the lower row."""
    truth = corpus.answer_table.distinct_at_least(TRUTH_MIN_COUNT)
    return np.argsort(-truth, kind="stable").tolist()


def _check_plan(n: int, budget, s, r) -> None:
    # A float budget, S or R is refused, where the int64 counts would truncate it,
    # and so is a bool, which would index by mask.
    budget_ok, s_ok, r_ok = (isinstance(x, Integral) and not isinstance(x, bool) for x in (budget, s, r))
    if not (budget_ok and 0 <= budget <= n):
        raise InvalidArgument(f"budget must be an integer in [0, {n}], got {budget!r}")
    if not (s_ok and r_ok and 1 <= s < r < 2**63):
        raise InvalidArgument(f"need integers 1 <= S < R < 2**63, got S={s!r}, R={r!r}")


def make_plan(ranking: Sequence[int], budget: int, s: int = 1, r: int = 5) -> np.ndarray:
    """Answers to collect per corpus row, as an (n,) int64 array: R for the
    first `budget` rows of `ranking`, a permutation of the rows 0..n-1, and
    S for every other row."""
    rows = _permutation("plan", ranking, len(ranking))
    _check_plan(len(rows), budget, s, r)
    counts = np.full(len(rows), s, dtype=np.int64)
    counts[rows[:budget]] = r
    return counts


@dataclass(frozen=True)
class SweepRow:
    ranking: str
    budget: int
    answers_spent: int
    diversity: float
    diversity_fraction: float


def sweep(
    corpus: Corpus,
    rankings: Mapping[str, Iterable[Sequence[int]]],
    budgets: Sequence[int],
    s: int = 1,
    r: int = 5,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> list[SweepRow]:
    """One row per (ranking, budget).

    Each ranking name maps to an iterable of orderings of the corpus rows
    (one, or several random priority orders); their diversities are
    averaged per budget. Orderings are read, checked and added up one at a
    time, so a generator of them costs O(n) memory however many it yields.
    Each question's capture under S and under R answers is an integer over
    a common denominator D. Exact mode: D = lcm(C(A, S),
    C(A, R)) and the terms are expectations. MC mode: D is the trial count;
    each question draws from one generator seeded by (seed, question id);
    trial t is its t-th permutation of the A pool slots, and S and R read
    its prefixes. A budget's diversity is the S-captures plus a prefix sum
    of (R-capture - S-capture) along the ordering, averaged over orderings
    exactly. diversity and diversity_fraction are each one int / int
    division of that exact sum, so each rounds correctly.
    """
    n = len(corpus)
    for budget in (0, *budgets):
        _check_plan(n, budget, s, r)
    a = corpus.answers_per_question
    if r > a:
        raise InvalidArgument(f"R={r} exceeds the {a} stored answers")
    if mode not in SIMULATION_MODES:
        raise InvalidArgument(f"mode must be one of {SIMULATION_MODES}, got {mode!r}")
    if mode == "mc" and not (isinstance(trials, Integral) and not isinstance(trials, bool)
                             and 1 <= trials < 2**31):
        raise InvalidArgument(f"trials must be in [1, 2**31), got {trials!r}")
    if mode == "mc" and (type(seed) is not int or not 0 <= seed < 2**64):
        raise InvalidArgument(f"seed must be an integer in [0, 2**64), got {seed!r}")

    # terms[k][row]: the row's capture under k answers, times D, as Python ints.
    table = corpus.answer_table
    if mode == "exact":
        ways = {k: math.comb(a, k) for k in (s, r)}
        denominator = math.lcm(*ways.values())
        terms = {}
        for k in (s, r):
            # The k-of-A draws that hit an answer given c times: all but the
            # C(A - c, k) that miss it; only truth answers (c >= 2) count.
            hits = [
                ways[k] - math.comb(a - c, k) if c >= TRUTH_MIN_COUNT else 0
                for c in range(a + 1)
            ]
            scaled = np.array(hits, dtype=object) * (denominator // ways[k])
            terms[k] = scaled[table.counts].sum(axis=1)
    else:
        denominator, terms = trials, {k: np.zeros(n, dtype=object) for k in (s, r)}
        ids = corpus.ids.tolist()
        for row in np.flatnonzero(table.distinct_at_least(TRUTH_MIN_COUNT)).tolist():
            rng = np.random.default_rng([seed, ids[row] & _SEED_MASK])
            codes = table.codes[row]
            # truth[j, u]: slot j gives the question's u-th truth answer.
            truth = codes[:, None] == codes[table.counts[row] >= TRUTH_MIN_COUNT]
            for done in range(0, trials, _MC_TRIAL_CHUNK):
                # Trial t is the generator's t-th permutation across chunks;
                # seen[t, i, u]: u is among trial t's first i + 1 draws.
                chunk = min(_MC_TRIAL_CHUNK, trials - done)
                draws = rng.permuted(np.broadcast_to(np.arange(a), (chunk, a)), axis=1)
                seen = np.logical_or.accumulate(truth[draws[:, :r]], axis=1)
                for k in (s, r):
                    terms[k][row] += int(np.count_nonzero(seen[:, k - 1]))
    base = terms[s].sum()
    gain = terms[r] - terms[s]
    max_diversity = int(table.distinct_at_least(TRUTH_MIN_COUNT).sum())
    rows = []
    for name, orderings in rankings.items():
        # prefix[b]: the gain of the first b rows, summed over the orderings.
        prefix = np.zeros(n + 1, dtype=object)
        count = 0
        # map drops each ordering once it is checked, before the object sums.
        for order in map(functools.partial(_permutation, name, n=n), orderings):
            prefix[1:] += np.cumsum(gain[order])
            count += 1
        if count == 0:
            raise KeyMismatch(f"ranking {name!r} has no ordering")
        for budget in budgets:
            captured, scale = base * count + prefix[budget], denominator * count
            fraction = 1.0 if max_diversity == 0 else captured / (scale * max_diversity)
            rows.append(
                SweepRow(
                    ranking=name,
                    budget=budget,
                    answers_spent=budget * r + (n - budget) * s,
                    diversity=captured / scale,
                    diversity_fraction=fraction,
                )
            )
    return rows


def _permutation(name: str, ordering: Sequence[int], n: int) -> np.ndarray:
    """ordering as an index array, if it is an integer permutation of the rows 0..n-1."""
    rows = np.asarray(ordering)
    if rows.size == 0:
        rows = rows.astype(np.intp)  # [] reads as float64
    if rows.shape == (n,) and rows.dtype.kind in "iu" and (n == 0 or 0 <= rows.min() and rows.max() < n):
        # n rows in range are a permutation when they hit every row.
        hit = np.zeros(n, dtype=bool)
        hit[rows] = True
        if hit.all():
            return rows.astype(np.intp, copy=False)
    raise KeyMismatch(f"ranking {name!r} is not a permutation of the corpus rows")
