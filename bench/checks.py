"""Reference checks of a workload's outputs, computed from the generated inputs.

Nothing here imports the program or compares with a saved copy of its
output. Pool counts are read straight from the input files: corpora.py
only writes answers that normalization leaves unchanged, so counting the
raw strings gives the program's normalized counts. Sweep expectations are
exact rationals (math.comb over a common denominator).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import ANSWERS_PER_QUESTION, Workload, budgets, corpus_files

#: Sweep answer counts: the CLI defaults --s 1 and --r 5.
S_ANSWERS, R_ANSWERS = 1, 5
TRUTH_MIN_COUNT = 2
SALIENCY_DIM = 5
#: MC rows must lie within this many standard errors of the exact expectation.
MC_SIGMAS = 6
#: Held-out AP floor on the planted corpora, whose first word carries the label.
PLANTED_MIN_AP = 0.95
#: Least lead of ours over status quo at half budget on planted-exact (share of max).
PLANTED_MIN_GAIN = 0.10
_TYPE_ORDER = ("yes/no", "number", "other", "unknown", "all")


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Question:
    qid: int
    text: str
    counts: Counter  # answer -> occurrences in the pool
    answer_type: str | None

    @property
    def modal(self) -> int:
        return max(self.counts.values())

    @property
    def truth(self) -> list[int]:
        """Occurrence counts of the answers given at least twice."""
        return [c for c in self.counts.values() if c >= TRUTH_MIN_COUNT]


def read_split(w: Workload, inputs: Path, split: str) -> list[Question]:
    files = corpus_files(w, inputs, split)
    if w.vqa_json:
        with open(files["corpus"], encoding="utf-8") as fh:
            questions = json.load(fh)["questions"]
        with open(files["annotations"], encoding="utf-8") as fh:
            by_id = {a["question_id"]: a for a in json.load(fh)["annotations"]}
        records = [
            (q["question_id"], q["question"],
             [e["answer"] for e in by_id[q["question_id"]]["answers"]],
             by_id[q["question_id"]].get("answer_type"))
            for q in questions
        ]
    else:
        with open(files["corpus"], encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        records = [
            (r["question_id"], r["question"], r["answers"], r.get("answer_type"))
            for r in lines
        ]
    out = [Question(qid, text, Counter(ans), atype) for qid, text, ans, atype in records]
    out.sort(key=lambda q: q.qid)
    return out


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _n_positive(held_out: list[Question], a: int) -> int:
    return sum(q.modal < a - 1 for q in held_out)


class WorkloadChecks:
    """Every reference check of one workload; run() maps check name -> error or None."""

    def __init__(self, w: Workload, inputs: Path, out: Path):
        self.w = w
        self.out = out
        self.a = ANSWERS_PER_QUESTION
        self.train = read_split(w, inputs, "train")
        self.held_out = read_split(w, inputs, "eval")
        self._terms = {n: self._pool_terms(n) for n in (S_ANSWERS, R_ANSWERS)}

    def run(self) -> dict[str, str | None]:
        results = {}
        for name in ("disagreement_count", "histograms", "answer_types", "model",
                     "average_precision", "sweep"):
            try:
                getattr(self, "check_" + name)()
                results[name] = None
            except CheckFailed as exc:
                results[name] = str(exc)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                results[name] = f"unreadable output: {type(exc).__name__}: {exc}"
        return results

    def questions_with_truth(self) -> int:
        return sum(bool(q.truth) for q in self.held_out)

    # -- analyze and eval -------------------------------------------------

    def check_disagreement_count(self) -> None:
        """Positives implied by the last PR point (recall 1) equal the modal-count rule."""
        last = _rows(self.out / "eval" / "pr_overall.csv")[-1]
        n = len(self.held_out)
        _require(float(last[1]) == 1.0, f"last PR point has recall {last[1]}")
        got = round(float(last[2]) * n)
        want = _n_positive(self.held_out, self.a)
        _require(got == want, f"pr_overall.csv implies {got} disagreements, pools give {want}")

    def check_histograms(self) -> None:
        for m in (1, 2, 3):
            hist = Counter(sum(c >= m for c in q.counts.values()) for q in self.held_out)
            want = [[str(m), str(k), str(hist[k])] for k in range(self.a + 1)]
            got = _rows(self.out / "analyze" / f"histogram_m{m}.csv")
            _require(got == want, f"histogram_m{m}.csv {got} != {want}")

    def check_answer_types(self) -> None:
        tallies: dict[str, list[int]] = {}
        for q in self.held_out:
            for stratum in (q.answer_type or "unknown", "all"):
                t = tallies.setdefault(stratum, [0, 0, 0])
                t[0] += q.modal == self.a
                t[1] += q.modal == self.a - 1
                t[2] += 1
        want = [
            (s, t[0] / t[2], t[1] / t[2], (t[0] + t[1]) / t[2], t[2])
            for s in _TYPE_ORDER if s in tallies for t in [tallies[s]]
        ]
        got = [
            (r[0], float(r[1]), float(r[2]), float(r[3]), int(r[4]))
            for r in _rows(self.out / "analyze" / "answer_types.csv")
        ]
        _require(got == want, f"answer_types.csv {got} != {want}")

    def check_model(self) -> None:
        with open(self.out / "train" / "model.json", encoding="utf-8") as fh:
            model = json.load(fh)
        trees = model["trees"]
        _require(len(trees) == self.w.trees, f"{len(trees)} trees, expected {self.w.trees}")
        for t, tree in enumerate(trees):
            leaves = 0
            for i, f in enumerate(tree["feature"]):
                if f < 0:
                    leaves += tree["votes_total"][i]
                else:
                    _require(tree["left"][i] > i and tree["right"][i] > i,
                             f"tree {t} node {i}: child index not above parent")
            _require(leaves == len(self.train),
                     f"tree {t}: leaf votes_total sums to {leaves}, bootstrap is {len(self.train)}")
        tokens = [q.text.split() for q in self.train]
        question_dim = 1 + len({t[0] for t in tokens}) + len({t[1] for t in tokens if len(t) > 1})
        want = {"q": question_dim, "i": SALIENCY_DIM, "qi": question_dim + SALIENCY_DIM}[self.w.mode]
        _require(model["n_features"] == want, f"n_features {model['n_features']}, expected {want}")

    def check_average_precision(self) -> None:
        with open(self.out / "eval" / "report.json", encoding="utf-8") as fh:
            ap = json.load(fh)["ap_overall"]
        recomputed, prev_recall = 0.0, 0.0
        for _, recall, precision in _rows(self.out / "eval" / "pr_overall.csv"):
            recomputed += float(precision) * (float(recall) - prev_recall)
            prev_recall = float(recall)
        _require(abs(ap - recomputed) <= 1e-9, f"ap_overall {ap} != {recomputed} from the PR curve")
        if self.w.generator == "planted":
            _require(ap >= PLANTED_MIN_AP, f"ap_overall {ap} < {PLANTED_MIN_AP}")
        else:
            share = _n_positive(self.held_out, self.a) / len(self.held_out)
            _require(ap > share, f"ap_overall {ap} not above the positive share {share}")

    # -- sweep ------------------------------------------------------------

    def _pool_terms(self, n: int) -> tuple[int, list[int], list[int]]:
        """C(A, n) and, per question, the expected capture of an n-answer draw
        and the variance of one draw's capture, scaled by C(A, n) and C(A, n)**2.

        A truth answer occurring c times is missed with probability
        C(A - c, n) / C(A, n); two of them both with C(A - c - c', n) / C(A, n).
        """
        ways = math.comb(self.a, n)
        caps, variances = [], []
        for q in self.held_out:
            miss = [math.comb(self.a - c, n) for c in q.truth]
            caps.append(len(miss) * ways - sum(miss))
            var = sum(m * (ways - m) for m in miss)
            for i, ci in enumerate(q.truth):
                for j, cj in enumerate(q.truth):
                    if i != j:
                        var += math.comb(self.a - ci - cj, n) * ways - miss[i] * miss[j]
            variances.append(var)
        return ways, caps, variances

    def _moments(self, order: list[int], budget: int) -> tuple[Fraction, Fraction]:
        """Exact mean and single-trial variance of captured diversity when the
        questions at positions order[:budget] get R answers and the rest S."""
        boosted = set(order[:budget])
        mean = var = Fraction(0)
        for n, chosen in ((R_ANSWERS, True), (S_ANSWERS, False)):
            ways, caps, variances = self._terms[n]
            picked = [p for p in range(len(caps)) if (p in boosted) == chosen]
            mean += Fraction(sum(caps[p] for p in picked), ways)
            var += Fraction(sum(variances[p] for p in picked), ways * ways)
        return mean, var

    def check_sweep(self) -> None:
        n = len(self.held_out)
        max_div = sum(len(q.truth) for q in self.held_out)
        by_ranking: dict[str, list[tuple[int, int, float, float]]] = {}
        for row in _rows(self.out / "sweep" / "sweep.csv"):
            by_ranking.setdefault(row[0], []).append(
                (int(row[1]), int(row[2]), float(row[3]), float(row[4]))
            )
        _require(sorted(by_ranking) == ["oracle", "ours", "status_quo"],
                 f"rankings {sorted(by_ranking)}")
        want_budgets = budgets(self.w, n) or sorted({round(n * i / 10) for i in range(11)})
        oracle = sorted(range(n), key=lambda p: (-len(self.held_out[p].truth), self.held_out[p].qid))
        for name, rows in by_ranking.items():
            _require([r[0] for r in rows] == want_budgets, f"{name}: budgets {[r[0] for r in rows]}")
            prev = -math.inf
            for budget, spent, diversity, fraction in rows:
                where = f"{name} B={budget}"
                _require(spent == budget * R_ANSWERS + (n - budget) * S_ANSWERS,
                         f"{where}: answers_spent {spent}")
                _require(diversity >= prev, f"{where}: diversity fell to {diversity}")
                _require(math.isclose(fraction, diversity / max_div, rel_tol=1e-12),
                         f"{where}: diversity_fraction {fraction}")
                prev = diversity
                if name == "oracle" or budget in (0, n):
                    self._check_expectation(where, diversity, oracle, budget)
        if self.w.generator == "planted" and self.w.sim == "exact":
            half = dict((r[0], r[3]) for r in by_ranking["ours"])[round(n / 2)]
            sq = dict((r[0], r[3]) for r in by_ranking["status_quo"])[round(n / 2)]
            _require(half - sq >= PLANTED_MIN_GAIN,
                     f"ours {half} leads status quo {sq} by less than {PLANTED_MIN_GAIN}")

    def _check_expectation(self, where: str, got: float, order: list[int], budget: int) -> None:
        want, var = self._moments(order, budget)
        if self.w.sim == "exact":
            _require(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9),
                     f"{where}: diversity {got}, exact expectation {float(want)}")
            return
        se = math.sqrt(var / self.w.trials)
        _require(abs(got - want) <= MC_SIGMAS * se + 1e-9,
                 f"{where}: diversity {got} is {abs(got - float(want)) / se:.1f} standard "
                 f"errors from {float(want)}")


def determinism(hash_sets: list[dict[str, str]], what: str) -> str | None:
    """None if every set of file hashes equals the first, else the files that differ."""
    first = hash_sets[0]
    for k, other in enumerate(hash_sets[1:], start=2):
        if other != first:
            diff = sorted(f for f in first.keys() | other.keys() if first.get(f) != other.get(f))
            return f"{what} {k} differs from the first in {diff}"
    return None
