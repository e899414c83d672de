"""Span recorder for the traced run.

The traced run calls `crowd_consensus.cli.main(argv)` in-process. While a
Tracer is installed, each layer function named in LAYER_CALLS is replaced
in the cli module's namespace by a wrapper that records a span (name,
start, end, parent, workload, command, round) around the call and counts
the work it was given. Spans stay in memory until summary() turns them
into per-layer metrics. The untraced run never loads this module, so
end-to-end figures never include tracing.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import NamedTuple

#: Function names in crowd_consensus.cli -> the metric that takes their spans' self time.
LAYER_CALLS = {
    "load_corpus": "corpus.load_s",
    "load_image_features": "corpus.saliency_load_s",
    "agreement_label": "answers.label_s",
    "diversity_histogram": "answers.analyze_s",
    "agreement_by_answer_type": "answers.analyze_s",
    "build_vocabularies": "features.vocab_s",
    "extract_matrix": "features.extract_s",
    "train_forest": "forest.train_s",
    "predict_many": "forest.predict_s",
    "save_model": "forest.model_io_s",
    "load_model": "forest.model_io_s",
    "stratified_eval": "evalmetrics.eval_s",
    "pr_curve": "evalmetrics.eval_s",
    "rank_by_disagreement": "allocation.rank_s",
    "status_quo_ranking": "allocation.rank_s",
    "oracle_ranking": "allocation.rank_s",
    "sweep": "allocation.sweep_s",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.saliency_load_s": "s",
    "corpus.questions": "count",
    "corpus.input_mb": "MB",
    "answers.label_s": "s",
    "answers.labels": "count",
    "answers.analyze_s": "s",
    "features.vocab_s": "s",
    "features.extract_s": "s",
    "features.columns": "count",
    "features.matrix_mb": "MB",
    "forest.train_s": "s",
    "forest.nodes": "count",
    "forest.predict_s": "s",
    "forest.rows_predicted": "count",
    "forest.model_io_s": "s",
    "forest.model_mb": "MB",
    "evalmetrics.eval_s": "s",
    "evalmetrics.pr_points": "count",
    "allocation.rank_s": "s",
    "allocation.sweep_s": "s",
    "allocation.plans": "count",
    "allocation.mc_draws": "count",
    "cli.self_s": "s",
}

MB = 1024 * 1024


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    command: str
    round: int


def _count_agreement_label(c, a, result):
    c["answers.labels"] += 1


def _count_load_corpus(c, a, result):
    c["corpus.questions"] += len(result)
    for key in ("questions_source", "annotations_source"):
        if a.get(key) is not None:
            c["corpus.input_mb"] += os.path.getsize(a[key]) / MB


def _count_load_image_features(c, a, result):
    c["corpus.input_mb"] += os.path.getsize(a["path"]) / MB


def _count_extract_matrix(c, a, result):
    c["features.columns"] = max(c["features.columns"], result.shape[1])
    c["features.matrix_mb"] = max(c["features.matrix_mb"], result.nbytes / MB)


def _count_predict_many(c, a, result):
    c["forest.rows_predicted"] += len(a["X"])


def _count_pr_curve(c, a, result):
    c["evalmetrics.pr_points"] += len(result.points)


def _count_sweep(c, a, result):
    # A ranking entry is one ordering or a list of alternative orderings.
    variants = sum(
        len(e) if isinstance(e[0], (list, tuple)) else 1 for e in a["rankings"].values()
    )
    plans = variants * len(a["budgets"])
    c["allocation.plans"] += plans
    if a.get("mode") == "mc":
        c["mc_plan_trials"] += plans * a["trials"]


_COUNTERS = {
    "agreement_label": _count_agreement_label,
    "load_corpus": _count_load_corpus,
    "load_image_features": _count_load_image_features,
    "extract_matrix": _count_extract_matrix,
    "predict_many": _count_predict_many,
    "pr_curve": _count_pr_curve,
    "sweep": _count_sweep,
}


class Tracer:
    """Installs span-recording wrappers into a cli module and summarizes the spans."""

    def __init__(self, cli, workload: str):
        self.cli = cli
        self.workload = workload
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.walls: dict[tuple[int, str], float] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._command = ""
        self._round = 0

    def install(self) -> None:
        for name in LAYER_CALLS:
            fn = getattr(self.cli, name, None)
            if fn is None:
                continue
            self._originals[name] = fn
            setattr(self.cli, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(self.cli, name, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            span, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, name, start)
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                count(self.counts[self._round], bound, result)
            return result

        return wrapper

    def _open(self) -> tuple[int, float]:
        span = self._next_id
        self._next_id += 1
        self._stack.append(span)
        return span, time.perf_counter()

    def _close(self, span: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(span, name, start, end, parent, self.workload, self._command, self._round)
        )

    def run_command(self, round_: int, command: str, argv: list[str]) -> int:
        """cli.main(argv) under a root span; returns its exit code."""
        self._round, self._command = round_, command
        t0 = time.perf_counter()
        span, start = self._open()
        try:
            code = self.cli.main(argv)
        finally:
            self._close(span, "cli." + command, start)
            self.walls[(round_, command)] = time.perf_counter() - t0
        return code

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.id: s.end - s.start - child[s.id] for s in self.spans}

    def coverage_error(self, tolerance_s: float = 0.005) -> str | None:
        """None if, for every command, the summed self time of its spans
        accounts for the command's traced wall time."""
        own = self.self_times()
        summed = defaultdict(float)
        for s in self.spans:
            summed[(s.round, s.command)] += own[s.id]
        for key, wall in self.walls.items():
            if abs(summed[key] - wall) > max(tolerance_s, 0.01 * wall):
                return f"round {key[0]} {key[1]}: span self time {summed[key]:.4f} s, wall {wall:.4f} s"
        return None

    def uncalled(self) -> list[str]:
        """Names in LAYER_CALLS that no command called, including any the cli module lacks."""
        return [name for name in LAYER_CALLS if not self.calls[name]]

    def summary(self, per_run: dict[str, float], questions_with_truth: int) -> dict[str, float]:
        """Median over rounds of every per-layer metric.

        per_run holds metrics read from the outputs (forest.nodes,
        forest.model_mb); questions_with_truth turns MC plan-trials into draws.
        """
        own = self.self_times()
        rounds = sorted({s.round for s in self.spans})
        per_round = {r: defaultdict(float, self.counts[r]) for r in rounds}
        for s in self.spans:
            metric = "cli.self_s" if s.name.startswith("cli.") else LAYER_CALLS[s.name]
            per_round[s.round][metric] += own[s.id]
        for values in per_round.values():
            values["allocation.mc_draws"] = values.pop("mc_plan_trials", 0) * questions_with_truth
            values.update(per_run)
        return {m: statistics.median(per_round[r][m] for r in rounds) for m in PER_LAYER}
