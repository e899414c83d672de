"""The benchmark's workloads: input sizes and the CLI arguments of each command.

Every workload runs the same four commands (analyze, train, eval, sweep)
on generated files; they differ in corpus generator, file layout, feature
mode and sweep settings, so that each layer does most of the work in one
workload and little in another. See README.md for why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Seed of the forest in `train` and of the status-quo orderings and MC
#: streams in `sweep`. Fixed, so that the workload seed only changes inputs.
PROGRAM_SEED = 7

COMMANDS = ("analyze", "train", "eval", "sweep")

#: Answers stored per question in every generated corpus.
ANSWERS_PER_QUESTION = 10


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "planted" (make_planted_corpus) or "zipf" (corpora.py)
    n_train: int
    n_eval: int
    smoke_train: int
    smoke_eval: int
    vqa_json: bool  # paired questions/annotations JSON instead of JSONL
    mode: str  # --mode of train
    trees: int
    sim: str  # --sim of sweep
    status_quo_seeds: int
    trials: int = 0  # MC trials; 0 for the exact sweep
    budget_steps: int = 0  # MC budgets 0, n/steps, ..., n; 0 = the CLI default

    def sizes(self, smoke: bool) -> tuple[int, int]:
        return (self.smoke_train, self.smoke_eval) if smoke else (self.n_train, self.n_eval)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-exact", generator="planted",
            n_train=3000, n_eval=3000, smoke_train=300, smoke_eval=300,
            vqa_json=False, mode="qi", trees=25,
            sim="exact", status_quo_seeds=10,
        ),
        Workload(
            name="zipf-vqa", generator="zipf",
            n_train=5000, n_eval=1500, smoke_train=400, smoke_eval=200,
            vqa_json=True, mode="qi", trees=5,
            sim="exact", status_quo_seeds=1,
        ),
        Workload(
            name="planted-mc", generator="planted",
            n_train=700, n_eval=700, smoke_train=100, smoke_eval=100,
            vqa_json=False, mode="q", trees=25,
            sim="mc", status_quo_seeds=1, trials=20, budget_steps=2,
        ),
    )
}


def corpus_files(w: Workload, inputs: Path, split: str) -> dict[str, Path]:
    """Paths of one split's corpus files: key "corpus", plus "annotations" for VQA JSON."""
    if w.vqa_json:
        return {
            "corpus": inputs / f"{split}_questions.json",
            "annotations": inputs / f"{split}_annotations.json",
        }
    return {"corpus": inputs / f"{split}.jsonl"}


def saliency_file(inputs: Path) -> Path:
    return inputs / "saliency.csv"


def budgets(w: Workload, n_eval: int) -> list[int] | None:
    """Explicit sweep budgets, or None for the CLI's 11 even steps."""
    if not w.budget_steps:
        return None
    return [round(n_eval * i / w.budget_steps) for i in range(w.budget_steps + 1)]


def command_argv(w: Workload, command: str, inputs: Path, out: Path, n_eval: int) -> list[str]:
    """Arguments of `crowd-consensus <command>` for this workload."""
    split = "train" if command == "train" else "eval"
    files = corpus_files(w, inputs, split)
    argv = [command, "--corpus", str(files["corpus"])]
    if w.vqa_json:
        argv += ["--annotations", str(files["annotations"]), "--format", "vqa_v1_json"]
    argv += ["--out-dir", str(out / command)]
    if command == "analyze":
        return argv
    # Every workload passes saliency; in mode q it is loaded but not used.
    argv += ["--image-features", str(saliency_file(inputs))]
    if command == "train":
        return argv + ["--mode", w.mode, "--trees", str(w.trees), "--seed", str(PROGRAM_SEED)]
    argv += ["--model", str(out / "train" / "model.json")]
    if command == "eval":
        return argv
    argv += [
        "--sim", w.sim,
        "--status-quo-seeds", str(w.status_quo_seeds),
        "--seed", str(PROGRAM_SEED),
    ]
    if w.trials:
        argv += ["--trials", str(w.trials)]
    plan = budgets(w, n_eval)
    if plan is not None:
        argv += ["--budgets", ",".join(map(str, plan))]
    return argv
