"""Benchmark of the crowd-consensus CLI pipeline: analyze -> train -> eval -> sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root; nothing needs to be installed. A run writes
the workload's inputs from the seed (setup, timed several times), then
repeats whole rounds of the four commands for about S seconds, then checks
the last round's outputs against reference values computed from the inputs
(checks.py). Every command and every check is one operation.

--trace 0 runs each command in its own child process, one after another,
and reports the end-to-end metrics. --trace 1 runs the same rounds
in-process through crowd_consensus.cli.main with span recording
(spans.py) and reports the per-layer metrics instead. The last stdout line
is the JSON result; a run record (versions, output hashes, every sample)
is written under .bench_work/records/. --smoke runs every workload at a
tiny size, untraced and traced, with every check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import WorkloadChecks, determinism
from workloads import COMMANDS, WORKLOADS, Workload, command_argv

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
SETUP_REPEATS = 3
CHILD = "import sys; from crowd_consensus.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "sweep_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


class Ops:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")
            print(f"FAILED {name}: {error}", file=sys.stderr)
        return error is None


def spawn(argv: list[str], log: Path, **env_extra: str) -> tuple[int, float, float]:
    """Run this interpreter with argv, output to log; (exit code, wall s, peak RSS MB).

    This process stays small (stdlib only) until its last spawn, because a
    spawned child's ru_maxrss starts from the parent's high-water mark.
    """
    env = dict(os.environ, PYTHONPATH="src", **env_extra)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def _exit_error(code: int, log: Path) -> str | None:
    if code == 0:
        return None
    tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return f"exit {code}: " + " | ".join(tail)


def hash_tree(root: Path, exclude: tuple[str, ...] = ()) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in exclude
    }


def setup(w: Workload, seed: int, inputs: Path, smoke: bool, logs: Path):
    """Write the inputs SETUP_REPEATS times; (wall times, input hashes per repeat).

    make_planted_corpus picks the answer type of a pool whose modal count
    is tied by iterating a set of strings, so its output follows the
    interpreter's hash seed; the generator runs with a fixed one so that
    the inputs depend on the workload seed alone.
    """
    argv = ["bench/corpora.py", w.name, str(seed), str(inputs)] + (["--smoke"] if smoke else [])
    walls, hashes = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        log = logs / "setup.log"
        code, wall, _ = spawn(argv, log, PYTHONHASHSEED="0")
        error = _exit_error(code, log)
        if error is not None:
            raise SystemExit(f"setup of {w.name} failed: {error}")
        walls.append(wall)
        hashes.append(hash_tree(inputs))
    return walls, hashes


def repeat_rounds(seconds: float, run_round) -> int:
    """Run whole rounds while the next one is expected to end within `seconds`."""
    t0 = time.perf_counter()
    n = 0
    while True:
        start = time.perf_counter()
        run_round(n)
        n += 1
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return n


def untraced_rounds(argvs, out: Path, logs: Path, seconds: float, ops: Ops):
    """Each command in its own child process; (rounds, samples, output hashes per round)."""
    samples: dict[str, list[float]] = {c: [] for c in (*COMMANDS, "peak_rss_mb")}
    hashes: list[dict[str, str]] = []

    def run_round(r: int) -> None:
        peak = 0.0
        for c in COMMANDS:
            log = logs / f"{c}.log"
            code, wall, rss = spawn(["-c", CHILD, *argvs[c]], log)
            ops.record(f"round {r} {c}", _exit_error(code, log))
            samples[c].append(wall)
            peak = max(peak, rss)
        samples["peak_rss_mb"].append(peak)
        hashes.append(hash_tree(out, exclude=("run_config.json",)))

    return repeat_rounds(seconds, run_round), samples, hashes


def traced_rounds(w: Workload, argvs, out: Path, seconds: float, ops: Ops):
    """Every command through cli.main in this process; (rounds, tracer, output hashes)."""
    sys.path.insert(0, "src")
    from crowd_consensus import cli
    from spans import Tracer

    tracer = Tracer(cli, w.name)
    hashes: list[dict[str, str]] = []

    def run_round(r: int) -> None:
        for c in COMMANDS:
            code = tracer.run_command(r, c, argvs[c])
            ops.record(f"round {r} {c}", None if code == 0 else f"exit {code}")
        hashes.append(hash_tree(out, exclude=("run_config.json",)))

    tracer.install()
    try:
        rounds = repeat_rounds(seconds, run_round)
    finally:
        tracer.uninstall()
    return rounds, tracer, hashes


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run rounds, check; returns the result object and writes the run record."""
    work = WORK / w.name
    inputs, out, logs = work / "inputs", work / "out", work / "logs"
    shutil.rmtree(work, ignore_errors=True)
    logs.mkdir(parents=True)
    ops = Ops()

    setup_walls, input_hashes = setup(w, seed, inputs, smoke, logs)
    argvs = {c: command_argv(w, c, inputs, out, w.sizes(smoke)[1]) for c in COMMANDS}
    if trace:
        rounds, tracer, output_hashes = traced_rounds(w, argvs, out, seconds, ops)
        samples: dict[str, list[float]] = {}
    else:
        rounds, samples, output_hashes = untraced_rounds(argvs, out, logs, seconds, ops)

    reference = WorkloadChecks(w, inputs, out)
    errors = reference.run()
    errors["determinism"] = (determinism(input_hashes, "setup")
                             or determinism(output_hashes, "round"))
    if trace:
        errors["span_coverage"] = tracer.coverage_error()
    correct = True
    for name, error in errors.items():
        correct &= ops.record(f"check {name}", error)

    if trace:
        from spans import PER_LAYER as units

        model = out / "train" / "model.json"
        with open(model, encoding="utf-8") as fh:
            nodes = sum(len(t["feature"]) for t in json.load(fh)["trees"])
        metrics = tracer.summary(
            {"forest.nodes": nodes, "forest.model_mb": model.stat().st_size / 2**20},
            reference.questions_with_truth(),
        )
        uncalled = tracer.uncalled()
    else:
        units = END_TO_END
        pipeline = [sum(samples[c][r] for c in COMMANDS) for r in range(rounds)]
        metrics = {
            "setup_s": statistics.median(setup_walls),
            **{f"{c}_s": statistics.median(samples[c]) for c in COMMANDS},
            "pipeline_s": statistics.median(pipeline),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        uncalled = []
    if uncalled:
        print(f"{w.name}: wrapped names never called: {uncalled}", file=sys.stderr)

    record = {
        **run_context(),
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "sizes": dict(zip(("train", "eval"), w.sizes(smoke))),
        "rounds": rounds,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures,
        "input_sha256": input_hashes[-1],
        "output_sha256": output_hashes[-1],
        "setup_s_samples": setup_walls,
        "samples": samples,
        "uncalled": uncalled,
        "metrics": metrics,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (records / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def run_context() -> dict:
    """What the figures depend on besides the workload: code and machine."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "git": _git_head(),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(Path("src").rglob("*.py"))
        ),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_head() -> str:
    """Commit hash from .git in the checkout, without running git; "unknown" outside a clone."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_summary(w: Workload, trace: bool, result: dict) -> None:
    print(f"{w.name} trace={int(trace)} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {m['value']:12.4f} {m['unit']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, untraced and traced")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (Path("src") / "crowd_consensus" / "cli.py").is_file():
        print("error: src/crowd_consensus is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for w in WORKLOADS.values():
            for trace in (False, True):
                result = run_workload(w, args.seed, 0, trace, smoke=True)
                _print_summary(w, trace, result)
                ok &= result["correct"] and result["failed"] == 0
        print("smoke: ok" if ok else "smoke: FAILED")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    w = WORKLOADS[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace), smoke=False)
    _print_summary(w, bool(args.trace), result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
