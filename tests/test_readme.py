import os
import re
import subprocess
import sys
from pathlib import Path

from crowd_consensus import make_planted_corpus, save_corpus_jsonl

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The first python block after the "## Library" heading, cut as the CI workflow cuts it."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("## Library"))
    begin = next(i for i in range(start, len(lines)) if lines[i].startswith("```python"))
    end = next(i for i in range(begin + 1, len(lines)) if lines[i].startswith("```"))
    return "".join(lines[begin + 1:end])


def test_readme_library_example_runs(tmp_path):
    # The same train.jsonl as the CI step that runs the example writes.
    code = library_example()
    save_corpus_jsonl(make_planted_corpus(200, seed=1), tmp_path / "train.jsonl")
    (tmp_path / "library.py").write_text(code, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "library.py"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # It prints the plan's answer count twice, then the captured share.
    answers, spent, fraction = result.stdout.split()
    assert answers == spent and re.fullmatch(r"0\.[0-9]+|1\.0", fraction)
