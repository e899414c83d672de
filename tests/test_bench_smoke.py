import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_bench_smoke(tmp_path):
    # Every workload at a tiny size, untraced and traced, with every
    # reference check (exact rational sweep expectations among them).
    result = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "smoke: ok" in result.stdout
