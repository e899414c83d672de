"""What importing the package and the CLI does to a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code, **env):
    """Run code in a new interpreter that imports the package from src/."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(ROOT / "src"), **env)
    result = subprocess.run([sys.executable, "-c", code], env=environ,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    run_fresh(
        "import sys, crowd_consensus\n"
        "loaded = [m for m in sys.modules if m.startswith('crowd_consensus.')]\n"
        "assert 'numpy' not in sys.modules and not loaded, loaded\n"
        "from crowd_consensus import make_planted_corpus\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('crowd_consensus.'))\n"
        "assert loaded == ['crowd_consensus.' + m for m in\n"
        "                  ('answers', 'corpus', 'errors', 'synthetic')], loaded\n"
    )


def test_every_public_name_resolves_and_an_unknown_one_raises():
    run_fresh(
        "import crowd_consensus as cc\n"
        "assert len(cc.__all__) == 32 and cc.__all__ == sorted(cc.__all__)\n"
        "assert set(cc.__all__) <= set(dir(cc))\n"
        "for name in cc.__all__:\n"
        "    assert getattr(cc, name).__module__ == 'crowd_consensus.' + cc._SUBMODULE[name]\n"
        "try:\n"
        "    cc.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )


def test_the_cli_import_restores_the_environment_and_freezes_its_heap():
    run_fresh(
        "import gc, os\n"
        "import crowd_consensus.cli\n"
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n"
        "assert gc.isenabled() and gc.get_freeze_count() > 0\n"
    )


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_the_cli_import_starts_no_blas_thread():
    run_fresh(
        "import os\n"
        "import crowd_consensus.cli\n"
        "assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')\n"
    )


def test_the_cli_import_keeps_the_callers_thread_count_and_gc_state():
    run_fresh(
        "import gc, os\n"
        "gc.disable()\n"
        "import crowd_consensus.cli\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '3'\n"
        "assert not gc.isenabled()\n",
        OPENBLAS_NUM_THREADS="3",
    )
