"""Every demo script runs to the end in a fresh interpreter, with scipy unimportable.

scipy is a test oracle, not a runtime dependency: each spawned interpreter first
puts a finder on sys.meta_path that refuses ``scipy`` and every ``scipy.*`` module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sizebias.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

NO_SCIPY = """
import runpy, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked: scipy is not a runtime dependency")

sys.meta_path.insert(0, NoScipy())
"""


def _run_without_scipy(run, *args):
    """A fresh interpreter that blocks scipy, then executes run with sys.argv[1:] = args."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", NO_SCIPY + run, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert DEMOS, "no demo scripts"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    run = "sys.argv = sys.argv[1:]\nrunpy.run_path(sys.argv[0], run_name='__main__')"
    p = _run_without_scipy(run, str(demo))
    assert p.returncode == 0, p.stderr
    assert "Traceback" not in p.stderr


def test_cli_runs_without_scipy(capsys):
    argv = ["stein", "--n", "5", "--p", "0.2"]
    p = _run_without_scipy("runpy.run_module('sizebias.cli', run_name='__main__')", *argv)
    assert p.returncode == 0, p.stderr
    assert main(argv) == 0
    assert p.stdout == capsys.readouterr().out
