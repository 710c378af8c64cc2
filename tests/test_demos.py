"""Each demo script runs to completion against the package source, and
against the installed package from outside the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo, installed", [
    *(pytest.param(demo, False, id=demo.name) for demo in DEMOS),
    *(pytest.param(demo, True, id=f"installed-{demo.name}") for demo in DEMOS),
])
def test_demo_runs(request, tmp_path, demo, installed):
    if installed:
        env, cwd = request.getfixturevalue("installed_env"), tmp_path
    else:
        env, cwd = dict(os.environ, PYTHONPATH="src"), ROOT
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
