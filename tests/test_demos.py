"""Each script under demos/ runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
SLOW = {"demo_generalization.py"}  # two default-benchmark trainings


@pytest.mark.parametrize("script", [
    pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in sorted(DEMOS.glob("*.py"))])
def test_demo_exits_zero(script, tmp_path):
    # a private temp directory, apart from the working directory, that the
    # demo must leave empty
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert list(tmpdir.iterdir()) == []
