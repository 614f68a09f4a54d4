"""The walkthroughs under ``scripts/`` run against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["demo_views.py", "demo_merge.py"])
def test_walkthrough_runs(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
