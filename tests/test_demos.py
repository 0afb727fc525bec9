"""The demo scripts run to completion and print their verdicts."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.mark.parametrize("script, expected", [
    ("01_cannon_walkthrough.py", "verdict: UNSAFE"),
    ("02_trains_fixpoint.py", "verdict: SAFE"),
    ("03_cross_check.py", "no engine-safe-oracle-reached entries"),
])
def test_demo_runs(script, expected):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
