"""The scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("random_sphere_centering_study.py", ["--cases", "2"]),
        ("fold_continuity_sweep.py", ["--atoms", "50"]),
        ("reproduce_counterexamples.py", []),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
