"""The scripts under scripts/ run to completion on small inputs, and the
benchmark tracer's layer functions exist."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
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


def test_report_sweep_digests_each_job(tmp_path):
    # two runs of the same jobs on one checkout write the same file
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    jobs = ["center.center_sphere_2d.descent", "reproduce.two-zeros"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for out in (first, second):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "report_sweep.py"),
             "-o", str(out), "--jobs", *jobs],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()
    sweep = json.loads(first.read_text())
    assert sorted(sweep) == jobs
    for run in sweep.values():
        assert run["exit"] == 0
        assert len(run["report_sha256"]) == 64


def test_tracer_layers_importable():
    # perfbench/tracer.py wraps these names; read its table without running it
    source = (ROOT / "perfbench" / "tracer.py").read_text()
    (layers,) = [
        node.value for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    for layer, names in ast.literal_eval(layers).items():
        module = importlib.import_module(f"hypcenter.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
