"""CLI report sweep: run a fixed set of hypcenter commands and digest each run.

Every job calls ``hypcenter.cli.main`` in-process and records its exit code
and the SHA-256 digests of its stderr and of its report file.  Run the sweep
on two checkouts and diff the two JSON files to list the jobs a change moves:

    PYTHONPATH=<parent>/src python scripts/report_sweep.py -o parent.json
    PYTHONPATH=src python scripts/report_sweep.py -o change.json
    diff parent.json change.json

The job inputs are the golden CLI jobs under tests/golden/ of the checkout
that holds this script, so both runs read the same files, and a seeded
2000-atom 3-d interior measure that the script writes to its temporary
directory, which covers report writing at scale.

Usage: python scripts/report_sweep.py [-o sweep.json] [--jobs NAME ...]
       [--reports DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from hypcenter import cli, fixtures

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
CENTER_INPUTS = ("center_sphere_2d", "center_200_3d")
CENTER_FLAGS = {
    "default": [],
    "descent": ["--strategy", "descent"],
    "newton": ["--strategy", "newton"],
    "multistart4": ["--multistart", "4"],
}


def jobs(workdir: Path) -> dict[str, list[str]]:
    """Job name -> cli.main argv, without the report path."""
    energy_doc = json.loads((GOLDEN / "center_sphere_2d.json").read_text())
    energy_doc["ray"] = {"dir": [1.0, 0.0], "tau_max": 4.0, "count": 9}
    energy_job = workdir / "energy_sphere_2d.json"
    energy_job.write_text(json.dumps(energy_doc))
    large_job = workdir / "center_2000_3d.json"
    large_job.write_text(json.dumps(large_doc(2000, seed=0)))

    table = {}
    for name in CENTER_INPUTS:
        for tag, flags in CENTER_FLAGS.items():
            table[f"center.{name}.{tag}"] = ["center", "-i", str(GOLDEN / f"{name}.json"), *flags]
    table["center.large_2000_3d"] = ["center", "-i", str(large_job)]
    table["fold.fold_2d"] = ["fold", "-i", str(GOLDEN / "fold_2d.json")]
    table["energy.sphere_2d"] = ["energy", "-i", str(energy_job)]
    for seed in range(4):
        table[f"verify.seed{seed}"] = ["verify", "--seed", str(seed)]
    for name in sorted(fixtures.REGISTRY):
        table[f"reproduce.{name}"] = ["reproduce", name]
    return table


def large_doc(atoms: int, seed: int) -> dict:
    """A 3-d identity-weight job: uniform directions, hyperbolic radii
    U(0, 3) and weights U(0.2, 1)."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(atoms, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    locs = np.tanh(rng.uniform(0.0, 3.0, size=atoms))[:, None] * dirs
    weights = rng.uniform(0.2, 1.0, size=atoms)
    return {
        "dimension": 3,
        "atoms": [{"x": x, "w": w} for x, w in zip(locs.tolist(), weights.tolist())],
        "weight": {"kind": "identity", "params": {}},
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(argv: list[str], report: Path) -> dict:
    report.unlink(missing_ok=True)  # a kept report from an earlier sweep
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "-o", str(report)])
    return {
        "exit": code,
        "stderr_sha256": digest(err.getvalue().encode()),
        "report_sha256": digest(report.read_bytes()) if report.exists() else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--output", default=None, help="sweep JSON (default stdout)")
    parser.add_argument("--jobs", nargs="+", default=None, help="run only these jobs")
    parser.add_argument("--reports", default=None, help="keep each report in this directory")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        table = jobs(workdir)
        names = args.jobs or list(table)
        unknown = sorted(set(names) - set(table))
        if unknown:
            parser.error(f"unknown jobs {unknown}; known: {', '.join(table)}")
        keep = Path(args.reports) if args.reports else workdir
        keep.mkdir(parents=True, exist_ok=True)
        sweep = {name: run_job(table[name], keep / f"{name}.json") for name in names}

    text = json.dumps(sweep, indent=1, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
