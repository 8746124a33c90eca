"""hypcenter benchmark: one workload per fresh interpreter, one job at a time.

    python3 perfbench/run.py --workload sphere_multistart --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload

Run from the root of a checkout.  Each run first starts the worker several
times to measure set-up alone (fresh interpreter until the first job could
start), then once more for the measured closed loop.  It prints every metric
with its unit and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sphere_multistart", "large_center", "quadrature_weights", "oracle_verify")
SETUP_RUNS = 3  # set-ups measured per run, the measured loop's own included
SETUP_TIMEOUT_S = 60.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    # one client and no threads of the benchmark's own: BLAS runs one thread
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its time from start until ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, ready_s


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure set-up, then run the closed loop; return the worker's record.

    Each set-up is bracketed by the reference kernel: before it and after
    it here, or, for the measured loop's own set-up, before it here and
    before the first job in the worker.
    """
    common = ["--workload", name, "--seed", str(seed)]
    setups, brackets = [], []
    for _ in range(SETUP_RUNS - 1):
        before = speed.bracket(0.05)
        proc, ready_s = _start_worker([*common, "--setup-only"])
        _finish(proc, SETUP_TIMEOUT_S)
        setups.append(ready_s)
        brackets.append([before, speed.bracket(0.05)])
    before = speed.bracket(0.05)
    proc, ready_s = _start_worker(
        [*common, "--seconds", repr(seconds), "--trace", str(trace)]
    )
    # a traced run runs its jobs twice, plus the probe solves
    out = _finish(proc, 60.0 + (5.0 if trace else 2.0) * seconds)
    record = json.loads(out.strip().splitlines()[-1])
    setups.append(ready_s)
    brackets.append([before, record["kernel"][0]] if "kernel" in record else [before])
    record["setup_runs_s"] = setups
    record["setup_scaled_s"] = [speed.scale(t, k) for t, k in zip(setups, brackets)]
    return record


def tail_percentile(n: int) -> float | None:
    """Highest percentile (whole number) that leaves at least 10 of n beyond it."""
    if n < 20:
        return None
    return math.floor(100.0 * (n - 10) / n)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(record: dict) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, with the raw values as extras."""
    raw = record["latencies"]
    kernel = record["kernel"]
    # each job is bracketed by the kernel runs just before and after it
    lat = [speed.scale(t, kernel[i : i + 2]) for i, t in enumerate(raw)]
    attempted = len(lat)
    failed = len(record["failures"])
    passed = attempted - failed
    busy = math.fsum(t for t in lat if math.isfinite(t))
    metrics = {
        "setup_s": (statistics.median(record["setup_scaled_s"]), "s"),
        "jobs_per_s": (passed / busy, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    extra = {"fail_ratio": (failed / attempted, "fraction")}
    pct = tail_percentile(attempted)
    if pct is not None:
        extra["job_tail_s"] = (percentile(sorted(lat), pct), "s")
        extra["job_tail_pct"] = (pct, "percentile")
    extra["raw_setup_s"] = (statistics.median(record["setup_runs_s"]), "s")
    extra["raw_jobs_per_s"] = (passed / record["busy_s"], "1/s")
    extra["raw_job_p50_s"] = (statistics.median(raw), "s")
    extra["speed_vs_reference"] = (
        speed.REFERENCE_S * len(kernel) / math.fsum(kernel), "ratio"
    )
    return metrics, extra


def per_layer(record: dict) -> tuple[dict, dict]:
    from tracer import PER_LAYER

    layers = dict(record["layers"], **{"setup.import_s": record["import_s"]})
    return {name: (layers[name], unit) for name, unit, _ in PER_LAYER}, {}


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(record: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    src = os.path.join(ROOT, "src")
    lines = 0
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(os.path.join(base, f), src).encode())
                digest.update(data)
    env = _worker_env()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "versions": record["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "setup_runs_s": record["setup_runs_s"],
        "jobs": len(record["latencies"]),
        "trace_jobs": record.get("trace_jobs"),
        "top_self_s": record.get("top_self"),
        "spans_file": record.get("spans_file"),
    }


def report(name: str, seed: int, seconds: float, trace: int) -> dict:
    record = run_workload(name, seed, seconds, trace)
    metrics, extra = (per_layer if trace else end_to_end)(record)
    meta = metadata(record, name, seed, seconds, trace)
    width = max(len(k) for k in (*metrics, *extra))
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={trace}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    if "job_tail_s" not in extra and not trace:
        print(f"  job_tail_s undefined: {meta['jobs']} jobs, fewer than 20")
    if trace:
        top = ", ".join(f"{n} {s:.3f} s" for n, s in record["top_self"])
        print(f"  largest self times: {top}")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")
    print("meta " + json.dumps(meta))
    failed = len(record["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(record["latencies"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "hypcenter", "__init__.py")):
        sys.stderr.write(f"error: no hypcenter sources under {ROOT}/src\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
