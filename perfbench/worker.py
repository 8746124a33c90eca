"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, never imported.  Imports hypcenter from the checkout's
``src/``, builds the workload's inputs, prints ``ready`` and then runs jobs
one at a time in a closed loop.  The last line of its standard output is a
JSON object with the raw measurements, which run.py turns into metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _job(wl, i: int, tracer=None) -> tuple[float, str | None]:
    """Run and time job i; its check runs afterwards, off the clock and
    outside any trace.  Returns (latency, failure or None); an exception in
    the job or its check fails the job."""
    if tracer is not None:
        tracer.job_id = i
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = wl.run(i)
        error = None
    except Exception:
        error = "job raised: " + traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            error = wl.check(i, out)
        except Exception:
            error = "check raised: " + traceback.format_exc(limit=3)
    return dt, None if error is None else f"job {i}: {error}"


class Loop:
    """Latencies, failures and busy time of the jobs run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.busy_s = 0.0

    def add(self, dt: float, failure: str | None) -> None:
        self.latencies.append(math.inf if failure else dt)
        if failure:
            self.failures.append(failure)
        self.busy_s += dt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hypcenter  # noqa: F401  (imported here so that set-up times it)

    import_s = time.perf_counter() - t0
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl.build(args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = {
            "import_s": import_s,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
        if args.trace:
            result.update(_traced(wl, args))
        else:
            # closed loop: the next job starts when the previous one is done
            # the reference kernel brackets every job, off the clock
            loop = Loop()
            kernel = [speed.bracket(0.05)]
            while loop.busy_s < args.seconds:
                dt, failure = _job(wl, len(loop.latencies))
                loop.add(dt, failure)
                kernel.append(speed.bracket(0.05 * dt))
            result.update(vars(loop), kernel=kernel)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _traced(wl, args) -> dict:
    """Each job untraced, then again traced; per-layer totals from the spans.

    The job count follows from --seconds alone, so counts repeat exactly
    between traced runs at one seed.  Running the two passes job by job keeps
    slow drifts of the machine out of the tracing overhead.
    """
    from tracer import Tracer

    jobs = max(2, math.ceil(args.seconds / wl.nominal_job_s))
    plain, traced = Loop(), Loop()
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(jobs):
            # a job's second run finds warm caches, so the order alternates
            if i % 2:
                traced.add(*_job(wl, i, tracer))
                plain.add(*_job(wl, i))
            else:
                plain.add(*_job(wl, i))
                traced.add(*_job(wl, i, tracer))
    finally:
        tracer.remove()
    layers = tracer.metrics()
    layers["trace.overhead_s"] = traced.busy_s - plain.busy_s
    # solves outside the timed jobs that keep known solver stalls visible
    layers["solver.descent_converged"] = layers["solver.table_converged"] = 0
    if hasattr(wl, "probes"):
        layers.update(wl.probes(jobs))
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz")
    tracer.write(spans)
    return {
        "trace_jobs": jobs,
        "latencies": plain.latencies + traced.latencies,
        "busy_s": plain.busy_s,
        "failures": plain.failures + traced.failures,
        "layers": layers,
        "top_self": tracer.top_self(layers),
        "spans_file": os.path.relpath(spans, ROOT),
    }


if __name__ == "__main__":
    sys.exit(main())
