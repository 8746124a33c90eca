"""Span tracer for the traced benchmark run.

Wraps the public functions of each hypcenter layer from outside the package:
every module-level name that is bound to one of those functions, in any
hypcenter module, is replaced by a wrapper for the duration of the run and
restored afterwards.  Callers look these names up at call time, so the
wrappers see the calls between layers without any change under ``src/``.

Each wrapped call records a span (function, start, end, parent span, job id,
rows processed).  Spans stay in memory until ``write`` is called; the
per-layer metrics are aggregated from them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

import numpy as np

# layer -> public functions wrapped in that layer's module
LAYERS = {
    "cli": ("main", "load_job", "build_context", "write_report"),
    "measures": ("atomic_measure", "validate", "pushforward"),
    "weights": ("eval_G_rs", "eval_g_rs"),
    "geometry": ("mobius_batch", "mobius", "translate_coords", "hyp_distance"),
    "energy": ("energy_context", "field_V", "renormalized_energy", "energy_and_field"),
    "solver": ("solve_center",),
    "oracle": (
        "gradient_check",
        "cocycle_check",
        "convexity_scan",
        "kernel_linearity_check",
        "boundary_continuity_check",
        "distance_convexity_check",
        "brute_force_zeros_1d",
    ),
}

# functions whose row count (atoms processed) is the length of an argument
ROWS_ARG = {
    "geometry.mobius_batch": 1,  # locations
    "weights.eval_G_rs": 1,  # radii
    "weights.eval_g_rs": 1,  # radii
}

# (metric name, unit, better) in the order the traced run reports them
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("cli.load_job.s", "s", "lower"),
    ("cli.build_context.s", "s", "lower"),
    ("cli.write_report.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("measures.atomic_measure.s", "s", "lower"),
    ("measures.validate.s", "s", "lower"),
    ("measures.pushforward.s", "s", "lower"),
    ("weights.eval_G_rs.calls", "count", "lower"),
    ("weights.eval_G_rs.rows", "count", "lower"),
    ("weights.eval_G_rs.self_s", "s", "lower"),
    ("weights.eval_g_rs.rows", "count", "lower"),
    ("weights.eval_g_rs.self_s", "s", "lower"),
    ("geometry.mobius_batch.calls", "count", "lower"),
    ("geometry.mobius_batch.rows", "count", "lower"),
    ("geometry.mobius_batch.self_s", "s", "lower"),
    ("geometry.mobius.calls", "count", "lower"),
    ("geometry.mobius.self_s", "s", "lower"),
    ("geometry.translate_coords.calls", "count", "lower"),
    ("geometry.hyp_distance.calls", "count", "lower"),
    ("energy.energy_context.self_s", "s", "lower"),
    ("energy.field_V.calls", "count", "lower"),
    ("energy.field_V.self_s", "s", "lower"),
    ("energy.renormalized_energy.calls", "count", "lower"),
    ("energy.renormalized_energy.self_s", "s", "lower"),
    ("energy.energy_and_field.calls", "count", "lower"),
    ("solver.solve_center.calls", "count", "lower"),
    ("solver.solve_center.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.field_V_per_iteration", "calls/iter", "lower"),
    ("solver.converged_ratio", "fraction", "higher"),
    ("solver.diverged", "count", "lower"),
    ("solver.descent_converged", "count", "higher"),
    ("solver.table_converged", "count", "higher"),
    ("oracle.gradient_check.s", "s", "lower"),
    ("oracle.cocycle_check.s", "s", "lower"),
    ("oracle.convexity_scan.s", "s", "lower"),
    ("oracle.kernel_linearity_check.s", "s", "lower"),
    ("oracle.boundary_continuity_check.s", "s", "lower"),
    ("oracle.distance_convexity_check.s", "s", "lower"),
    ("oracle.brute_force_zeros_1d.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Installs span-recording wrappers on the hypcenter layer functions."""

    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.fid = {name: i for i, name in enumerate(self.names)}
        self.fn: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.rows: list[int] = []
        self.stack: list[int] = []
        self.job_id = -1
        self.active = False
        self.patches: list[tuple[object, str, object]] = []
        # single-start solver outcomes, read off solve_center's results
        self.solves = 0
        self.iterations = 0
        self.converged = 0
        self.diverged = 0

    # -- installing and removing ----------------------------------------------

    def install(self) -> None:
        errors = importlib.import_module("hypcenter.errors")
        solver = importlib.import_module("hypcenter.solver")
        self._divergent = errors.DivergentIterates
        self._default_opts = solver.SolveOptions()
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hypcenter" or name.startswith("hypcenter."))
        ]
        for name in self.names:
            layer, attr = name.split(".")
            original = getattr(importlib.import_module(f"hypcenter.{layer}"), attr)
            wrapper = self._wrap(self.fid[name], original, ROWS_ARG.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, original in reversed(self.patches):
            setattr(module, key, original)
        self.patches.clear()

    def _wrap(self, fid: int, fn, rows_arg: int | None):
        tracer = self
        is_solve = fid == self.fid["solver.solve_center"]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.fn)
            tracer.fn.append(fid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.rows.append(
                int(np.size(args[rows_arg]))
                if rows_arg is not None and len(args) > rows_arg
                else 0
            )
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except tracer._divergent:
                if is_solve and tracer._single_start(args, kwargs):
                    tracer.diverged += 1
                raise
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            if is_solve and tracer._single_start(args, kwargs):
                tracer.solves += 1
                tracer.iterations += result.iterations
                tracer.converged += bool(result.converged)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _single_start(self, args, kwargs) -> bool:
        # solve_center(ctx, opts) with multistart >= 2 only fans out to
        # single-start calls, whose results are the ones counted
        opts = args[1] if len(args) > 1 else kwargs.get("opts", self._default_opts)
        return opts.multistart < 2

    # -- aggregation ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Totals per wrapped function, plus the solver ratios."""
        fn = np.asarray(self.fn, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        rows = np.asarray(self.rows, dtype=np.int64)
        child = np.zeros(len(fn))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(fn, minlength=k)
        out: dict[str, float] = {}
        for name, i in self.fid.items():
            sel = fn == i
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.rows"] = int(rows[sel].sum())
            out[f"{name}.s"] = float(dur[sel].sum())
            out[f"{name}.self_s"] = float(self_time[sel].sum())
        # field_V calls made while a solve was running
        solve_id = self.fid["solver.solve_center"]
        in_solve = 0
        for idx in np.flatnonzero(fn == self.fid["energy.field_V"]):
            p = parent[idx]
            while p >= 0 and fn[p] != solve_id:
                p = parent[p]
            in_solve += int(p >= 0)
        out["solver.iterations"] = self.iterations
        out["solver.field_V_per_iteration"] = (
            in_solve / self.iterations if self.iterations else 0.0
        )
        out["solver.converged_ratio"] = (
            self.converged / (self.solves + self.diverged)
            if self.solves + self.diverged
            else 0.0
        )
        out["solver.diverged"] = self.diverged
        out["trace.spans"] = len(fn)
        return out

    def top_self(self, agg: dict[str, float], count: int = 5) -> list[tuple[str, float]]:
        """Wrapped functions with the largest self time, largest first."""
        ranked = sorted(
            ((n, agg[f"{n}.self_s"]) for n in self.names), key=lambda kv: -kv[1]
        )
        return ranked[:count]

    def write(self, path) -> None:
        """Write every span, column by column, as gzipped JSON."""
        doc = {
            "functions": self.names,
            "columns": ["function", "start", "end", "parent", "job", "rows"],
            "function": self.fn,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "rows": self.rows,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
