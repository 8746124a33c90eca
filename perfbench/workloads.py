"""The four benchmark workloads: inputs, one job, and the job's check.

A workload builds its inputs once from the workload seed (``build``), runs one
job at a time (``run``), and checks each job's answer independently with
plain numpy (``check``).  A check returns None when the answer is correct and
a one-line reason otherwise.  Inputs are drawn from a fixed-size pool that
jobs cycle through, so a run of any length needs only a bounded set-up.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

from hypcenter import cli, energy, measures, solver, weights

NEWTON = solver.Strategy.NEWTON_ACCELERATED
MOMENT_BOUND = 1e-9
FIELD_BOUND = 1e-10


def _rng(seed: int, name: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *extra])


def _translate(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """T_x(y) for each row of ys: the Mobius translation sending 0 to x."""
    xx = float(x @ x)
    d = ys @ x
    yy = np.einsum("ij,ij->i", ys, ys)
    num = (1.0 + 2.0 * d + yy)[:, None] * x[None, :] + (1.0 - xx) * ys
    return num / (1.0 + 2.0 * d + xx * yy)[:, None]


def _moment_ratio(points: np.ndarray, w: np.ndarray) -> float:
    """|sum_i w_i z_i| / sum_i w_i, the first moment relative to the mass."""
    return float(np.linalg.norm(w @ points)) / math.fsum(w)


def _directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    d = rng.normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1)[:, None]


class SphereMultistart:
    """Criterion-6 sphere measures, solved by Newton from 21 starts."""

    name = "sphere_multistart"
    nominal_job_s = 0.15
    pool = 300  # a multiple of 3, so every pass covers dimensions 2-4 equally

    def build(self, seed: int, workdir: str) -> None:
        self.weight = weights.identity()
        self.opts = solver.SolveOptions(strategy=NEWTON, multistart=20)
        self.inputs = []
        for i in range(self.pool):
            rng = _rng(seed, self.name, i)
            n = 2 + i % 3
            count = int(rng.integers(3, 51))
            while True:
                dirs = _directions(rng, count, n)
                w = rng.uniform(0.2, 1.0, size=count)
                if np.max(w) < 0.4 * np.sum(w):
                    break
            mu = measures.atomic_measure([(d, wi) for d, wi in zip(dirs, w)])
            self.inputs.append((mu, dirs, w))

    def run(self, i: int):
        mu = self.inputs[i % self.pool][0]
        ctx = energy.energy_context(self.weight, mu)
        return solver.solve_center(ctx, self.opts)

    def check(self, i: int, result) -> str | None:
        _, dirs, w = self.inputs[i % self.pool]
        if not result.converged:
            return "not converged"
        if result.uniqueness.kind is not solver.UniquenessKind.MULTISTART_AGREE:
            return f"uniqueness {result.uniqueness.kind.value}"
        ratio = _moment_ratio(_translate(np.array(result.x_c.coords), dirs), w)
        if not ratio < MOMENT_BOUND:
            return f"first moment {ratio:.3e} / total"
        return None


class LargeCenter:
    """CLI ``center`` on a 5000-atom interior measure in 3-d."""

    name = "large_center"
    nominal_job_s = 1.7
    pool = 4
    atoms = 5000

    def build(self, seed: int, workdir: str) -> None:
        self.jobs = []
        for i in range(self.pool):
            rng = _rng(seed, self.name, i)
            dirs = _directions(rng, self.atoms, 3)
            locs = np.tanh(rng.uniform(0.0, 3.0, size=self.atoms))[:, None] * dirs
            w = rng.uniform(0.2, 1.0, size=self.atoms)
            doc = {
                "dimension": 3,
                "atoms": [{"x": x, "w": wi} for x, wi in zip(locs.tolist(), w.tolist())],
                "weight": {"kind": "identity", "params": {}},
                "options": {"strategy": "newton"},
            }
            path = os.path.join(workdir, f"job{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.jobs.append((path, os.path.join(workdir, f"report{i}.json"), locs, w))

    def run(self, i: int):
        path, out, _, _ = self.jobs[i % self.pool]
        return cli.main(["center", "-i", path, "-o", out])

    def check(self, i: int, code) -> str | None:
        _, out, _, w = self.jobs[i % self.pool]
        if code != 0:
            return f"exit code {code}"
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["converged"] is not True:
            return "not converged"
        atoms = report["recentered_input"]["atoms"]
        z = np.array([a["x"] for a in atoms])
        if z.shape != (self.atoms, 3):
            return f"recentered_input has shape {z.shape}"
        ratio = _moment_ratio(z, w)
        if not ratio < MOMENT_BOUND:
            return f"first moment {ratio:.3e} / total"
        return None

    def probes(self, jobs: int) -> dict:
        """How many of the first ``jobs`` jobs' measures the default solve
        (``descent``) converges on; each distinct measure is solved once."""
        converged = []
        for _, _, locs, w in self.jobs[:jobs]:
            mu = measures.atomic_measure(list(zip(locs, w.tolist())))
            ctx = energy.energy_context(weights.identity(), mu)
            converged.append(solver.solve_center(ctx, solver.SolveOptions()).converged)
        count = sum(converged[i % self.pool] for i in range(jobs))
        return {"solver.descent_converged": count}


class QuadratureWeights:
    """2-d interior measures solved under a weight whose G is a quadrature.

    A job solves one measure with Newton under ``log_damped``.  The other
    quadrature weight, ``table``, is solved only by the traced run's
    ``solver.table_converged`` probe, out of ``table_probes`` measures: there
    Newton stalls on a few percent of these measures (residual 3e-7 on measure
    9 at seed 1), because quad's G is off by up to 1.6e-8 near the table
    knots, which moves the energy's minimizer off the zero of V.
    """

    name = "quadrature_weights"
    nominal_job_s = 0.015
    pool = 900  # a multiple of 9, so every pass covers 8-16 atoms equally
    table_probes = 10

    def build(self, seed: int, workdir: str) -> None:
        self.weight = weights.log_damped()
        self.table = weights.table(
            [0.0, 0.25, 0.5, 0.75, 1.0],
            [0.0, 0.2, 0.45, 0.7, 1.0],
            monotonicity=weights.Monotonicity.STRICTLY_INCREASING,
            divergent_G=True,
        )
        self.opts = solver.SolveOptions(strategy=NEWTON)
        self.inputs = []
        for i in range(self.pool):
            rng = _rng(seed, self.name, i)
            count = 8 + i % 9
            locs = np.tanh(rng.uniform(0.0, 2.0, size=count))[:, None] * _directions(
                rng, count, 2
            )
            w = rng.uniform(0.2, 1.0, size=count)
            mu = measures.atomic_measure(list(zip(locs, w.tolist())))
            self.inputs.append((mu, locs, w))

    def run(self, i: int):
        mu = self.inputs[i % self.pool][0]
        return solver.solve_center(energy.energy_context(self.weight, mu), self.opts)

    def check(self, i: int, result) -> str | None:
        _, locs, w = self.inputs[i % self.pool]
        if not result.converged:
            return "not converged"
        z = _translate(np.array(result.x_c.coords), locs)
        r = np.linalg.norm(z, axis=1)
        units = np.divide(z, r[:, None], out=np.zeros_like(z), where=r[:, None] > 0)
        field = (w * weights.eval_g(self.weight, r)) @ units
        ratio = float(np.linalg.norm(field)) / math.fsum(w)
        if not ratio <= FIELD_BOUND:
            return f"|V(x_c)| / total = {ratio:.3e}"
        return None

    def probes(self, jobs: int) -> dict:
        """How many of the first ``table_probes`` measures the ``table`` Newton
        solve converges on."""
        converged = sum(
            solver.solve_center(energy.energy_context(self.table, mu), self.opts).converged
            for mu, _, _ in self.inputs[: self.table_probes]
        )
        return {"solver.table_converged": converged}


class OracleVerify:
    """CLI ``verify``: the oracle's property scans at a per-job seed."""

    name = "oracle_verify"
    nominal_job_s = 2.2

    def build(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "verify.json")

    def job_seed(self, i: int) -> int:
        return 1000 * self.seed + i

    def run(self, i: int):
        return cli.main(["verify", "--seed", str(self.job_seed(i)), "-o", self.out])

    def check(self, i: int, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(self.out, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["pass"] is not True or report["seed"] != self.job_seed(i):
            return "verify report did not pass"
        return None


WORKLOADS = {
    w.name: w for w in (SphereMultistart, LargeCenter, QuadratureWeights, OracleVerify)
}
