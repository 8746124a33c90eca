"""Center-of-mass solver: Newton steps on the renormalized energy, with
geodesic descent as their fallback and as the paper's own method.

A Newton trial is the trust-region step of the closed-form Hessian at the
current point.  Where that Hessian has a Cholesky factor the step descends
(1/2)|grad E|^2 (Dennis and Schnabel, 1983, ch. 6), so the trial is accepted
on one rule: the euclidean gradient norm |V|/(1 - |x|^2) falls.  That norm is
a sum without cancellation; the summed energy is not.  Without a factor, or
on a rejected trial, one descent step follows: along the exact geodesic
x <- T_x(-tanh(tau) V/|V|), where the energy's directional derivative is
-|V|, an Armijo-backtracked arclength step with E_new <= E - c1 tau |V|, or
with a decrease of |V| where the energy change is below its rounding.  Each
trial point costs one energy_and_field pass; an accepted point keeps its
field and the means to assemble its Hessian from that pass.

These rules are written once, as a coroutine (_solve_steps) that yields each
point it needs evaluated and each Newton model it needs solved.  A single
start answers them one at a time.  multistart_probe runs every start in
lockstep: one round answers all pending Newton models with one stacked
Cholesky and then all pending points with one energy_and_field pass over the
block.  Each batched operation is batch-invariant, so every start's result
equals its single-start solve bit for bit.

Non-convergence is a result state (converged=False), with one exception:
iterates escaping to the boundary without residual decrease raise
DivergentIterates, the signature of a measure with no center (signed measures
with vanishing total mass behave exactly this way).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrs
from scipy.stats import qmc

from .errors import DivergentIterates, DomainError
from .energy import EnergyContext, _as_interior_coords, energy_and_field, energy_context
from .geometry import (
    BallPoint,
    Locus,
    _mobius_rows,
    hyp_distance,
    interior_point,
    translate_coords,
)
from .measures import CO_LOCATION_TOL, AtomicMeasure, GeodesicSupport, Support
from .weights import Monotonicity

ARMIJO_DECREASE = 1e-4
ARMIJO_BACKTRACK = 0.5
BOUNDARY_ESCAPE = 1e-14
CLUSTER_TOL = 1e-6
MULTISTART_RADIUS = math.tanh(2.0)


class Strategy(Enum):
    GEODESIC_DESCENT = "descent"
    NEWTON_ACCELERATED = "newton"


class HypothesisClass(Enum):
    """Strongest guarantee the (weight, measure) pair supports.

    The first four imply a unique center; SIGNED_EXISTENCE_ONLY implies a
    center exists but says nothing about uniqueness; NO_GUARANTEE promises
    nothing (the solver still runs).
    """

    INTERIOR_STRICT = "interior_strict"
    INTERIOR_SPREAD = "interior_spread"
    BOUNDARY_STRICT = "boundary_strict"
    BOUNDARY_SPREAD = "boundary_spread"
    SIGNED_EXISTENCE_ONLY = "signed_existence_only"
    NO_GUARANTEE = "no_guarantee"


UNIQUENESS_CLASSES = frozenset(
    {
        HypothesisClass.INTERIOR_STRICT,
        HypothesisClass.INTERIOR_SPREAD,
        HypothesisClass.BOUNDARY_STRICT,
        HypothesisClass.BOUNDARY_SPREAD,
    }
)


class UniquenessKind(Enum):
    GUARANTEED = "guaranteed"
    MULTISTART_AGREE = "multistart_agree"
    AMBIGUOUS = "ambiguous"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Uniqueness:
    kind: UniquenessKind
    representatives: tuple = ()


@dataclass(frozen=True)
class SolveOptions:
    """Solve settings; the default strategy is Newton with the descent fallback."""

    tol_residual: float = 1e-10
    max_iters: int = 500
    initial: Sequence[float] | BallPoint | None = None
    strategy: Strategy = Strategy.NEWTON_ACCELERATED
    multistart: int = 1

    def __post_init__(self) -> None:
        tol = self.tol_residual
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
            raise DomainError(f"tol_residual must be a finite positive number, not {tol!r}")
        for name in ("max_iters", "multistart"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise DomainError(f"{name} must be an integer >= 1, not {count!r}")
        try:  # accepts a Strategy or its name
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        except ValueError as exc:
            raise DomainError(f"unknown strategy {self.strategy!r}") from exc
        if self.initial is not None:
            interior_point(self.initial)


@dataclass(frozen=True, eq=False)
class SolveResult:
    x_c: BallPoint
    residual: float
    iterations: int
    energy_at_min: float
    converged: bool
    uniqueness: Uniqueness
    hypothesis_class: HypothesisClass
    trace: tuple = field(default=(), repr=False)


def classify_hypotheses(ctx: EnergyContext) -> HypothesisClass:
    """Strongest guarantee class whose hypotheses the context satisfies."""
    report = ctx.validation
    w = ctx.weight
    if report.signed:
        if (
            report.total > 0.0
            and w.g1 is not None
            and w.g1 > 0.0
            and report.boundary_pointmass_ok
        ):
            return HypothesisClass.SIGNED_EXISTENCE_ONLY
        return HypothesisClass.NO_GUARANTEE

    strict = w.monotonicity is Monotonicity.STRICTLY_INCREASING
    spread = (
        w.monotonicity is Monotonicity.INCREASING
        and w.positive_interior
        and report.geodesic_support is GeodesicSupport.NOT_IN_GEODESIC
    )
    if report.support is Support.COMPACT_INTERIOR:
        if not w.divergent_G:
            return HypothesisClass.NO_GUARANTEE
        if strict:
            return HypothesisClass.INTERIOR_STRICT
        if spread:
            return HypothesisClass.INTERIOR_SPREAD
        return HypothesisClass.NO_GUARANTEE
    # touches the sphere: existence needs g(1) > 0 and the point-mass bound
    if w.g1 is None or w.g1 <= 0.0 or not report.boundary_pointmass_ok:
        return HypothesisClass.NO_GUARANTEE
    if strict:
        return HypothesisClass.BOUNDARY_STRICT
    if spread:
        return HypothesisClass.BOUNDARY_SPREAD
    return HypothesisClass.NO_GUARANTEE


def _auto_initial(ctx: EnergyContext) -> np.ndarray:
    """Euclidean weighted mean of the atoms, clipped to radius 0.9."""
    total = ctx.total
    if total <= 0.0:
        mean = np.zeros(ctx.dimension)
    else:
        mean = (ctx.measure.weights @ ctx.measure.locations) / total
    nr = float(np.linalg.norm(mean))
    if nr > 0.9:
        mean = mean * (0.9 / nr)
    return mean


def _initial_coords(ctx: EnergyContext, opts: SolveOptions) -> np.ndarray:
    if opts.initial is None:
        return _auto_initial(ctx)
    return np.array(_as_interior_coords(ctx, interior_point(opts.initial)))


def _cholesky(hess: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None


def _newton_steps(models: list[tuple]) -> list[np.ndarray | None]:
    """_newton_step for each (x, V, 1 - |x|^2, H) model, with one Cholesky over
    the stack of the finite Hessians (per matrix when one of them is not
    positive definite)."""
    finite = [i for i, (*_, hess) in enumerate(models) if np.isfinite(hess).all()]
    stack = np.array([models[i][-1] for i in finite])
    try:
        lows = np.linalg.cholesky(stack) if finite else []
    except np.linalg.LinAlgError:
        lows = [_cholesky(h) for h in stack]
    steps = [None] * len(models)
    for i, low in zip(finite, lows):
        if low is not None:
            steps[i] = _newton_step(*models[i][:-1], low)
    return steps


def _newton_step(x: np.ndarray, v: np.ndarray, omx: float, low: np.ndarray) -> np.ndarray | None:
    """Trust-region Newton trial point from the Hessian's Cholesky factor, or
    None when the trial would leave the ball; omx is 1 - |x|^2."""
    delta = -dpotrs(low, v / omx, lower=1)[0]
    # keep the trial inside the ball with margin
    trust = 0.5 * omx
    nd = float(np.linalg.norm(delta))
    if nd > trust:
        delta = delta * (trust / nd)
    trial = x + delta
    if float(np.linalg.norm(trial)) >= 1.0 - 1e-12:
        return None
    return trial


def solve_center(ctx: EnergyContext, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Find a zero of V by Newton steps with the descent fallback, or by descent.

    With ``opts.multistart >= 2`` this delegates to multistart_probe.  Raises
    DivergentIterates when iterates reach |x| >= 1 - 1e-14, which existence
    theory reserves for measures without a center.
    """
    if opts.multistart >= 2:
        return multistart_probe(ctx, replace(opts, multistart=1), opts.multistart)
    steps = _solve_steps(ctx, opts, _initial_coords(ctx, opts))
    answer = None
    while True:
        try:
            kind, request = steps.send(answer)
        except StopIteration as done:
            return done.value
        if kind is _EVALUATE:
            answer = energy_and_field(ctx, request)
        else:
            answer = _newton_steps([request])[0]


_EVALUATE, _NEWTON = "evaluate", "newton"


def _solve_steps(ctx: EnergyContext, opts: SolveOptions, x: np.ndarray):
    """The solve from x as a coroutine.  It yields (_EVALUATE, point) and is
    sent energy_and_field's (E, V, Hessian function, 1 - |x|^2) at that point;
    it yields (_NEWTON, (x, V, 1 - |x|^2, H)) and is sent that model's
    _newton_step.  It returns the SolveResult, or raises DivergentIterates."""
    cls = classify_hypotheses(ctx)
    scale = ctx.residual_scale()
    e_x, v, hessian, omx = yield _EVALUATE, x
    vnorm = float(np.linalg.norm(v))
    res = res0 = vnorm / scale
    best = (x, res, e_x)
    trace: list[tuple[float, float]] = [(e_x, res)]

    iters = 0
    gain = 1.0  # adaptive multiple of the gradient-scaled step
    converged = res <= opts.tol_residual
    while not converged and iters < opts.max_iters:
        iters += 1
        moved = False
        if opts.strategy is Strategy.NEWTON_ACCELERATED:
            trial = yield _NEWTON, (x, v, omx, hessian())
            if trial is not None:
                e_t, v_t, h_t, omx_t = yield _EVALUATE, trial
                vnorm_t = float(np.linalg.norm(v_t))
                if vnorm_t / omx_t < vnorm / omx:
                    x, e_x, v, hessian, omx, vnorm = trial, e_t, v_t, h_t, omx_t, vnorm_t
                    moved = True
        if not moved:
            # once a decrease falls below the energy's floating-point
            # resolution the energy test reads pure noise; there steps are
            # accepted on a decrease of |V| instead
            slack = 1e-15 * (1.0 + abs(e_x))
            direction = -v / vnorm
            # step proportional to |V|/total, with a gain that doubles on
            # clean acceptance and shrinks with backtracks: the bare rule
            # contracts like (1 - curvature/total) and stalls past the
            # iteration budget on ill-conditioned measures
            tau0 = min(1.0, gain * vnorm / scale)
            tau = tau0
            while tau > 1e-15:
                x_t = translate_coords(x, math.tanh(tau) * direction)
                e_t, v_t, h_t, omx_t = yield _EVALUATE, x_t
                armijo = e_t <= e_x - ARMIJO_DECREASE * tau * vnorm
                if armijo or (
                    e_t <= e_x + slack and float(np.linalg.norm(v_t)) < vnorm
                ):
                    break
                tau *= ARMIJO_BACKTRACK
            else:
                break  # stationary to machine precision
            gain_eff = gain * (tau / tau0)
            if armijo:
                # decrease ratio against the linear model: near 1 means the
                # step is far below the curvature scale (grow the gain), small
                # means overshoot past the valley floor (shrink it)
                ratio = (e_x - e_t) / (tau * vnorm)
                if ratio >= 0.7:
                    gain = max(1.0, 2.0 * gain_eff)
                elif ratio >= 0.3:
                    gain = max(1.0, gain_eff)
                else:
                    gain = max(1.0, 0.5 * gain_eff)
            else:
                gain = max(1.0, gain_eff)
            x, e_x, v, hessian, omx = x_t, e_t, v_t, h_t, omx_t
            vnorm = float(np.linalg.norm(v))
        res = vnorm / scale
        trace.append((e_x, res))
        if res < best[1]:
            best = (x, res, e_x)
        if float(np.linalg.norm(x)) >= 1.0 - BOUNDARY_ESCAPE:
            if best[1] >= 0.5 * res0:
                raise DivergentIterates(
                    f"iterates reached the boundary with residual {res:.3e} "
                    f"(initial {res0:.3e}); no center of mass exists"
                )
            break
        converged = res <= opts.tol_residual

    if not converged:
        x, res, e_x = best
    uniq = (
        Uniqueness(UniquenessKind.GUARANTEED)
        if cls in UNIQUENESS_CLASSES
        else Uniqueness(UniquenessKind.UNKNOWN)
    )
    # iterates are interior by construction; bypass the boundary snap so a
    # near-sphere best iterate cannot come back classified as Boundary
    return SolveResult(
        x_c=BallPoint(np.array(x), Locus.INTERIOR),
        residual=res,
        iterations=iters,
        energy_at_min=e_x,
        converged=converged,
        uniqueness=uniq,
        hypothesis_class=cls,
        trace=tuple(trace),
    )


def _multistart_points(ctx: EnergyContext, opts: SolveOptions, starts: int,
                       seed: int = 0) -> list[np.ndarray]:
    """The single-start initial point plus low-discrepancy points of hyperbolic radius <= 2."""
    pts = [_initial_coords(ctx, opts)]
    sampler = qmc.Halton(d=ctx.dimension, scramble=True, seed=seed)
    while len(pts) < starts + 1:
        for row in sampler.random(max(32, starts)):
            y = MULTISTART_RADIUS * (2.0 * row - 1.0)
            if float(np.linalg.norm(y)) <= MULTISTART_RADIUS:
                pts.append(y)
                if len(pts) == starts + 1:
                    break
    return pts


def multistart_probe(
    ctx: EnergyContext, opts: SolveOptions, starts: int, seed: int = 0
) -> SolveResult:
    """Solve from many starts and cluster the converged endpoints.

    The starts are solved in lockstep (_lockstep); each start's result
    equals solve_center from that start.  Endpoints within hyperbolic distance
    1e-6 of a cluster's first endpoint join it; a single cluster reports
    MULTISTART_AGREE, several report AMBIGUOUS with sorted representatives.
    """
    if starts < 2:
        raise DomainError("multistart needs at least 2 starts")
    outcomes = _lockstep(ctx, opts, _multistart_points(ctx, opts, starts, seed))
    runs = [r for r in outcomes if r is not None]
    converged = [r for r in runs if r.converged]
    if not converged:
        if not runs:
            raise DivergentIterates("every start diverged to the boundary")
        fallback = min(runs, key=lambda r: r.residual)
        return replace(fallback, uniqueness=Uniqueness(UniquenessKind.UNKNOWN))

    # sorted clustering: order-independent representatives; each cluster
    # takes its members from the endpoints left in one kernel pass
    endpoints = sorted(converged, key=lambda r: tuple(r.x_c.coords))
    clusters: list[list[SolveResult]] = []
    while endpoints:
        head, rest = endpoints[0], endpoints[1:]
        rows = np.array([r.x_c.coords for r in rest]).reshape(len(rest), ctx.dimension)
        near = (
            _mobius_rows(-head.x_c.coords, rows, np.zeros(len(rest), dtype=bool)).arclengths
            <= CLUSTER_TOL
        )
        clusters.append([head, *(r for r, k in zip(rest, near) if k)])
        endpoints = [r for r, k in zip(rest, near) if not k]
    reps = tuple(
        min(cl, key=lambda r: r.energy_at_min).x_c for cl in clusters
    )
    best = min(converged, key=lambda r: r.energy_at_min)
    kind = (
        UniquenessKind.MULTISTART_AGREE
        if len(clusters) == 1
        else UniquenessKind.AMBIGUOUS
    )
    return replace(best, uniqueness=Uniqueness(kind, reps))


def _lockstep(
    ctx: EnergyContext, opts: SolveOptions, starts: list[np.ndarray]
) -> list[SolveResult | None]:
    """Run _solve_steps from every start in rounds.  A round answers all
    pending Newton models with one _newton_steps call, then all pending points
    with one energy_and_field pass over their block.  Returns each start's
    result, None where it diverged; any other exception leaves the probe."""
    solves = [_solve_steps(ctx, opts, x0) for x0 in starts]
    results: list[SolveResult | None] = [None] * len(solves)
    pending: dict[int, tuple] = {}

    def advance(i: int, answer) -> None:
        try:
            pending[i] = solves[i].send(answer)
        except StopIteration as done:
            results[i] = done.value
            pending.pop(i, None)
        except DivergentIterates:
            pending.pop(i, None)

    for i in range(len(solves)):
        advance(i, None)
    while pending:
        for kind in (_NEWTON, _EVALUATE):
            ids = [i for i, (k, _) in pending.items() if k is kind]
            if not ids:
                continue
            requests = [pending[i][1] for i in ids]
            if kind is _NEWTON:
                answers = _newton_steps(requests)
            else:
                answers = zip(*energy_and_field(ctx, np.array(requests)))
            for i, answer in zip(ids, answers):
                advance(i, answer)
    return results


def measure_delta(base: AtomicMeasure, other: AtomicMeasure) -> float:
    """Total-variation-style distance between atom lists.

    Atoms are matched by location (rounded to 12 decimals) and, if either
    measure carries exact 1 - |y|^2 data, by that datum to relative
    CO_LOCATION_TOL.  The result sums |weight difference| over matched
    locations plus |weight| of unmatched atoms.
    """
    exact = base.one_minus_sq is not None or other.one_minus_sq is not None
    def keyed(mu: AtomicMeasure) -> dict:
        keys = np.round(mu.locations, 12)
        if exact:
            with np.errstate(divide="ignore"):
                log_omy = np.log(mu.one_minus_sq_values) / CO_LOCATION_TOL
            keys = np.column_stack([keys, np.round(log_omy)])
        table: dict[tuple, float] = {}
        for key, w in zip(map(tuple, keys.tolist()), mu.weights.tolist()):
            table[key] = table.get(key, 0.0) + w
        return table

    a, b = keyed(base), keyed(other)
    return float(
        math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))
    )


def continuity_probe(
    ctx: EnergyContext, perturbations: Sequence[AtomicMeasure]
) -> list[tuple[float, float]]:
    """Solve the base and each perturbed measure with default options; report
    displacements.

    Returns (perturbation size, hyperbolic displacement of the center) per
    perturbation, in input order.  Under the continuous-dependence hypotheses
    the displacement shrinks with the perturbation; families escaping every
    compact subset of the ball are exactly the documented failure mode.
    """
    base = solve_center(ctx)
    out = []
    for mu in perturbations:
        pert_ctx = energy_context(ctx.weight, mu)
        moved = solve_center(pert_ctx)
        out.append(
            (
                measure_delta(ctx.measure, mu),
                hyp_distance(base.x_c, moved.x_c),
            )
        )
    return out
