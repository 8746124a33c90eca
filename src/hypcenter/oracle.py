"""Independent brute-force verification of the library's analytic claims.

Everything here recomputes what it checks from geometry and weight primitives:
finite differences of an atomwise energy (never the gradient code), grid scans
with bisection for zeros of the field, second-difference convexity scans, the
sphere-kernel cocycle identity, the boundary-continuity limit, and adaptive
quadrature of g against the closed-form antiderivatives G.  Scans are
deterministic given their seed, which every report records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .energy import (
    EnergyContext,
    energy_context,
    field_V,
    kernel_K,
    renormalized_energy,
)
from .errors import DomainError
from .geometry import (
    BallPoint,
    Geodesic,
    Locus,
    geodesic,
    geodesic_point,
    geodesic_points,
    mobius,
    one_minus_sq_norm,
    point,
)
from .measures import atomic_measure
from .weights import (
    RadialWeight, eval_G, eval_G_rs, eval_g_rs, identity, normalized_for_boundary
)


@dataclass(frozen=True)
class OracleTolerances:
    """Single source of truth for every scan's pass thresholds."""

    gradient_step: float = 1e-6
    gradient_rel: float = 1e-5
    cocycle_abs: float = 1e-11
    convexity_step: float = 1e-3
    convexity_floor: float = -1e-8
    convexity_strict: float = 1e-8
    # floor for sphere-kernel convexity along geodesics whose endpoints stay
    # at least 0.1 away from the atom's antipode
    away_strict: float = 1e-6
    linear_abs: float = 1e-8
    continuity_final_gap: float = 1e-6
    distance_line_abs: float = 1e-9
    arc_closed_form_rel: float = 1e-4
    zero_grid_span: float = 6.0
    zero_bisect_tol: float = 1e-12
    zero_flat_tol: float = 1e-13
    # quad's own accuracy (epsabs 1e-10, epsrel 1e-12) over s in [0, 8]
    antiderivative_rel: float = 1e-9


TOL = OracleTolerances()
# grid points of the 1-d zero scans, over s in [-zero_grid_span, zero_grid_span]
ZERO_SCAN_POINTS = 2001


class ScanKind(Enum):
    GRADIENT_CHECK = "gradient_check"
    CONVEXITY_SCAN = "convexity_scan"
    COCYCLE_CHECK = "cocycle_check"
    CONTINUITY_CHECK = "continuity_check"
    ZERO_SET_1D = "zero_set_1d"
    DISTANCE_CONVEXITY = "distance_convexity"
    ANTIDERIVATIVE_CHECK = "antiderivative_check"


@dataclass(frozen=True)
class ScanReport:
    kind: ScanKind
    worst_case: float
    samples: int
    passed: bool
    tolerance: float
    seed: int | None = None
    details: tuple[str, ...] = field(default=(), repr=False)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "worst_case": self.worst_case,
            "samples": self.samples,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "details": list(self.details),
        }


def _random_interior(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform() ** (1.0 / n)


def _second_difference(g: Geodesic, f: Callable[[BallPoint], float], tau: float) -> float:
    """Second difference of f along g in arclength tau, at h = TOL.convexity_step."""
    h = TOL.convexity_step
    chart = geodesic_points(g, [math.tanh(tau + k * h) for k in (-1, 0, 1)])
    vals = [f(BallPoint(row, Locus.INTERIOR)) for row in chart]
    return (vals[0] - 2.0 * vals[1] + vals[2]) / h**2


def _G_at(weight: RadialWeight, z: float) -> float:
    """G at half the Poincare distance, s = (1/2) arccosh(1 + z), where
    r = tanh s = sqrt(z/(z + 2)) and 1 - r^2 = 2/(z + 2), without cancellation."""
    s = 0.5 * math.log1p(z + math.sqrt(z * (z + 2.0)))
    return float(eval_G_rs(weight, math.sqrt(z / (z + 2.0)), s, 2.0 / (z + 2.0)))


def _atomwise_energy(ctx: EnergyContext, x: np.ndarray) -> float:
    """Renormalized energy recomputed from geometry + weight primitives only;
    interior terms take |T_x(y)| from the distance formula between -x and y
    with the measure's own 1 - |y|^2 datum, so far atoms keep their arclength."""
    omx = one_minus_sq_norm(x)
    m = ctx.measure
    terms = []
    for y, on_sphere, w, omy in zip(
        m.locations, m.boundary_mask, m.weights, m.one_minus_sq_values
    ):
        diff = x + y
        sq = float(diff @ diff)
        if on_sphere:
            val = 0.5 * math.log(sq / omx)
        else:
            g_img = _G_at(ctx.weight, 2.0 * sq / (omx * omy))
            val = g_img - _G_at(ctx.weight, 2.0 * float(y @ y) / omy)
        terms.append(float(w) * val)
    return math.fsum(terms)


def gradient_check(ctx: EnergyContext, samples: int = 1000, seed: int = 0) -> ScanReport:
    """Finite differences of the atomwise energy against the gradient V/(1-|x|^2)."""
    rng = np.random.default_rng(seed)
    h = TOL.gradient_step
    worst = 0.0
    worst_at = np.zeros(ctx.dimension)
    for _ in range(samples):
        x = _random_interior(rng, ctx.dimension, 0.95 - 2 * h)
        grad = field_V(ctx, x) / one_minus_sq_norm(x)
        fd = np.empty_like(grad)
        for j in range(ctx.dimension):
            e = np.zeros(ctx.dimension)
            e[j] = h
            fd[j] = (_atomwise_energy(ctx, x + e) - _atomwise_energy(ctx, x - e)) / (
                2.0 * h
            )
        rel = float(np.linalg.norm(fd - grad)) / max(float(np.linalg.norm(grad)), 1e-8)
        if rel > worst:
            worst, worst_at = rel, x
    return ScanReport(
        kind=ScanKind.GRADIENT_CHECK,
        worst_case=worst,
        samples=samples,
        passed=worst < TOL.gradient_rel,
        tolerance=TOL.gradient_rel,
        seed=seed,
        details=(f"worst at x={worst_at.tolist()}",),
    )


def convexity_scan(
    ctx: EnergyContext,
    geodesics: int = 20,
    steps: int = 15,
    seed: int = 0,
) -> ScanReport:
    """Second differences of the energy in arclength along random geodesics.

    Pass requires every second difference >= the convexity floor; the report
    also records whether strictness held (minimum above the strict margin).
    """
    rng = np.random.default_rng(seed)
    lowest = math.inf
    count = 0
    for _ in range(geodesics):
        base = _random_interior(rng, ctx.dimension, 0.7)
        d = rng.normal(size=ctx.dimension)
        g = geodesic(base, d)
        for tau in np.linspace(-1.2, 1.2, steps):
            second = _second_difference(g, lambda p: renormalized_energy(ctx, p.coords), tau)
            lowest = min(lowest, second)
            count += 1
    strict = lowest > TOL.convexity_strict
    return ScanReport(
        kind=ScanKind.CONVEXITY_SCAN,
        worst_case=lowest,
        samples=count,
        passed=lowest >= TOL.convexity_floor,
        tolerance=TOL.convexity_floor,
        seed=seed,
        details=(f"strict={strict}",),
    )


def kernel_linearity_check(
    ctx: EnergyContext, samples: int = 50, seed: int = 0
) -> ScanReport:
    """Sphere-kernel second differences along geodesics aimed at the antipode.

    Along the geodesic through x with chart direction T_x(y) the kernel is
    linear in arclength; every other direction is strictly convex.
    """
    rng = np.random.default_rng(seed)
    worst_linear = 0.0
    lowest_generic = math.inf
    for _ in range(samples):
        x = _random_interior(rng, ctx.dimension, 0.7)
        yv = rng.normal(size=ctx.dimension)
        y = point(yv / np.linalg.norm(yv))
        aimed = geodesic(x, mobius(x, y).coords)
        for tau in (-0.5, 0.0, 0.7):
            second = _second_difference(aimed, lambda p: kernel_K(ctx, p.coords, y), tau)
            worst_linear = max(worst_linear, abs(second))
        generic = geodesic(x, rng.normal(size=ctx.dimension))
        ends = [geodesic_point(generic, t).coords for t in (0.999, -0.999)]
        if all(float(np.linalg.norm(e + y.coords)) > 0.1 for e in ends):
            second = _second_difference(generic, lambda p: kernel_K(ctx, p.coords, y), 0.0)
            lowest_generic = min(lowest_generic, second)
    passed = worst_linear < TOL.linear_abs and lowest_generic > TOL.away_strict
    return ScanReport(
        kind=ScanKind.CONVEXITY_SCAN,
        worst_case=worst_linear,
        samples=samples,
        passed=passed,
        tolerance=TOL.linear_abs,
        seed=seed,
        details=(f"lowest generic second difference {lowest_generic:.3e}",),
    )


def cocycle_check(
    samples: int = 1000,
    seed: int = 0,
    dimensions: Sequence[int] = (2, 3),
) -> ScanReport:
    """Mobius action identity for the sphere kernel on random triples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    for n in dimensions:
        anchor = np.zeros(n)
        anchor[0] = 1.0
        ctx = energy_context(identity(), atomic_measure([(anchor, 1.0)]))
        for _ in range(samples):
            x = _random_interior(rng, n, 0.9)
            z = _random_interior(rng, n, 0.9)
            yv = rng.normal(size=n)
            y = point(yv / np.linalg.norm(yv))
            lhs = kernel_K(ctx, mobius(point(x), point(z)).coords, y)
            rhs = kernel_K(ctx, z, mobius(point(x), y)) + kernel_K(ctx, x, y)
            worst = max(worst, abs(lhs - rhs))
            total += 1
    return ScanReport(
        kind=ScanKind.COCYCLE_CHECK,
        worst_case=worst,
        samples=total,
        passed=worst < TOL.cocycle_abs,
        tolerance=TOL.cocycle_abs,
        seed=seed,
    )


def boundary_continuity_check(
    weight: RadialWeight, x: Sequence[float], y_hat: Sequence[float]
) -> ScanReport:
    """Interior kernel branch converging to the sphere branch as |y| -> 1.

    Uses the boundary-normalized weight at |y| = 1 - 10^-k, k = 2..8; the gap
    must shrink monotonically and end below the final-gap tolerance.
    """
    eps_values = [10.0**-k for k in range(2, 9)]
    w = normalized_for_boundary(weight)
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y_hat, dtype=float)
    yv = yv / np.linalg.norm(yv)
    omx = one_minus_sq_norm(xv)
    diff = xv + yv
    target = 0.5 * math.log(float(diff @ diff) / omx)
    xp = point(xv)
    gaps = []
    for eps in eps_values:
        yp = point((1.0 - eps) * yv)
        if yp.is_boundary:
            raise DomainError("eps too small: point snapped onto the sphere")
        img = mobius(xp, yp)
        val = eval_G(w, img.r) - eval_G(w, yp.r)
        gaps.append(abs(val - target))
    if all(g == 0.0 for g in gaps):
        # degenerate geometries (x = 0) agree exactly at every radius
        monotone = True
    else:
        # once the gap reaches the double-precision floor (arctanh round-trip
        # noise ~ cosh^2(s) ulp) further shrinking is meaningless
        floor = 1e-8
        monotone = all(
            a > b or max(a, b) < floor for a, b in zip(gaps, gaps[1:])
        )
    passed = monotone and gaps[-1] < TOL.continuity_final_gap
    return ScanReport(
        kind=ScanKind.CONTINUITY_CHECK,
        worst_case=gaps[-1],
        samples=len(gaps),
        passed=passed,
        tolerance=TOL.continuity_final_gap,
        details=tuple(f"eps={e:.0e} gap={g:.3e}" for e, g in zip(eps_values, gaps)),
    )


def distance_convexity_check(samples: int = 40, seed: int = 0) -> ScanReport:
    """Convexity of the distance to the origin in hyperbolic arclength.

    Off-origin geodesics: strictly positive second differences.  Lines through
    the origin: zero away from the corner.  Circular arcs centered at (a, 0)
    with a^2 = b^2 + 1: the euclidean-arclength second derivative of |x(t)|
    matches its closed form.
    """
    rng = np.random.default_rng(seed)
    h = TOL.convexity_step
    lowest = math.inf
    checked = 0
    while checked < samples:
        n = int(rng.integers(2, 4))
        base = _random_interior(rng, n, 0.7)
        g = geodesic(base, rng.normal(size=n))
        taus = np.linspace(-1.2, 1.2, 9)
        radii = [geodesic_point(g, math.tanh(t)).r for t in taus]
        if min(radii) < 0.05:
            continue
        checked += 1
        for tau in taus:
            lowest = min(lowest, _second_difference(g, lambda p: math.atanh(p.r), tau))
    positive_ok = lowest > 0.0

    line_worst = 0.0
    line = geodesic([0.0, 0.0], [1.0, 0.0])
    for tau in (0.3, 0.9, -0.6, -1.4):
        second = _second_difference(line, lambda p: math.atanh(p.r), tau)
        line_worst = max(line_worst, abs(second))
    line_ok = line_worst < TOL.distance_line_abs

    # circular-arc geodesic with a = sqrt(2), b = 1
    a, b = math.sqrt(2.0), 1.0
    arc_worst = 0.0

    def arc_norm(t: float) -> float:
        return math.sqrt(a * a - 2.0 * a * b * math.cos(t / b) + b * b)

    def closed_form(t: float) -> float:
        c = math.cos(t / b)
        return a * a * (a / b - c) * (c - b / a) / (
            a * a - 2.0 * a * b * c + b * b
        ) ** 1.5

    t_max = b * math.acos(b / a)
    for t in np.linspace(-0.8 * t_max, 0.8 * t_max, 9):
        fd = (arc_norm(t + h) - 2.0 * arc_norm(t) + arc_norm(t - h)) / h**2
        arc_worst = max(arc_worst, abs(fd - closed_form(t)) / abs(closed_form(t)))
    arc_ok = arc_worst < TOL.arc_closed_form_rel

    return ScanReport(
        kind=ScanKind.DISTANCE_CONVEXITY,
        worst_case=lowest,
        samples=checked,
        passed=positive_ok and line_ok and arc_ok,
        tolerance=0.0,
        seed=seed,
        details=(
            f"lowest off-origin second difference {lowest:.3e}",
            f"origin-line worst |second difference| {line_worst:.3e}",
            f"arc closed-form worst relative error {arc_worst:.3e}",
        ),
    )


def _quad_G(weight: RadialWeight, s: float) -> float:
    """G(tanh s) = int_0^s g(tanh u) du by adaptive quadrature in arclength,
    which removes the 1/(1 - r^2) blow-up; kinks of g are breakpoints."""
    p = weight.params
    kinks = [1.0] if weight.kind == "min_r_arctanh_inv" else []
    kinks += [row[0] for row in p.get("pieces", ())]  # clamped_arctanh, in s
    # the plateau of clamped_linear and the knots of a table, in r
    kinks += [math.atanh(r) for r in (p.get("c", 1.0), *p.get("r", ())) if r < 1.0]
    val, _err = quad(
        lambda u: float(eval_g_rs(weight, math.tanh(u), u)), 0.0, s,
        points=[k for k in kinks if 0.0 < k < s] or None,
        epsabs=1e-10, epsrel=1e-12, limit=200,
    )
    return val


def antiderivative_check(
    weight: RadialWeight, samples: int = 200, seed: int = 0
) -> ScanReport:
    """eval_G_rs against quadrature of g at random arclengths in [0, 8], or up
    to a table's last knot; errors are relative to max(|G|, 1), since quad's
    floor is absolute."""
    upper = math.atanh(min(weight.params.get("r", [1.0])[-1], math.tanh(8.0)))
    arclengths = np.random.default_rng(seed).uniform(0.0, upper, size=samples).tolist()
    refs = np.array([_quad_G(weight, s) for s in arclengths])
    got = eval_G_rs(weight, np.tanh(arclengths), np.array(arclengths))
    errs = np.abs(got - refs) / np.maximum(np.abs(refs), 1.0)
    k = int(np.argmax(errs))
    return ScanReport(
        kind=ScanKind.ANTIDERIVATIVE_CHECK,
        worst_case=float(errs[k]),
        samples=samples,
        passed=errs[k] < TOL.antiderivative_rel,
        tolerance=TOL.antiderivative_rel,
        seed=seed,
        details=(f"{weight.kind}: worst at s={arclengths[k]!r}",),
    )


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of the field component along a line through the origin."""

    points: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]


def brute_force_zeros_along_line(
    ctx: EnergyContext, direction: Sequence[float]
) -> ZeroSet:
    """Scan V . dir on x = tanh(s) dir at ZERO_SCAN_POINTS arclengths,
    bracketing sign changes by bisection.

    Grid points where |V . dir| stays below the flat tolerance merge into
    zero intervals (reported in x); isolated sign changes refine to points.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def f(s: float) -> float:
        return float(field_V(ctx, math.tanh(s) * d) @ d)

    S = TOL.zero_grid_span
    grid = np.linspace(-S, S, ZERO_SCAN_POINTS)
    vals = np.array([f(s) for s in grid])
    flat = np.abs(vals) < TOL.zero_flat_tol

    points: list[float] = []
    intervals: list[tuple[float, float]] = []
    # maximal flat runs: single grid points are point zeros, longer runs are
    # intervals
    i = 0
    while i < ZERO_SCAN_POINTS:
        if not flat[i]:
            i += 1
            continue
        j = i
        while j + 1 < ZERO_SCAN_POINTS and flat[j + 1]:
            j += 1
        if j > i:
            intervals.append((math.tanh(grid[i]), math.tanh(grid[j])))
        else:
            points.append(math.tanh(grid[i]))
        i = j + 1

    # sign changes between adjacent non-flat samples
    for i in range(ZERO_SCAN_POINTS - 1):
        if flat[i] or flat[i + 1]:
            continue
        if (vals[i] > 0) == (vals[i + 1] > 0):
            continue
        lo, hi = grid[i], grid[i + 1]
        flo = vals[i]
        while math.tanh(hi) - math.tanh(lo) > TOL.zero_bisect_tol:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        points.append(math.tanh(0.5 * (lo + hi)))

    return ZeroSet(tuple(sorted(points)), tuple(intervals))


def brute_force_zeros_1d(ctx: EnergyContext) -> ZeroSet:
    """One-dimensional zero scan of V over x = tanh(s), s in [-S, S]."""
    if ctx.dimension != 1:
        raise DomainError("1-d zero scan needs a 1-d context")
    return brute_force_zeros_along_line(ctx, [1.0])
