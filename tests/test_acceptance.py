"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion is evaluated in full (every sub-check runs even if an earlier
one failed) and asserted at its stated tolerance, including the runtime
budget.  A summary block is written to the terminal at the end of the module.
"""

import math
import time

import numpy as np
import pytest

from hypcenter import energy as en
from hypcenter import fixtures as fx
from hypcenter import geometry as geo
from hypcenter import measures as ms
from hypcenter import oracle as orc
from hypcenter import solver as sv
from hypcenter import weights as wt
from hypcenter.errors import DivergentIterates

TANH = math.tanh

_LINES: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def _summary(request):
    yield
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None and _LINES:
        tr.ensure_newline()
        tr.section("acceptance criteria", sep="-")
        for line in _LINES:
            tr.write_line(line)


def _finish(num, title, checks, elapsed, limit):
    ok = all(passed for _, passed in checks) and elapsed < limit
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {title} ({elapsed:.2f}s / {limit:.0f}s)"
    _LINES.append(line)
    print(line)
    if not ok:
        detail = "\n".join(
            f"  [{'ok' if passed else 'FAIL'}] {label}" for label, passed in checks
        )
        pytest.fail(f"{line}\n{detail}")


def test_criterion_01_two_zeros_fixture():
    t0 = time.perf_counter()
    ctx = fx.two_zeros_context()
    checks = []
    v1 = en.field_V(ctx, [TANH(1.0)])[0]
    v2 = en.field_V(ctx, [TANH(2.0)])[0]
    checks.append((f"V(tanh 1) = -2/3 within 1e-12 (got {v1 + 2 / 3:+.2e})",
                   abs(v1 + 2.0 / 3.0) < 1e-12))
    checks.append((f"V(tanh 2) = 1/4 within 1e-12 (got {v2 - 0.25:+.2e})",
                   abs(v2 - 0.25) < 1e-12))
    zeros = orc.brute_force_zeros_1d(ctx)
    half = [p for p in zeros.points if p >= 0.0]
    checks.append(("no flat zero intervals", len(zeros.intervals) == 0))
    checks.append(
        ("exactly two zero clusters on the half-line s >= 0 (the odd field "
         "also carries their mirror at -tanh(sqrt 3))",
         len(half) == 2 and len(zeros.points) == 3
         and abs(zeros.points[0] + zeros.points[2]) < 1e-9),
    )
    checks.append((f"one zero at 0 within 1e-10 (got {half[0]:+.2e})",
                   abs(half[0]) < 1e-10))
    checks.append(
        (f"one zero in (tanh 1, tanh 2) (got {half[1]:.6f})",
         TANH(1.0) < half[1] < TANH(2.0))
    )
    _finish(1, "two-zeros fixture", checks, time.perf_counter() - t0, 1.0)


def test_criterion_02_flat_interval_fixture():
    t0 = time.perf_counter()
    ctx = fx.flat_interval_context()
    worst = max(
        abs(en.field_V(ctx, [math.tanh(s)])[0]) for s in np.linspace(-0.2, 0.2, 41)
    )
    checks = [
        (f"|V| < 1e-13 across a hyperbolic-radius-0.2 interval (worst {worst:.2e})",
         worst < 1e-13)
    ]
    probe = sv.multistart_probe(ctx, sv.SolveOptions(), starts=10)
    checks.append(
        ("solver reports an ambiguous center",
         probe.uniqueness.kind is sv.UniquenessKind.AMBIGUOUS)
    )
    _finish(2, "flat-interval fixture", checks, time.perf_counter() - t0, 1.0)


def test_criterion_03_escaping_mass_fixture():
    t0 = time.perf_counter()
    checks = []
    for k in (2, 3):
        ctx = fx.escaping_mass_context(k)
        val = en.field_V(ctx, [-TANH(float(k))])[0]
        checks.append(
            (f"|V(-tanh {k})| < 1e-10 (got {abs(val):.3e})", abs(val) < 1e-10)
        )
    base = en.energy_context(wt.arctanh_power(2.0), ms.atomic_measure([([0.0], 1.0)]))
    family = [fx.escaping_mass_context(k).measure for k in (2, 3)]
    probe = sv.continuity_probe(base, family)
    sizes = [s for s, _ in probe]
    disps = [d for _, d in probe]
    checks.append(
        (f"perturbation sizes shrink ({sizes[0]:.3f} -> {sizes[1]:.3f})",
         sizes[0] > sizes[1])
    )
    checks.append(
        (f"center displacement grows ({disps[0]:.3f} -> {disps[1]:.3f}): "
         "documented continuity failure for escaping supports",
         disps[1] > disps[0] > 0.0)
    )
    _finish(3, "escaping-mass fixture", checks, time.perf_counter() - t0, 5.0)


def test_criterion_04_signed_ball_and_no_zero():
    t0 = time.perf_counter()
    ctx = fx.signed_ball_context()
    v0 = en.field_V(ctx, [0.0])[0]
    v1 = en.field_V(ctx, [TANH(1.0)])[0]
    checks = [
        (f"signed ball: |V(0)| < 1e-12 (got {abs(v0):.2e})", abs(v0) < 1e-12),
        (f"signed ball: |V(tanh 1)| < 1e-12 (got {abs(v1):.2e})", abs(v1) < 1e-12),
    ]
    probe = sv.multistart_probe(ctx, sv.SolveOptions(), starts=10)
    checks.append(
        ("signed ball: multistart reports ambiguity",
         probe.uniqueness.kind is sv.UniquenessKind.AMBIGUOUS)
    )
    nz = fx.signed_no_zero_context()
    worst = max(abs(en.field_V(nz, [x])[0] - 2.0) for x in np.linspace(-0.95, 0.95, 100))
    checks.append(
        (f"no-zero: V = 2 within 1e-12 at 100 scan points (worst dev {worst:.2e})",
         worst < 1e-12)
    )
    try:
        sv.solve_center(nz, sv.SolveOptions(initial=[0.1]))
        diverged = False
    except DivergentIterates:
        diverged = True
    checks.append(("no-zero: solver exits with divergent iterates", diverged))
    _finish(4, "signed-ball and signed-no-zero fixtures", checks,
            time.perf_counter() - t0, 2.0)


def test_criterion_05_signed_circle_fixture():
    t0 = time.perf_counter()
    ctx = fx.signed_circle_context()
    v0 = en.field_V(ctx, [0.0, 0.0])
    checks = [
        (f"V(0) = (-1, 0) within 1e-12 (dev {abs(v0[0] + 1.0):.2e}, {abs(v0[1]):.2e})",
         abs(v0[0] + 1.0) < 1e-12 and abs(v0[1]) < 1e-12)
    ]
    xs = np.tanh(np.linspace(-6.0, 6.0, 201))
    radial = [en.field_V(ctx, [x, 0.0])[0] for x in xs]
    signs = np.sign(radial)
    changes = int(np.sum(signs[1:] != signs[:-1]))
    checks.append(
        (f"radial component changes sign at least twice on the axis (got {changes})",
         changes >= 2)
    )
    _finish(5, "signed-circle fixture", checks, time.perf_counter() - t0, 1.0)


def test_criterion_06_sphere_centering_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240806)
    ident = wt.identity()
    opts = sv.SolveOptions(strategy=sv.Strategy.NEWTON_ACCELERATED)
    worst_residual = 0.0
    worst_spread = 0.0
    failures = 0
    cases = 200
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(3, 51))
        while True:
            dirs = rng.normal(size=(count, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            w = rng.uniform(0.2, 1.0, size=count)
            if np.max(w) < 0.4 * np.sum(w):
                break
        mu = ms.atomic_measure([(d, wi) for d, wi in zip(dirs, w)])
        ctx = en.energy_context(ident, mu)
        endpoints = []
        ok = True
        for x0 in sv._multistart_points(ctx, opts, 20):
            result = sv.solve_center(ctx, sv.SolveOptions(
                strategy=opts.strategy, initial=geo.point(x0)))
            if not result.converged:
                ok = False
                break
            endpoints.append(result.x_c)
        if not ok:
            failures += 1
            continue
        # pushed-forward first moment at the auto-start solution
        pushed = ms.pushforward(mu, geo.mobius_map(endpoints[0]))
        moment = np.linalg.norm(pushed.weights @ pushed.locations)
        worst_residual = max(worst_residual, float(moment) / mu.total)
        spread = max(
            geo.hyp_distance(a, b)
            for i, a in enumerate(endpoints)
            for b in endpoints[i + 1:]
        )
        worst_spread = max(worst_spread, spread)
    elapsed = time.perf_counter() - t0
    checks = [
        (f"all {cases} random sphere measures solve from all 21 starts "
         f"({failures} failures)", failures == 0),
        (f"worst normalized first moment {worst_residual:.2e} < 1e-9",
         worst_residual < 1e-9),
        (f"worst 20-start spread {worst_spread:.2e} < 1e-7 hyperbolic",
         worst_spread < 1e-7),
    ]
    _finish(6, "centering normalization on random sphere measures", checks, elapsed, 60.0)


def _interior_ctx():
    return en.energy_context(
        wt.identity(),
        ms.atomic_measure([([0.3, 0.1], 1.0), ([-0.2, 0.4], 2.0), ([0.1, -0.5], 0.5)]),
    )


def _sphere_ctx():
    ang = 2 * math.pi / 5
    atoms = [
        ([math.cos(k * ang + 0.3), math.sin(k * ang + 0.3)], 0.5 + 0.2 * k)
        for k in range(5)
    ]
    return en.energy_context(wt.identity(), ms.atomic_measure(atoms))


def _mixed_ctx():
    return en.energy_context(
        wt.clamped_linear(0.5),
        ms.atomic_measure([([0.3, 0.1], 1.0), ([0.6, 0.8], 0.7), ([-0.2, 0.4], 1.3)]),
    )


def test_criterion_07_gradient_oracle():
    t0 = time.perf_counter()
    checks = []
    for label, ctx in (("interior", _interior_ctx()), ("sphere", _sphere_ctx()),
                       ("mixed", _mixed_ctx())):
        report = orc.gradient_check(ctx, samples=1000, seed=17)
        checks.append(
            (f"{label} measure: worst relative error {report.worst_case:.2e} < 1e-5",
             report.passed)
        )
    _finish(7, "finite-difference gradient oracle", checks,
            time.perf_counter() - t0, 60.0)


def test_criterion_08_cocycle():
    t0 = time.perf_counter()
    report = orc.cocycle_check(samples=1000, seed=23, dimensions=(2, 3))
    checks = [
        (f"worst cocycle defect {report.worst_case:.2e} < 1e-11 over "
         f"{report.samples} triples", report.passed)
    ]
    _finish(8, "sphere-kernel cocycle identity", checks, time.perf_counter() - t0, 60.0)


def test_criterion_09_convexity_suites():
    t0 = time.perf_counter()
    checks = []
    for label, ctx in (("interior strict", _interior_ctx()),
                       ("boundary strict", _sphere_ctx())):
        report = orc.convexity_scan(ctx, geodesics=20, steps=11, seed=5)
        checks.append(
            (f"{label}: strictly positive second differences "
             f"(min {report.worst_case:.2e})",
             report.passed and report.worst_case > 1e-8)
        )
    lin = orc.kernel_linearity_check(_sphere_ctx(), samples=40, seed=7)
    checks.append(
        (f"kernel linear toward the atom's antipode (worst |second diff| "
         f"{lin.worst_case:.2e} < 1e-8)", lin.passed)
    )
    dist = orc.distance_convexity_check(samples=40, seed=11)
    checks.append(
        ("distance-to-origin convexity incl. closed-form arc comparison "
         f"({dist.details[2]})", dist.passed)
    )
    _finish(9, "convexity suites", checks, time.perf_counter() - t0, 60.0)


def test_criterion_10_equivariance_and_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    dirs = rng.normal(size=(9, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    w = rng.uniform(0.3, 1.0, size=9)
    mu = ms.atomic_measure([(d, wi) for d, wi in zip(dirs, w)])
    opts = sv.SolveOptions(tol_residual=1e-12)
    base = sv.solve_center(en.energy_context(wt.identity(), mu), opts)
    pushed = ms.pushforward(mu, geo.mobius_map([0.3, -0.2]))
    moved = sv.solve_center(en.energy_context(wt.identity(), pushed), opts)
    checks = [
        (f"base solve centered (residual {base.residual:.2e} < 1e-12)",
         base.converged and base.residual < 1e-12),
        (f"translated solve centered (residual {moved.residual:.2e} < 1e-12)",
         moved.converged and moved.residual < 1e-12),
    ]
    scaled = wt.weight_from_config({"kind": "identity", "params": {}, "scale": 5.0})
    rescaled = sv.solve_center(en.energy_context(scaled, mu), opts)
    drift = geo.hyp_distance(base.x_c, rescaled.x_c)
    checks.append(
        (f"replacing g by 5g moves the center {drift:.2e} < 1e-10", drift < 1e-10)
    )
    _finish(10, "equivariance and weight scaling", checks,
            time.perf_counter() - t0, 60.0)


def test_criterion_11_fold_continuity():
    t0 = time.perf_counter()
    # density decays toward the clipped rim so the wall stays active across
    # the whole parameter sweep while the folding sliver carries light mass
    region = ms.ball_region([0.25, 0.0], 0.55)
    mu = ms.quantize_density(
        lambda y: math.exp(-6.0 * y[0]), region, 2, 1000, seed=12
    )
    p = [1.0, 0.0]
    t_base = 0.6
    opts = sv.SolveOptions(
        tol_residual=1e-12, strategy=sv.Strategy.NEWTON_ACCELERATED
    )

    def center_for(t):
        folded = ms.pushforward(mu, geo.fold_map(geo.halfspace(p, t)))
        ctx = en.energy_context(wt.identity(), folded)
        result = sv.solve_center(ctx, opts)
        assert result.converged
        return result.x_c

    x_limit = center_for(t_base)
    disps = []
    for j in range(3, 11):
        xj = center_for(t_base + 2.0**-j)
        disps.append(geo.hyp_distance(xj, x_limit))
    mono = all(a > b for a, b in zip(disps, disps[1:]))
    checks = [
        (f"displacements decrease monotonically "
         f"({', '.join(f'{d:.1e}' for d in disps)})", mono),
        (f"final displacement {disps[-1]:.2e} < 1e-4", disps[-1] < 1e-4),
    ]
    _finish(11, "fold-family continuity", checks, time.perf_counter() - t0, 30.0)
