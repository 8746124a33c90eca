import json
import math
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypcenter import energy as en
from hypcenter import fixtures as fx
from hypcenter import geometry as geo
from hypcenter import measures as ms
from hypcenter import solver as sv
from hypcenter import weights as wt
from hypcenter.errors import DimensionMismatch, DivergentIterates, DomainError

TANH = math.tanh
RNG = np.random.default_rng(5150)


def staircase_weight():
    return wt.clamped_arctanh([(0.0, 1.0, 0.0), (1.0, 2.0, -1.0), (2.0, 0.0, 3.0)])


def sphere_measure(n, count, rng, max_share=0.4):
    while True:
        dirs = rng.normal(size=(count, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        w = rng.uniform(0.2, 1.0, size=count)
        if np.max(w) < max_share * np.sum(w):
            return ms.atomic_measure([(d, wi) for d, wi in zip(dirs, w)])


class TestClassification:
    def test_sphere_identity_strict(self):
        ang = 2 * math.pi / 3
        mu = ms.atomic_measure(
            [([1, 0], 1.0), ([math.cos(ang), math.sin(ang)], 1.0),
             ([math.cos(ang), -math.sin(ang)], 1.0)]
        )
        ctx = en.energy_context(wt.identity(), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.BOUNDARY_STRICT

    def test_plateau_on_geodesic_no_guarantee(self):
        mu = ms.atomic_measure([([-0.8], 1.0), ([0.8], 1.0)])
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.NO_GUARANTEE

    def test_signed_ball_existence_only(self):
        a = TANH(1.0)
        mu = ms.atomic_measure([([-a], -1.0), ([0.0], 3.0), ([a], -1.0)])
        ctx = en.energy_context(staircase_weight(), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.SIGNED_EXISTENCE_ONLY

    def test_interior_strict(self):
        mu = ms.atomic_measure([([0.3, 0.1], 1.0), ([-0.2, 0.4], 2.0)])
        ctx = en.energy_context(wt.identity(), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.INTERIOR_STRICT

    def test_interior_spread(self):
        mu = ms.atomic_measure(
            [([0.3, 0.1], 1.0), ([-0.2, 0.4], 1.0), ([0.0, -0.3], 1.0)]
        )
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.INTERIOR_SPREAD

    def test_boundary_spread(self):
        mu = ms.atomic_measure(
            [([0.6, 0.8], 1.0), ([0.1, -0.2], 1.0), ([-0.5, 0.1], 1.0)]
        )
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.BOUNDARY_SPREAD

    def test_dip_weight_no_guarantee(self):
        mu = ms.atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)])
        ctx = en.energy_context(wt.min_r_arctanh_inv(), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.NO_GUARANTEE

    def test_signed_zero_total_no_guarantee(self):
        mu = ms.atomic_measure([([1.0], 1.0), ([-1.0], -1.0)])
        ctx = en.energy_context(wt.identity(), mu)
        assert sv.classify_hypotheses(ctx) is sv.HypothesisClass.NO_GUARANTEE


class TestSolveCenter:
    @pytest.mark.parametrize("make_weight", [wt.identity, lambda: wt.arctanh_power(2.0)])
    def test_single_atom_centering(self, make_weight):
        y0 = np.array([0.4, -0.25])
        ctx = en.energy_context(make_weight(), ms.atomic_measure([(y0, 1.0)]))
        result = sv.solve_center(ctx)
        assert result.converged
        assert np.linalg.norm(result.x_c.coords + y0) < 1e-9
        assert result.uniqueness.kind is sv.UniquenessKind.GUARANTEED

    def test_symmetric_sphere_triangle(self):
        ang = 2 * math.pi / 3
        mu = ms.atomic_measure(
            [([1, 0], 1.0), ([math.cos(ang), math.sin(ang)], 1.0),
             ([math.cos(ang), -math.sin(ang)], 1.0)]
        )
        ctx = en.energy_context(wt.identity(), mu)
        result = sv.solve_center(ctx)
        assert result.converged
        assert np.linalg.norm(result.x_c.coords) < 1e-9

    def test_no_existence_divergence(self):
        mu = ms.atomic_measure([([1.0], 1.0), ([-1.0], -1.0)])
        ctx = en.energy_context(wt.identity(), mu)
        with pytest.raises(DivergentIterates):
            sv.solve_center(ctx, sv.SolveOptions(initial=[0.1]))

    def test_energy_decreases_along_trace(self):
        mu = sphere_measure(3, 12, np.random.default_rng(4))
        ctx = en.energy_context(wt.identity(), mu)
        result = sv.solve_center(ctx, sv.SolveOptions(strategy="descent"))
        # strictly decreasing while resolvable, never increasing beyond noise
        for (ea, ra), (eb, _) in zip(result.trace, result.trace[1:]):
            if ra > 1e-6:
                assert eb < ea
            else:
                assert eb <= ea + 1e-14 * (1.0 + abs(ea))

    def test_newton_matches_descent(self):
        mu = sphere_measure(2, 9, np.random.default_rng(9))
        ctx = en.energy_context(wt.identity(), mu)
        descent = sv.solve_center(ctx, sv.SolveOptions(strategy="descent"))
        newton = sv.solve_center(
            ctx, sv.SolveOptions(strategy=sv.Strategy.NEWTON_ACCELERATED)
        )
        assert newton.converged
        assert geo.hyp_distance(descent.x_c, newton.x_c) < 1e-8

    def test_newton_is_the_default(self):
        assert sv.SolveOptions().strategy is sv.Strategy.NEWTON_ACCELERATED

    @pytest.mark.parametrize("starts", [0, -3, True, False, 2.0, "3"])
    def test_bad_multistart_rejected(self, starts):
        with pytest.raises(DomainError):
            sv.SolveOptions(multistart=starts)

    def test_strategy_by_name(self):
        mu = sphere_measure(2, 9, np.random.default_rng(9))
        ctx = en.energy_context(wt.identity(), mu)
        by_name = sv.solve_center(ctx, sv.SolveOptions(strategy="newton"))
        by_enum = sv.solve_center(ctx, NEWTON)
        assert sv.SolveOptions(strategy="newton").strategy is NEWTON.strategy
        assert by_name.iterations == by_enum.iterations
        assert by_name.trace == by_enum.trace
        with pytest.raises(DomainError):
            sv.SolveOptions(strategy="bogus")

    def test_escaping_mass_center(self):
        for k in (2, 3):
            mu = ms.atomic_measure(
                [([0.0], 1 - 1 / k), ([TANH(float(k * k))], 1 / k)]
            )
            ctx = en.energy_context(wt.arctanh_power(2.0), mu)
            result = sv.solve_center(ctx)
            assert result.converged
            assert result.x_c.coords[0] == pytest.approx(-TANH(float(k)), abs=1e-9)


class TestMultistart:
    def test_dip_weight_ambiguous(self):
        mu = ms.atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)])
        ctx = en.energy_context(wt.min_r_arctanh_inv(), mu)
        result = sv.multistart_probe(ctx, sv.SolveOptions(), starts=12)
        assert result.uniqueness.kind is sv.UniquenessKind.AMBIGUOUS
        reps = [float(r.coords[0]) for r in result.uniqueness.representatives]
        assert any(abs(r) < 1e-8 for r in reps)
        assert any(TANH(1.0) < r < TANH(2.0) for r in reps)

    def test_plateau_ambiguous(self):
        mu = ms.atomic_measure([([-0.8], 1.0), ([0.8], 1.0)])
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        result = sv.multistart_probe(ctx, sv.SolveOptions(), starts=10)
        assert result.uniqueness.kind is sv.UniquenessKind.AMBIGUOUS

    def test_signed_ball_ambiguous(self):
        a = TANH(1.0)
        mu = ms.atomic_measure([([-a], -1.0), ([0.0], 3.0), ([a], -1.0)])
        ctx = en.energy_context(staircase_weight(), mu)
        result = sv.multistart_probe(ctx, sv.SolveOptions(), starts=10)
        assert result.uniqueness.kind is sv.UniquenessKind.AMBIGUOUS

    def test_sphere_measure_agrees(self):
        mu = sphere_measure(3, 15, np.random.default_rng(77))
        ctx = en.energy_context(wt.identity(), mu)
        result = sv.multistart_probe(ctx, sv.SolveOptions(), starts=8)
        assert result.uniqueness.kind is sv.UniquenessKind.MULTISTART_AGREE

    def test_via_solve_options(self):
        mu = ms.atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)])
        ctx = en.energy_context(wt.min_r_arctanh_inv(), mu)
        result = sv.solve_center(ctx, sv.SolveOptions(multistart=12))
        assert result.uniqueness.kind is sv.UniquenessKind.AMBIGUOUS

    def test_initial_is_the_first_start(self):
        # every point of the plateau is a center, so the start at 0.3 stays
        # there as its own cluster; the auto initial would start at 0
        mu = ms.atomic_measure([([-0.8], 1.0), ([0.8], 1.0)])
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        for result in (sv.solve_center(ctx, sv.SolveOptions(initial=[0.3], multistart=3)),
                       sv.multistart_probe(ctx, sv.SolveOptions(initial=[0.3]), starts=3)):
            assert [0.3] in [r.coords.tolist() for r in result.uniqueness.representatives]

    @pytest.mark.parametrize("multistart", [1, 3])
    def test_initial_of_another_dimension_rejected(self, multistart):
        ctx = en.energy_context(
            wt.identity(), ms.atomic_measure([([0.2, 0.1], 1.0), ([-0.3, 0.2], 1.0)]))
        opts = sv.SolveOptions(initial=[0.1, 0.1, 0.1], multistart=multistart)
        with pytest.raises(DimensionMismatch, match=r"shape \(3,\), measure dimension 2"):
            sv.solve_center(ctx, opts)


class TestContinuityProbe:
    def test_added_mass_displacement_shrinks(self):
        base_atoms = [([0.3, 0.0], 1.0), ([-0.1, 0.2], 1.0)]
        ctx = en.energy_context(wt.identity(), ms.atomic_measure(base_atoms))
        z = [0.5, -0.4]
        perturbed = [
            ms.atomic_measure(base_atoms + [(z, eps)])
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        probe = sv.continuity_probe(ctx, perturbed)
        sizes = [s for s, _ in probe]
        disps = [d for _, d in probe]
        assert sizes == sorted(sizes, reverse=True)
        assert disps[0] > disps[1] > disps[2]
        assert disps[2] < 1e-3

    def test_escaping_mass_displacement_grows(self):
        base = ms.atomic_measure([([0.0], 1.0)])
        ctx = en.energy_context(wt.arctanh_power(2.0), base)
        family = [
            ms.atomic_measure([([0.0], 1 - 1 / k), ([TANH(float(k * k))], 1 / k)])
            for k in (2, 3)
        ]
        probe = sv.continuity_probe(ctx, family)
        sizes = [s for s, _ in probe]
        disps = [d for _, d in probe]
        assert sizes[0] > sizes[1]          # perturbations shrink...
        assert disps[1] > disps[0] > 1.0    # ...but the center runs away
        assert disps[0] == pytest.approx(2.0, abs=1e-6)
        assert disps[1] == pytest.approx(3.0, abs=1e-6)


class TestInvariances:
    def test_equivariance_under_translation(self):
        mu = sphere_measure(2, 8, np.random.default_rng(13))
        ctx = en.energy_context(wt.identity(), mu)
        opts = sv.SolveOptions()
        base = sv.solve_center(ctx, opts)
        z = [0.3, -0.2]
        pushed = ms.pushforward(mu, geo.mobius_map(z))
        moved = sv.solve_center(en.energy_context(wt.identity(), pushed), opts)
        assert base.converged and moved.converged
        # both centered configurations have vanishing first moments
        assert base.residual < opts.tol_residual
        assert moved.residual < opts.tol_residual

    def test_weight_scaling_leaves_center(self):
        mu = sphere_measure(3, 10, np.random.default_rng(21))
        base_ctx = en.energy_context(wt.identity(), mu)
        scaled = wt.weight_from_config({"kind": "identity", "params": {}, "scale": 5.0})
        scaled_ctx = en.energy_context(scaled, mu)
        opts = sv.SolveOptions(tol_residual=1e-12)
        a = sv.solve_center(base_ctx, opts)
        b = sv.solve_center(scaled_ctx, opts)
        assert geo.hyp_distance(a.x_c, b.x_c) < 1e-10

    def test_symmetric_quantization_centers_near_origin(self):
        # quasi-random sampling breaks exact symmetry, so the tolerance here
        # reflects the discrepancy of 2000 points, not solver accuracy
        region = ms.ball_region([0.0, 0.0], 0.6)
        mu = ms.quantize_density(lambda y: 1.0, region, 2, 2000, seed=2)
        result = sv.solve_center(en.energy_context(wt.identity(), mu))
        assert result.converged
        assert np.linalg.norm(result.x_c.coords) < 0.02

    def test_fold_center_orthogonality(self):
        region = ms.ball_region([0.25, 0.0], 0.4)
        mu = ms.quantize_density(lambda y: 1.0, region, 2, 60, seed=5)
        h = geo.halfspace([1.0, 0.0], 0.1)
        folded = ms.pushforward(mu, geo.fold_map(h))
        ctx = en.energy_context(wt.identity(), folded)
        result = sv.solve_center(ctx)
        assert result.converged
        v = en.field_V(ctx, result.x_c.coords)
        assert np.linalg.norm(v) / folded.total < 1e-10


class TestCurveWorkflows:
    """Pushforward-then-solve shapes for user-supplied mapped atoms."""

    def test_mapped_curve_atoms_orthogonality(self):
        # atoms sampled along a parameterized loop on the circle, weighted by
        # a density in the parameter; solving centers the pushed measure
        thetas = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        atoms = [
            ([math.cos(t + 0.3 * math.sin(t)), math.sin(t + 0.3 * math.sin(t))],
             1.0 + 0.5 * math.cos(t))
            for t in thetas
        ]
        mu = ms.atomic_measure(atoms)
        ctx = en.energy_context(wt.identity(), mu)
        result = sv.solve_center(ctx)
        assert result.converged
        pushed = ms.pushforward(mu, geo.mobius_map(result.x_c))
        moment = np.linalg.norm(pushed.weights @ pushed.locations)
        assert moment / mu.total < 1e-10

    def test_mapped_interior_atoms_with_plateau_weight(self):
        # interior atoms of a mapped planar density with a boundary-flat weight
        rng = np.random.default_rng(8)
        pts = 0.7 * rng.uniform(-1, 1, size=(25, 2))
        pts = pts[np.linalg.norm(pts, axis=1) < 0.7]
        mu = ms.atomic_measure([(p, 1.0) for p in pts])
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        result = sv.solve_center(ctx)
        assert result.converged
        v = en.field_V(ctx, result.x_c.coords)
        assert np.linalg.norm(v) / mu.total < 1e-10


def test_log_damped_near_boundary_observation():
    # The slowly-divergent profile keeps existence but its field decays near
    # the sphere, so solves with near-boundary atoms are ill-conditioned.
    # Observed here (result recorded, convergence deliberately not asserted).
    mu = ms.atomic_measure([([0.999, 0.0], 1.0)])
    ctx = en.energy_context(wt.log_damped(), mu)
    result = sv.solve_center(ctx, sv.SolveOptions(max_iters=200))
    print(
        f"log-damped near-boundary solve: converged={result.converged} "
        f"residual={result.residual:.2e} iterations={result.iterations}"
    )
    assert result.iterations <= 200


def test_initial_point_must_be_interior():
    mu = ms.atomic_measure([([0.2, 0.1], 1.0)])
    ctx = en.energy_context(wt.identity(), mu)
    with pytest.raises(Exception):
        sv.solve_center(ctx, sv.SolveOptions(initial=[1.0, 0.0]))


def test_near_sphere_initial_point_accepted():
    x0 = [1.0 - 1e-10, 0.0]
    opts = sv.SolveOptions(initial=x0)
    assert opts.initial == x0
    for r in (1.0, 1.0 + 1e-10):
        with pytest.raises(DomainError):
            sv.SolveOptions(initial=[r, 0.0])


def test_result_point_is_interior():
    mu = ms.atomic_measure([([0.0], 0.5), ([TANH(9.0)], 0.5)])
    ctx = en.energy_context(wt.arctanh_power(2.0), mu)
    result = sv.solve_center(ctx)
    # the center sits at -tanh(4.5), deep toward the rim, yet stays Interior
    assert result.x_c.locus is geo.Locus.INTERIOR
    assert result.converged


def test_measure_delta():
    a = ms.atomic_measure([([0.1], 1.0), ([0.2], 2.0)])
    b = ms.atomic_measure([([0.1], 0.8), ([0.3], 0.5)])
    assert sv.measure_delta(a, b) == pytest.approx(0.2 + 2.0 + 0.5)


def test_measure_delta_separates_far_polar_atoms():
    # tanh 16 and tanh 17 round to the same 12-decimal coordinates
    a = ms.atomic_measure([({"dir": [1.0], "s": 16.0}, 1.0)])
    b = ms.atomic_measure([({"dir": [1.0], "s": 17.0}, 1.0)])
    assert sv.measure_delta(a, b) == 2.0
    assert sv.measure_delta(a, a) == 0.0


def quadrature_measure(seed, i):
    """Measure i of the quadrature benchmark workload at a seed."""
    rng = np.random.default_rng([seed, zlib.crc32(b"quadrature_weights"), i])
    count = 8 + i % 9
    radii = np.tanh(rng.uniform(0.0, 2.0, size=count))
    dirs = rng.normal(size=(count, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    w = rng.uniform(0.2, 1.0, size=count)
    return ms.atomic_measure(list(zip(radii[:, None] * dirs, w.tolist())))


def test_newton_converges_under_table_on_former_stall():
    # seed-1 measure 9 of the quadrature benchmark workload: Newton under this
    # table stalled at residual 3e-7 while G came from adaptive quadrature
    table = wt.table(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.0, 0.2, 0.45, 0.7, 1.0],
        monotonicity=wt.Monotonicity.STRICTLY_INCREASING,
        divergent_G=True,
    )
    opts = sv.SolveOptions(strategy=sv.Strategy.NEWTON_ACCELERATED)
    result = sv.solve_center(en.energy_context(table, quadrature_measure(1, 9)), opts)
    assert result.converged
    assert result.residual <= 1e-10


def test_newton_accepts_below_energy_resolution():
    # seed-47 measure 10 of the quadrature benchmark workload: the last exact
    # Newton step takes the residual from 8.8e-10 to 3.0e-17 while the energy
    # comes out 2.5e-16 higher, so a trial judged on energy alone is rejected
    ctx = en.energy_context(wt.log_damped(), quadrature_measure(47, 10))
    result = sv.solve_center(ctx, sv.SolveOptions(strategy="newton"))
    assert result.converged
    assert result.residual <= 1e-15
    assert result.trace[-1][0] > result.trace[-2][0]


class TestNewtonAcceptance:
    """A Newton trial is judged by the euclidean gradient norm
    |V| / (1 - |x|^2) alone, never by the energy: _solve_steps is driven by
    hand with crafted (E, V, Hessian, 1 - |x|^2) answers."""

    E0, V0 = 1.0, np.array([0.1, 0.0])

    def first_trial(self):
        ctx = en.energy_context(wt.identity(), interior_measure(2, 5, 0))
        steps = sv._solve_steps(ctx, NEWTON, np.zeros(2))
        assert next(steps)[0] is sv._EVALUATE
        kind, model = steps.send((self.E0, self.V0, lambda: np.eye(2), 1.0))
        assert kind is sv._NEWTON
        kind, trial = steps.send(sv._newton_steps([model])[0])
        assert kind is sv._EVALUATE
        return steps, trial

    def test_energy_rise_with_falling_gradient_accepted(self):
        steps, trial = self.first_trial()
        # H = I at the origin: the full Newton step, predicted decrease
        # 0.005, far above the energy's rounding
        assert np.array_equal(trial, -self.V0)
        predicted = -0.5 * float(self.V0 @ trial)
        assert predicted > 1e-15 * (1.0 + self.E0)
        v_t = 1e-3 * self.V0
        omx_t = geo.one_minus_sq_norm(trial)
        kind, model = steps.send((self.E0 * (1.0 + 1e-12), v_t, lambda: np.eye(2), omx_t))
        assert kind is sv._NEWTON
        x, v, omx, _ = model
        assert np.array_equal(x, trial)
        assert v is v_t and omx == omx_t

    def test_energy_fall_with_rising_gradient_rejected(self):
        steps, trial = self.first_trial()
        # |V| falls by 0.1 %, but the conformal factor 1/(1 - |trial|^2)
        # raises the gradient norm by about 1 %
        omx_t = geo.one_minus_sq_norm(trial)
        kind, point = steps.send((self.E0 - 0.5, 0.999 * self.V0, lambda: np.eye(2), omx_t))
        assert kind is sv._EVALUATE
        # the descent point: a geodesic step from the origin along -V
        assert point[1] == 0.0 and 0.0 > point[0] > -1.0
        assert not np.array_equal(point, trial)


GOLDEN =Path(__file__).parent / "golden" / "solver_traces.json"
NEWTON = sv.SolveOptions(strategy=sv.Strategy.NEWTON_ACCELERATED)
DESCENT = sv.SolveOptions(strategy=sv.Strategy.GEODESIC_DESCENT)


def interior_measure(n, count, seed):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.tanh(rng.uniform(0.2, 2.0, size=count))
    w = rng.uniform(0.2, 1.0, size=count)
    return ms.atomic_measure(list(zip(dirs * radii[:, None], w.tolist())))


def golden_solves():
    """The recorded solves and the solver branches each one takes."""
    identity = wt.identity()
    sphere0 = en.energy_context(identity, sphere_measure(2, 7, np.random.default_rng(0)))
    sphere1 = en.energy_context(identity, sphere_measure(2, 7, np.random.default_rng(1)))
    interior = en.energy_context(identity, interior_measure(3, 9, 5))
    return {
        # Armijo and |V|-decrease acceptances
        "descent_sphere_2d": (sphere0, DESCENT),
        # below the energy's resolution: |V|-decrease acceptances, then the
        # line search stalls and the solve ends unconverged
        "descent_slack_2d": (sphere1, replace(DESCENT, tol_residual=1e-16)),
        # Newton trials only, the last accepted because the gradient norm
        # fell, while the energy rises by rounding noise
        "newton_interior_3d": (interior, NEWTON),
        "multistart_sphere_2d": (sphere0, replace(DESCENT, multistart=4)),
    }


def solve_record(result):
    return {
        "trace": [[float.hex(e), float.hex(r)] for e, r in result.trace],
        "iterations": result.iterations,
        "converged": result.converged,
        "x_c": [float.hex(c) for c in result.x_c.coords.tolist()],
    }


class TestSolveGolden:
    @pytest.mark.parametrize("name", sorted(golden_solves()))
    def test_trace_bit_identical(self, name):
        # re-recorded when x.y in the Mobius kernel became a stacked per-row
        # dot and sphere rows kept their own |y|^2, and newton_interior_3d
        # when the Newton model took the closed-form Hessian and again when
        # its trials were accepted on |V| below the energy's resolution; all
        # four when the kernel took the sum form.  Each solve takes the
        # branches named in golden_solves
        ctx, opts = golden_solves()[name]
        expected = json.loads(GOLDEN.read_text())[name]
        assert solve_record(sv.solve_center(ctx, opts)) == expected

    @pytest.mark.parametrize("opts", [DESCENT, NEWTON], ids=["descent", "newton"])
    def test_one_mobius_pass_per_point(self, monkeypatch, opts):
        # the Newton model comes from the point's own pass: no extra kernel
        # call at a finite-difference stencil point x +- h e_j
        ctx = en.energy_context(wt.identity(), interior_measure(3, 9, 0))
        seen, points = [], []
        original, evaluate = en.mobius_batch, sv.energy_and_field

        def counting(x, *rows):
            seen.append(np.array(x, dtype=float))
            return original(x, *rows)

        def visiting(ctx, x):
            points.append(x)
            return evaluate(ctx, x)

        monkeypatch.setattr(en, "mobius_batch", counting)
        monkeypatch.setattr(sv, "energy_and_field", visiting)
        result = sv.solve_center(ctx, opts)
        assert result.converged
        assert len(seen) > result.iterations
        assert len(seen) == len(points)
        assert len({x.tobytes() for x in seen}) == len(seen)
        for i, x in enumerate(seen):
            for y in seen[:i]:
                assert np.count_nonzero(x != y) > 1

    def test_non_finite_hessian_falls_back_to_descent(self):
        # the start maps the atom [0.25, -0.5] to the origin, where
        # arctanh_power(1.5) has dg/ds = inf: the first step is descent's
        atoms = [([0.25, -0.5], 1.0), ([-0.3, 0.1], 0.7), ([0.6, 0.2], 0.5)]
        ctx = en.energy_context(wt.arctanh_power(1.5), ms.atomic_measure(atoms))
        start = [-0.25, 0.5]
        assert not np.isfinite(en.energy_and_field(ctx, start)[2]()).all()
        one = {"initial": start, "max_iters": 1}
        newton = sv.solve_center(ctx, sv.SolveOptions(strategy="newton", **one))
        descent = sv.solve_center(ctx, sv.SolveOptions(strategy="descent", **one))
        assert newton.trace == descent.trace
        assert newton.x_c.coords.tobytes() == descent.x_c.coords.tobytes()
        assert sv.solve_center(ctx, NEWTON).converged


def lockstep_contexts():
    """Contexts for the lockstep tests: sphere, interior, quadrature-built
    (log_damped) and table weights, and a signed measure where some starts
    diverge."""
    table = wt.table(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.0, 0.2, 0.45, 0.7, 1.0],
        monotonicity=wt.Monotonicity.STRICTLY_INCREASING,
        divergent_G=True,
    )
    return {
        "sphere_3d": en.energy_context(
            wt.identity(), sphere_measure(3, 25, np.random.default_rng(6))),
        "interior_3d": en.energy_context(wt.identity(), interior_measure(3, 9, 0)),
        "log_damped_2d": en.energy_context(wt.log_damped(), quadrature_measure(0, 4)),
        "table_2d": en.energy_context(table, quadrature_measure(1, 9)),
        "signed_circle": fx.signed_circle_context(),
    }


def solve_or_none(ctx, opts):
    try:
        return sv.solve_center(ctx, opts)
    except DivergentIterates:
        return None


class TestLockstep:
    @pytest.mark.parametrize("strategy", ["descent", "newton"])
    @pytest.mark.parametrize("name", sorted(lockstep_contexts()))
    def test_each_start_matches_its_single_solve(self, name, strategy):
        # most signed_circle starts stall until max_iters, with long backtracks
        ctx = lockstep_contexts()[name]
        opts = sv.SolveOptions(strategy=strategy, max_iters=40)
        starts = sv._multistart_points(ctx, opts, 12)
        outcomes = sv._lockstep(ctx, opts, starts)
        singles = [solve_or_none(ctx, replace(opts, initial=x0)) for x0 in starts]
        if name == "signed_circle":
            assert 0 < singles.count(None) < len(singles)
        for got, want in zip(outcomes, singles):
            if want is None:
                assert got is None
                continue
            assert solve_record(got) == solve_record(want)
            assert (got.residual, got.energy_at_min) == (want.residual, want.energy_at_min)

    def test_every_start_diverging_raises(self):
        ctx = fx.signed_no_zero_context()
        opts = sv.SolveOptions()
        assert sv._lockstep(ctx, opts, sv._multistart_points(ctx, opts, 4)) == [None] * 5
        with pytest.raises(DivergentIterates):
            sv.multistart_probe(ctx, sv.SolveOptions(), starts=4)

    def test_starts_share_kernel_passes(self, monkeypatch):
        # one pass per round over every live start, not one per start's point
        ctx = lockstep_contexts()["sphere_3d"]
        opts = sv.SolveOptions(strategy="newton")
        calls = []
        original = en.mobius_batch

        def counting(x, *rows):
            calls.append(np.shape(x))
            return original(x, *rows)

        monkeypatch.setattr(en, "mobius_batch", counting)
        for x0 in sv._multistart_points(ctx, opts, 8):
            sv.solve_center(ctx, replace(opts, initial=x0))
        evaluations = len(calls)
        calls.clear()
        assert sv.multistart_probe(ctx, opts, starts=8).converged
        assert len(calls) < evaluations / 4
        assert max(shape[0] for shape in calls) == 9

    def test_clustering_matches_pairwise_distances(self):
        # one kernel pass per cluster head: the clusters are the ones a
        # pairwise hyp_distance scan against each head finds
        ctx = en.energy_context(
            wt.min_r_arctanh_inv(),
            ms.atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)]),
        )
        opts = sv.SolveOptions()
        result = sv.multistart_probe(ctx, opts, starts=12)
        runs = [r for r in sv._lockstep(
            ctx, opts, sv._multistart_points(ctx, opts, 12)) if r.converged]
        heads = []
        for run in sorted(runs, key=lambda r: tuple(r.x_c.coords)):
            if not any(geo.hyp_distance(h[0].x_c, run.x_c) <= sv.CLUSTER_TOL for h in heads):
                heads.append([run])
            else:
                next(h for h in heads
                     if geo.hyp_distance(h[0].x_c, run.x_c) <= sv.CLUSTER_TOL).append(run)
        reps = [min(h, key=lambda r: r.energy_at_min).x_c.coords.tolist() for h in heads]
        assert [r.coords.tolist() for r in result.uniqueness.representatives] == reps
        assert len(reps) >= 2


class TestSolveOptionsValidation:
    @pytest.mark.parametrize(
        "options",
        [{"max_iters": True}, {"max_iters": 2.5}, {"max_iters": math.nan},
         {"max_iters": "3"}, {"max_iters": 0}, {"tol_residual": True},
         {"tol_residual": math.inf}, {"tol_residual": math.nan},
         {"tol_residual": "1e-10"}, {"tol_residual": 0.0}],
    )
    def test_rejected(self, options):
        with pytest.raises(DomainError, match=next(iter(options))):
            sv.SolveOptions(**options)

    def test_accepted(self):
        opts = sv.SolveOptions(max_iters=np.int64(3), tol_residual=np.float64(1e-9))
        assert (opts.max_iters, opts.tol_residual) == (3, 1e-9)
