import math

import numpy as np
import pytest

from hypcenter import energy as en
from hypcenter import fixtures
from hypcenter import geometry as geo
from hypcenter import measures as ms
from hypcenter import oracle as orc
from hypcenter import weights as wt

TANH = math.tanh


def staircase_weight():
    return wt.clamped_arctanh([(0.0, 1.0, 0.0), (1.0, 2.0, -1.0), (2.0, 0.0, 3.0)])


def dip_ctx():
    mu = ms.atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)])
    return en.energy_context(wt.min_r_arctanh_inv(), mu)


def plateau_ctx():
    mu = ms.atomic_measure([([-0.8], 1.0), ([0.8], 1.0)])
    return en.energy_context(wt.clamped_linear(0.5), mu)


def interior_ctx():
    mu = ms.atomic_measure([([0.3, 0.1], 1.0), ([-0.2, 0.4], 2.0), ([0.1, -0.5], 0.5)])
    return en.energy_context(wt.identity(), mu)


def sphere_ctx():
    ang = 2 * math.pi / 5
    atoms = [
        ([math.cos(k * ang + 0.3), math.sin(k * ang + 0.3)], 0.5 + 0.2 * k)
        for k in range(5)
    ]
    return en.energy_context(wt.identity(), ms.atomic_measure(atoms))


def mixed_ctx():
    atoms = [([0.3, 0.1], 1.0), ([0.6, 0.8], 0.7), ([-0.2, 0.4], 1.3)]
    return en.energy_context(wt.clamped_linear(0.5), ms.atomic_measure(atoms))


def signed_circle_ctx():
    s = math.sqrt(3.0) / 2.0
    atoms = [
        ([1.0, 0.0], 1.0),
        ([-0.5, s], 1.0),
        ([-0.5, -s], 1.0),
        ([0.5, s], -1.0),
        ([0.5, -s], -1.0),
    ]
    return en.energy_context(wt.identity(), ms.atomic_measure(atoms))


class TestZeroScans:
    def test_single_atom_unique_zero(self):
        mu = ms.atomic_measure([([TANH(1.0)], 1.0)])
        ctx = en.energy_context(wt.identity(), mu)
        zeros = orc.brute_force_zeros_1d(ctx)
        assert len(zeros.intervals) == 0
        assert len(zeros.points) == 1
        assert zeros.points[0] == pytest.approx(-TANH(1.0), abs=1e-10)

    def test_dip_weight_zero_set(self):
        zeros = orc.brute_force_zeros_1d(dip_ctx())
        assert len(zeros.intervals) == 0
        # odd field: mirror-symmetric zeros around the one at the origin
        assert len(zeros.points) == 3
        assert zeros.points[1] == pytest.approx(0.0, abs=1e-10)
        assert zeros.points[2] == pytest.approx(TANH(math.sqrt(3.0)), abs=1e-9)
        assert zeros.points[0] == pytest.approx(-zeros.points[2], abs=1e-9)
        on_half_line = [p for p in zeros.points if p >= 0.0]
        assert len(on_half_line) == 2
        assert TANH(1.0) < on_half_line[1] < TANH(2.0)

    def test_plateau_zero_interval(self):
        zeros = orc.brute_force_zeros_1d(plateau_ctx())
        assert len(zeros.intervals) == 1
        lo, hi = zeros.intervals[0]
        # the whole flat region (-1/2, 1/2) in x, up to grid granularity
        assert math.atanh(hi) >= 0.2 and math.atanh(-lo) >= 0.2
        assert lo == pytest.approx(-0.5, abs=0.01)
        assert hi == pytest.approx(0.5, abs=0.01)

    def test_signed_circle_axis_scan(self):
        zeros = orc.brute_force_zeros_along_line(signed_circle_ctx(), [1.0, 0.0])
        assert len(zeros.points) >= 2


class TestSolverAgreement:
    """Every 1-d fixture's solved center lies in a brute-force zero bracket."""

    def test_single_atom(self):
        mu = ms.atomic_measure([([TANH(1.0)], 1.0)])
        ctx = en.energy_context(wt.identity(), mu)
        self._assert_in_zero_set(ctx)

    def test_dip_weight(self):
        self._assert_in_zero_set(dip_ctx(), multistart=12)

    def test_plateau(self):
        self._assert_in_zero_set(plateau_ctx())

    def test_escaping_mass_k2(self):
        mu = ms.atomic_measure([([0.0], 0.5), ([TANH(4.0)], 0.5)])
        ctx = en.energy_context(wt.arctanh_power(2.0), mu)
        self._assert_in_zero_set(ctx)

    @staticmethod
    def _assert_in_zero_set(ctx, multistart=1):
        from hypcenter import solver as sv

        result = sv.solve_center(ctx, sv.SolveOptions(multistart=multistart))
        x = float(result.x_c.coords[0])
        zeros = orc.brute_force_zeros_1d(ctx)
        in_interval = any(lo - 1e-9 <= x <= hi + 1e-9 for lo, hi in zeros.intervals)
        near_point = any(abs(x - p) < 1e-6 for p in zeros.points)
        assert in_interval or near_point


class TestGradientCheck:
    @pytest.mark.parametrize(
        "make", [interior_ctx, sphere_ctx, mixed_ctx], ids=["interior", "sphere", "mixed"]
    )
    def test_passes(self, make):
        report = orc.gradient_check(make(), samples=200, seed=3)
        assert report.passed, report
        assert report.worst_case < 1e-5

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_far_atoms(self, k):
        # the escaping-mass atom sits at arclength k^2 (up to 16): the
        # atomwise energy must keep its arclength from the exact datum
        report = orc.gradient_check(fixtures.escaping_mass_context(k), samples=300)
        assert report.passed, report

    def test_deterministic(self):
        a = orc.gradient_check(interior_ctx(), samples=50, seed=11)
        b = orc.gradient_check(interior_ctx(), samples=50, seed=11)
        assert a.worst_case == b.worst_case


class TestConvexity:
    def test_interior_strict_class(self):
        report = orc.convexity_scan(interior_ctx(), geodesics=12, steps=9, seed=2)
        assert report.passed
        assert report.worst_case > 1e-8  # strict

    def test_sphere_strict_class(self):
        report = orc.convexity_scan(sphere_ctx(), geodesics=12, steps=9, seed=2)
        assert report.passed
        assert report.worst_case > 1e-8

    def test_plateau_nonstrict_on_axis(self):
        # flat second differences inside the plateau interval, still >= floor
        ctx = plateau_ctx()
        report = orc.convexity_scan(ctx, geodesics=8, steps=9, seed=4)
        assert report.passed
        h = 1e-3
        vals = [
            en.renormalized_energy(ctx, [math.tanh(0.1 + k * h)]) for k in (-1, 0, 1)
        ]
        second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        assert abs(second) < 1e-8

    def test_second_difference_is_one_kernel_pass(self, monkeypatch):
        # the three stencil points are one block, bit for bit the per-point values
        g = geo.geodesic([0.31, -0.42, 0.05], [0.3, 1.0, -0.7])
        f = lambda p: math.atanh(p.r)
        h, tau = orc.TOL.convexity_step, 0.4
        vals = [f(geo.geodesic_point(g, math.tanh(tau + k * h))) for k in (-1, 0, 1)]
        calls = []
        original = geo.mobius_batch

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(geo, "mobius_batch", counting)
        assert orc._second_difference(g, f, tau) == (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
        assert len(calls) == 1

    def test_kernel_linearity_toward_antipode(self):
        report = orc.kernel_linearity_check(sphere_ctx(), samples=30, seed=6)
        assert report.passed
        assert report.worst_case < 1e-8


class TestCocycle:
    def test_random_triples(self):
        report = orc.cocycle_check(samples=300, seed=1)
        assert report.passed
        assert report.worst_case < 1e-11

    def test_degenerate_arguments(self):
        ctx = sphere_ctx()
        y = ctx.measure.locations[0]
        z = np.array([0.2, -0.3])
        lhs = en.kernel_K(ctx, z, y)
        rhs = en.kernel_K(ctx, z, y) + en.kernel_K(ctx, np.zeros(2), y)
        assert lhs == pytest.approx(rhs, abs=1e-15)  # x = 0 reduces to K(z, y)


class TestBoundaryContinuity:
    def test_identity_weight_axis(self):
        report = orc.boundary_continuity_check(wt.identity(), [0.5, 0.2], [1.0, 0.0])
        assert report.passed

    def test_origin_degenerate(self):
        report = orc.boundary_continuity_check(wt.identity(), [0.0, 0.0], [1.0, 0.0])
        assert report.passed
        assert report.worst_case == 0.0

    def test_antipodal_direction(self):
        report = orc.boundary_continuity_check(wt.identity(), [0.5, 0.0], [-1.0, 0.0])
        assert report.passed

    def test_staircase_weight(self):
        report = orc.boundary_continuity_check(
            staircase_weight(), [0.3, -0.4], [0.0, 1.0]
        )
        assert report.passed


class TestDistanceConvexity:
    def test_full_check(self):
        report = orc.distance_convexity_check(samples=25, seed=9)
        assert report.passed
        assert report.worst_case > 0.0

    def test_deterministic_reports(self):
        a = orc.distance_convexity_check(samples=10, seed=42)
        b = orc.distance_convexity_check(samples=10, seed=42)
        assert a.worst_case == b.worst_case
        assert a.details == b.details


class TestAntiderivativeCheck:
    WEIGHTS = {
        "identity": wt.identity(),
        "arctanh_power": wt.arctanh_power(3.0),
        "min_r_arctanh_inv": wt.min_r_arctanh_inv(),
        "clamped_linear": wt.clamped_linear(0.5),
        "log_damped": wt.log_damped(),
        "clamped_arctanh": staircase_weight(),
        "table": wt.table(
            [0.0, 0.25, 0.5, 0.75, 1.0],
            [0.0, 0.2, 0.45, 0.7, 1.0],
            monotonicity=wt.Monotonicity.STRICTLY_INCREASING,
            divergent_G=True,
        ),
    }

    def test_covers_every_kind(self):
        assert set(self.WEIGHTS) == set(wt._FACTORIES)

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_closed_forms_match_quadrature(self, kind):
        report = orc.antiderivative_check(self.WEIGHTS[kind], samples=100, seed=7)
        assert report.passed, report

    def test_partial_table_stays_in_range(self):
        w = wt.table([0.0, 0.3, 0.6], [0.0, 0.4, 0.5])
        report = orc.antiderivative_check(w, samples=50, seed=1)
        assert report.passed, report

    def test_detects_perturbed_antiderivative(self, monkeypatch):
        # G off by 1e-8 relative, far inside quadrature's accuracy, must fail
        def off(w, r, s, one_minus_r2=None):
            return wt.eval_G_rs(w, r, s, one_minus_r2) * (1.0 + 1e-8)

        monkeypatch.setattr(orc, "eval_G_rs", off)
        assert not orc.antiderivative_check(wt.log_damped(), samples=20).passed
