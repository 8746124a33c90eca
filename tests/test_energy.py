import math

import numpy as np
import pytest

from hypcenter import energy as en
from hypcenter import geometry as geo
from hypcenter import measures as ms
from hypcenter import oracle as orc
from hypcenter import weights as wt
from hypcenter.errors import DomainError, NotBoundaryCompatible

TANH = math.tanh
RNG = np.random.default_rng(91)


def staircase_weight():
    return wt.clamped_arctanh([(0.0, 1.0, 0.0), (1.0, 2.0, -1.0), (2.0, 0.0, 3.0)])


def dip_two_atoms():
    mu = ms.atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)])
    return en.energy_context(wt.min_r_arctanh_inv(), mu)


def plateau_two_atoms():
    mu = ms.atomic_measure([([-0.8], 1.0), ([0.8], 1.0)])
    return en.energy_context(wt.clamped_linear(0.5), mu)


def escaping_mass(k: int):
    mu = ms.atomic_measure([([0.0], 1.0 - 1.0 / k), ([TANH(k * k)], 1.0 / k)])
    return en.energy_context(wt.arctanh_power(2.0), mu)


def signed_ball():
    a = TANH(1.0)
    mu = ms.atomic_measure([([-a], -1.0), ([0.0], 3.0), ([a], -1.0)])
    return en.energy_context(staircase_weight(), mu)


def signed_circle():
    s = math.sqrt(3.0) / 2.0
    atoms = [
        ([1.0, 0.0], 1.0),
        ([-0.5, s], 1.0),
        ([-0.5, -s], 1.0),
        ([0.5, s], -1.0),
        ([0.5, -s], -1.0),
    ]
    return en.energy_context(wt.identity(), ms.atomic_measure(atoms))


def no_zero_signed():
    mu = ms.atomic_measure([([1.0], 1.0), ([-1.0], -1.0)])
    return en.energy_context(wt.identity(), mu)


def sphere_triangle():
    ang = 2.0 * math.pi / 3.0
    atoms = [
        ([1.0, 0.0], 1.0),
        ([math.cos(ang), math.sin(ang)], 1.0),
        ([math.cos(ang), -math.sin(ang)], 1.0),
    ]
    return en.energy_context(wt.identity(), ms.atomic_measure(atoms))


def mixed_context():
    atoms = [([0.3, 0.1], 1.0), ([0.6, 0.8], 0.7), ([-0.2, 0.4], 1.3)]
    return en.energy_context(wt.clamped_linear(0.5), ms.atomic_measure(atoms))


class TestFieldV:
    def test_dip_weight_values(self):
        ctx = dip_two_atoms()
        v1 = en.field_V(ctx, [TANH(1.0)])
        assert v1[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        v2 = en.field_V(ctx, [TANH(2.0)])
        assert v2[0] == pytest.approx(0.25, abs=1e-12)

    def test_plateau_flat_zero_region(self):
        ctx = plateau_two_atoms()
        for x in np.linspace(-0.45, 0.45, 11):
            assert abs(en.field_V(ctx, [x])[0]) < 1e-13

    def test_symmetric_measure_vanishes_at_origin(self):
        mu = ms.atomic_measure([([0.4, 0.1], 1.0), ([-0.4, -0.1], 1.0)])
        ctx = en.energy_context(wt.identity(), mu)
        assert np.linalg.norm(en.field_V(ctx, [0.0, 0.0])) < 1e-15

    @pytest.mark.parametrize("k", [2, 3])
    def test_escaping_mass_translation_law(self, k):
        # 1-d reduction: V(-tanh k) = -s(tanh k) + s(tanh k^2)/k for the
        # arclength weight; the float64 atom fixes the exact target
        ctx = escaping_mass(k)
        got = en.field_V(ctx, [-TANH(float(k))])[0]
        expected = -math.atanh(TANH(float(k))) + math.atanh(TANH(float(k * k))) / k
        assert got == pytest.approx(expected, abs=5e-12)

    def test_escaping_mass_k2_vanishes(self):
        assert abs(en.field_V(escaping_mass(2), [-TANH(2.0)])[0]) < 1e-10

    def test_signed_ball_double_zero(self):
        ctx = signed_ball()
        assert abs(en.field_V(ctx, [0.0])[0]) < 1e-12
        assert abs(en.field_V(ctx, [TANH(1.0)])[0]) < 1e-12

    def test_signed_no_zero_constant_field(self):
        ctx = no_zero_signed()
        for x in np.linspace(-0.95, 0.95, 21):
            assert en.field_V(ctx, [x])[0] == pytest.approx(2.0, abs=1e-12)

    def test_signed_circle_value_at_origin(self):
        ctx = signed_circle()
        v = en.field_V(ctx, [0.0, 0.0])
        assert v[0] == pytest.approx(-1.0, abs=1e-12)
        assert abs(v[1]) < 1e-12

    def test_signed_circle_sign_changes_on_axis(self):
        ctx = signed_circle()
        vals = [
            en.field_V(ctx, [x, 0.0])[0] for x in np.tanh(np.linspace(-6, 6, 201))
        ]
        signs = np.sign(vals)
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes >= 2

    def test_linearity_in_measure(self):
        w = wt.identity()
        mu1 = ms.atomic_measure([([0.2, 0.1], 1.0)])
        mu2 = ms.atomic_measure([([-0.4, 0.3], 0.7)])
        both = ms.atomic_measure([([0.2, 0.1], 1.0), ([-0.4, 0.3], 0.7)])
        x = [0.1, -0.2]
        v = en.field_V(en.energy_context(w, both), x)
        v12 = en.field_V(en.energy_context(w, mu1), x) + en.field_V(
            en.energy_context(w, mu2), x
        )
        np.testing.assert_allclose(v, v12, atol=1e-15)
        doubled = ms.atomic_measure([([0.2, 0.1], 2.0)])
        np.testing.assert_allclose(
            en.field_V(en.energy_context(w, doubled), x),
            2.0 * en.field_V(en.energy_context(w, mu1), x),
            atol=1e-15,
        )


class TestKernel:
    def test_zero_at_origin_interior(self):
        ctx = mixed_context()
        for y in ([0.3, 0.1], [0.0, 0.9], [0.6, 0.8]):
            assert en.kernel_K(ctx, [0.0, 0.0], geo.point(y)) == 0.0

    def test_boundary_branch_value(self):
        ctx = sphere_triangle()
        got = en.kernel_K(ctx, [0.5, 0.0], geo.point([1.0, 0.0]))
        assert got == pytest.approx(0.5 * math.log(3.0), abs=1e-14)

    def test_boundary_branch_antipode(self):
        ctx = sphere_triangle()
        got = en.kernel_K(ctx, [0.5, 0.0], geo.point([-1.0, 0.0]))
        assert got == pytest.approx(0.5 * math.log(0.25 / 0.75), abs=1e-14)

    def test_interior_to_boundary_continuity(self):
        ctx = sphere_triangle()  # identity weight
        x = [0.5, 0.0]
        target = en.kernel_K(ctx, x, geo.point([1.0, 0.0]))
        assert target == pytest.approx(0.5 * math.log(3.0), abs=1e-14)
        gaps = []
        for eps in (1e-3, 1e-5, 1e-7):
            y = geo.point([(1.0 - eps), 0.0])
            assert not y.is_boundary
            gaps.append(abs(en.kernel_K(ctx, x, y) - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_cocycle_spot(self):
        ctx = sphere_triangle()
        for _ in range(50):
            x = 0.8 * RNG.uniform(-1, 1, 2) / 2
            z = 0.8 * RNG.uniform(-1, 1, 2) / 2
            y = RNG.normal(size=2)
            y = geo.point(y / np.linalg.norm(y))
            lhs = en.kernel_K(ctx, geo.mobius(x, z), y)
            rhs = en.kernel_K(ctx, z, geo.mobius(x, y)) + en.kernel_K(ctx, x, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRenormalizedEnergy:
    def test_zero_at_origin_everywhere(self):
        for ctx in (
            dip_two_atoms(),
            sphere_triangle(),
            mixed_context(),
            signed_circle(),
        ):
            origin = np.zeros(ctx.dimension)
            assert en.renormalized_energy(ctx, origin) == 0.0
            assert en.energy_and_field(ctx, origin)[0] == 0.0
            # the origin inside a block of points
            block = np.stack([origin, np.full(ctx.dimension, 0.1), origin])
            assert en.energy_and_field(ctx, block)[0][::2] == [0.0, 0.0]

    def test_sphere_energy_matches_atomwise_log(self):
        ctx = sphere_triangle()
        x = np.array([0.3, -0.2])
        explicit = sum(
            w * 0.5 * math.log(float((x + y) @ (x + y)) / geo.one_minus_sq_norm(x))
            for y, w in zip(ctx.measure.locations, ctx.measure.weights)
        )
        assert en.renormalized_energy(ctx, x) == pytest.approx(explicit, abs=1e-13)

    def test_single_atom_minimum(self):
        y0 = np.array([0.5, 0.2])
        mu = ms.atomic_measure([(y0, 1.0)])
        ctx = en.energy_context(wt.arctanh_power(2.0), mu)
        s = math.atanh(float(np.linalg.norm(y0)))
        e_min = en.renormalized_energy(ctx, -y0)
        assert e_min == pytest.approx(-0.5 * s * s, abs=1e-12)
        for other in ([0.0, 0.0], [0.3, 0.0], [-0.4, -0.3]):
            assert en.renormalized_energy(ctx, other) > e_min

    def test_mixed_ball_sphere_split(self):
        w = wt.clamped_linear(0.5)
        ball_atoms = [([0.3, 0.1], 1.0), ([-0.2, 0.4], 1.3)]
        sphere_atoms = [([0.6, 0.8], 0.7)]
        full = en.energy_context(w, ms.atomic_measure(ball_atoms + sphere_atoms))
        x = [0.25, -0.15]
        parts = sum(
            wgt * en.kernel_K(full, x, y)
            for y, wgt in zip(full.measure.locations, full.measure.weights)
        )
        assert en.renormalized_energy(full, x) == pytest.approx(parts, abs=1e-14)

    def test_energy_and_field_consistent(self):
        ctx = mixed_context()
        x = [0.2, 0.3]
        e, v, _, omx = en.energy_and_field(ctx, x)
        assert e == en.renormalized_energy(ctx, x)
        np.testing.assert_array_equal(v, en.field_V(ctx, x))
        # the pass's own 1 - |x|^2, as the single-point sum gives it
        assert omx == geo.one_minus_sq_norm(np.array(x))
        block = np.array([x, [-0.5, 0.1], x])
        assert en.energy_and_field(ctx, block)[3] == [
            omx, geo.one_minus_sq_norm(block[1]), omx]


class TestInteriorKernelConvexity:
    H = 1e-3

    def _second_diffs(self, weight, y0, base, direction):
        ctx = en.energy_context(weight, ms.atomic_measure([(y0, 1.0)]))
        g = geo.geodesic(base, direction)
        out = []
        for tau in np.linspace(-0.8, 0.8, 9):
            vals = [
                en.renormalized_energy(
                    ctx, geo.geodesic_point(g, math.tanh(tau + k * self.H)).coords
                )
                for k in (-1, 0, 1)
            ]
            out.append((vals[0] - 2.0 * vals[1] + vals[2]) / self.H**2)
        return out

    def test_strictly_increasing_weight_strictly_convex(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            y0 = 0.6 * rng.uniform(-1, 1, 2)
            base = 0.5 * rng.uniform(-1, 1, 2)
            seconds = self._second_diffs(
                wt.identity(), y0, base, rng.normal(size=2)
            )
            assert min(seconds) > 1e-8

    def test_increasing_weight_convex_up_to_noise(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            y0 = 0.6 * rng.uniform(-1, 1, 2)
            base = 0.5 * rng.uniform(-1, 1, 2)
            seconds = self._second_diffs(
                wt.clamped_linear(0.5), y0, base, rng.normal(size=2)
            )
            assert min(seconds) >= -1e-8


class TestGradient:
    """The euclidean gradient of the energy is V(x) / (1 - |x|^2)."""

    @staticmethod
    def _finite_differences(ctx, x, h=1e-6):
        fd = np.zeros(ctx.dimension)
        for j in range(ctx.dimension):
            e = np.zeros(ctx.dimension)
            e[j] = h
            fd[j] = (
                en.renormalized_energy(ctx, x + e)
                - en.renormalized_energy(ctx, x - e)
            ) / (2.0 * h)
        return fd

    def test_equals_field_at_origin(self):
        # the conformal factor is exactly 1 there, so the gradient is V itself
        ctx = mixed_context()
        x = np.zeros(2)
        assert geo.one_minus_sq_norm(x) == 1.0
        v = en.field_V(ctx, x)
        err = float(np.linalg.norm(self._finite_differences(ctx, x) - v))
        assert err < 1e-6 * max(float(np.linalg.norm(v)), 1e-8)

    @pytest.mark.parametrize(
        "make",
        [dip_two_atoms, sphere_triangle, mixed_context],
        ids=["interior", "sphere", "mixed"],
    )
    def test_matches_finite_differences(self, make):
        ctx = make()
        for _ in range(25):
            x = RNG.uniform(-0.5, 0.5, ctx.dimension)
            grad = en.field_V(ctx, x) / geo.one_minus_sq_norm(x)
            fd = self._finite_differences(ctx, x)
            denom = max(float(np.linalg.norm(grad)), 1e-8)
            assert float(np.linalg.norm(fd - grad)) / denom < 1e-6

    def test_symmetric_context_critical_at_origin(self):
        ctx = sphere_triangle()
        assert np.linalg.norm(en.field_V(ctx, [0.0, 0.0])) < 1e-14


# one weight of each kind; the last four have g(1) > 0 and take sphere atoms
HESSIAN_WEIGHTS = {
    "arctanh_power": wt.arctanh_power(2.5),
    "min_r_arctanh_inv": wt.min_r_arctanh_inv(),
    "log_damped": wt.log_damped(),
    "identity": wt.identity(),
    "clamped_linear": wt.clamped_linear(0.6),
    "clamped_arctanh": staircase_weight(),
    "table": wt.table([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.2, 0.45, 0.7, 1.0]),
}
SPHERE_KINDS = ("identity", "clamped_linear", "clamped_arctanh", "table")


def hessian_measure(n, support, rng):
    """Positive atoms: interior at hyperbolic radii up to 2.5, sphere, or both."""
    def unit():
        d = rng.normal(size=n)
        return d / np.linalg.norm(d)

    inner = [(unit() * TANH(rng.uniform(0.0, 2.5)), rng.uniform(0.2, 1.0)) for _ in range(6)]
    sphere = [(unit(), rng.uniform(0.2, 1.0)) for _ in range(4)]
    atoms = {"interior": inner, "sphere": sphere, "mixed": inner[:3] + sphere[:3]}
    return ms.atomic_measure(atoms[support])


def fd_hessian(ctx, x, step=1e-4):
    """Mixed central differences of the oracle's atomwise energy, never of the
    field or the gradient code."""
    h = step * (1.0 - float(x @ x))
    steps = h * np.eye(len(x))
    energy = lambda z: orc._atomwise_energy(ctx, z)
    return np.array([
        [
            (energy(x + a + b) - energy(x + a - b) - energy(x - a + b) + energy(x - a - b))
            / (4.0 * h * h)
            for b in steps
        ]
        for a in steps
    ])


class TestHessian:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "kind, support",
        [(k, "interior") for k in HESSIAN_WEIGHTS]
        + [(k, s) for k in SPHERE_KINDS for s in ("sphere", "mixed")],
    )
    def test_matches_second_differences_of_atomwise_energy(self, kind, support, n):
        rng = np.random.default_rng(sorted(HESSIAN_WEIGHTS).index(kind) + 10 * n)
        ctx = en.energy_context(HESSIAN_WEIGHTS[kind], hessian_measure(n, support, rng))
        for radius in (0.0, 0.4, 0.9):
            x = radius * hessian_measure(n, "sphere", rng).locations[0]
            hess = en.energy_and_field(ctx, x)[2]()
            fd = fd_hessian(ctx, x)
            assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("kind", ["identity", "log_damped", "clamped_arctanh"])
    def test_atom_mapped_to_origin(self, kind):
        # T_x(y) = 0 exactly for y = -x with dyadic coordinates: the
        # tangential term takes its r -> 0 limit dg/ds(0).  log_damped's g is
        # not odd in s, so its term is only C^2 there (a |x - x_0|^3 part) and
        # the differences are extrapolated past their O(h) error
        atoms = [([0.25, -0.5], 1.0), ([-0.3, 0.1], 0.7), ([0.6, 0.2], 0.5)]
        ctx = en.energy_context(HESSIAN_WEIGHTS[kind], ms.atomic_measure(atoms))
        x = np.array([-0.25, 0.5])
        hess = en.energy_and_field(ctx, x)[2]()
        fd = 2.0 * fd_hessian(ctx, x, 5e-5) - fd_hessian(ctx, x, 1e-4)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_non_finite_where_the_slope_is(self):
        atoms = [([0.25, -0.5], 1.0), ([-0.3, 0.1], 0.7)]
        ctx = en.energy_context(wt.arctanh_power(1.5), ms.atomic_measure(atoms))
        _, v, hessian, _ = en.energy_and_field(ctx, [-0.25, 0.5])
        assert np.isfinite(v).all()
        assert not np.isfinite(hessian()).all()


class TestContextRules:
    def test_boundary_requires_compatible_weight(self):
        mu = ms.atomic_measure([([1.0, 0.0], 1.0), ([0.0, 0.2], 1.0)])
        with pytest.raises(NotBoundaryCompatible):
            en.energy_context(wt.arctanh_power(2.0), mu)

    def test_boundary_weight_normalized(self):
        ctx = mixed_context()
        assert ctx.weight.g1 == 1.0

    def test_interior_weight_untouched(self):
        mu = ms.atomic_measure([([0.2], 1.0)])
        ctx = en.energy_context(wt.clamped_linear(0.5), mu)
        assert ctx.weight.g1 == 0.5

    def test_out_of_ball_evaluation_rejected(self):
        ctx = mixed_context()
        with pytest.raises(DomainError):
            en.field_V(ctx, [1.0, 0.5])
