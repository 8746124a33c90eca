import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypcenter import geometry as geo
from hypcenter import measures as ms
from hypcenter import weights as wt
from hypcenter.energy import energy_context, kernel_K
from hypcenter.errors import (
    DegenerateDirection,
    DimensionMismatch,
    DomainError,
    HypcenterError,
)

from conftest import ball_pair, ball_vector, unit_vector

TANH = math.tanh
RNG = np.random.default_rng(20240817)


def random_ball(n, max_norm=0.95, rng=RNG):
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    return v * max_norm * rng.uniform() ** (1.0 / n)


class TestPointClassification:
    def test_interior(self):
        p = geo.point([0.3, 0.4])
        assert p.locus is geo.Locus.INTERIOR
        assert p.dim == 2

    def test_boundary_snap(self):
        p = geo.point([1.0 - 1e-12, 0.0])
        assert p.is_boundary
        assert p.r == 1.0

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            geo.point([1.5, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            geo.point([])


class TestInteriorRule:
    # raw coordinates of the open ball are never snapped onto the sphere
    NEAR = (1.0 - 1e-10) * np.array([0.6, 0.8])

    def test_near_sphere_raw_point_accepted(self):
        x = self.NEAR
        p = geo.interior_point(x)
        assert p.locus is geo.Locus.INTERIOR
        assert np.array_equal(p.coords, x)
        locations, boundary = np.array([[0.0, 0.0], [0.6, 0.8]]), np.array([False, True])
        img, bd = geo.mobius_map(x)(locations, boundary)
        np.testing.assert_array_equal(img[0], x)
        assert list(bd) == [False, True]
        d = geo.hyp_distance([0.0, 0.0], x)
        assert d == pytest.approx(math.atanh(1.0 - 1e-10), rel=1e-6)
        assert geo.hyp_distance(x, [0.1, 0.0]) > 11.0
        assert np.array_equal(geo.geodesic(x, [1.0, 0.0]).base.coords, x)

    @pytest.mark.parametrize("r", [1.0, 1.0 + 1e-10, 1.5])
    def test_closed_ball_rejected(self, r):
        x = [r, 0.0]
        for f in (geo.interior_point, geo.mobius_map,
                  lambda v: geo.hyp_distance(v, [0.0, 0.0]),
                  lambda v: geo.geodesic(v, [0.0, 1.0])):
            with pytest.raises(DomainError):
                f(x)

    def test_ball_points_keep_their_locus(self):
        near = geo.BallPoint(self.NEAR, geo.Locus.INTERIOR)
        assert geo.interior_point(near) is near
        with pytest.raises(DomainError):
            geo.interior_point(geo.point([0.6, 0.8]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_maps_on_empty_blocks(self, n):
        locations, boundary = np.empty((0, n)), np.empty(0, bool)
        h = geo.halfspace(np.eye(n)[0], 0.3)
        for f in (geo.mobius_map(np.full(n, 0.1)), geo.fold_map(h)):
            img, bd = f(locations, boundary)
            assert img.shape == (0, n)
            assert bd.shape == (0,)


class TestMobius:
    def test_identity_at_origin(self):
        y = geo.point([0.3, 0.4])
        out = geo.mobius([0.0, 0.0], y)
        np.testing.assert_allclose(out.coords, [0.3, 0.4], atol=1e-15)

    def test_one_dim_translation_law(self):
        # T_{tanh a} acts as hyperbolic translation by a.
        out = geo.mobius([TANH(1.0)], [TANH(1.0)])
        assert out.coords[0] == pytest.approx(TANH(2.0), abs=1e-15)

    def test_norm_by_direct_computation(self):
        # |T_x(y)|^2 = |x+y|^2 / (1 + 2 x.y + |x|^2 |y|^2) for x=(0.3,0), y=(0,0.5)
        out = geo.mobius([0.3, 0.0], [0.0, 0.5])
        assert out.r**2 == pytest.approx(0.34 / 1.0225, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geo.mobius([0.1], [0.1, 0.2])

    def test_inverse_examples(self):
        out = geo.mobius([-TANH(1.0)], [TANH(2.0)])
        assert out.coords[0] == pytest.approx(TANH(1.0), abs=1e-14)

    @given(ball_pair())
    def test_round_trip(self, pair):
        x, y = pair
        back = geo.mobius(x, geo.mobius(-x, y))
        assert np.linalg.norm(back.coords - y) < 1e-12

    def test_round_trip_bulk(self):
        for _ in range(1000):
            n = int(RNG.integers(1, 5))
            x, y = random_ball(n), random_ball(n)
            back = geo.mobius(-x, geo.mobius(x, y))
            assert np.linalg.norm(back.coords - y) < 1e-12

    def test_isometry_symmetry_bulk(self):
        # |T_x(y)| = |T_y(x)| on 10^4 random pairs
        worst = 0.0
        for _ in range(10_000):
            n = int(RNG.integers(1, 5))
            x, y = random_ball(n), random_ball(n)
            worst = max(worst, abs(geo.mobius(x, y).r - geo.mobius(y, x).r))
        assert worst < 1e-12

    def test_fixed_points_on_sphere(self):
        for _ in range(200):
            n = int(RNG.integers(2, 5))
            x = random_ball(n)
            if np.linalg.norm(x) < 1e-3:
                continue
            for sign in (+1.0, -1.0):
                fp = sign * x / np.linalg.norm(x)
                out = geo.mobius(x, geo.point(fp))
                assert np.linalg.norm(out.coords - fp) < 1e-12

    def test_boundary_preserved(self):
        for _ in range(500):
            n = int(RNG.integers(1, 5))
            x = random_ball(n)
            w = RNG.normal(size=n)
            w /= np.linalg.norm(w)
            out = geo.mobius(x, geo.point(w))
            assert out.is_boundary
            assert abs(out.r - 1.0) < 1e-12


class TestDistances:
    def test_distance_zero_iff_equal(self):
        x = [0.2, -0.4]
        assert geo.hyp_distance(x, x) == 0.0
        # near the sphere T_{-x}(x) is the kernel's antipode case
        rng = np.random.default_rng(5)
        for gap in (1e-6, 1e-8, 1e-10, 1e-12):
            for n in (1, 2, 3, 4):
                for _ in range(25):
                    u = rng.normal(size=n)
                    x = (1.0 - gap) * (u / np.linalg.norm(u))
                    assert geo.hyp_distance(x, x) == 0.0
                    assert geo.hyp_distance(x, np.nextafter(x, 0.0)) > 0.0

    def test_one_dim_distance(self):
        d = geo.hyp_distance([TANH(0.3)], [TANH(1.7)])
        assert d == pytest.approx(1.4, abs=1e-12)

    def test_distance_from_origin(self):
        y = [0.3, 0.1, -0.2]
        assert geo.hyp_distance([0, 0, 0], y) == pytest.approx(
            math.atanh(np.linalg.norm(y)), abs=1e-13
        )

    @given(ball_pair(max_norm=0.9))
    def test_symmetry(self, pair):
        x, y = pair
        assert geo.hyp_distance(x, y) == pytest.approx(
            geo.hyp_distance(y, x), abs=1e-12
        )

    def test_invariance_under_translation(self):
        for _ in range(300):
            n = int(RNG.integers(1, 5))
            x, y, z = random_ball(n), random_ball(n), random_ball(n, 0.9)
            d0 = geo.hyp_distance(x, y)
            d1 = geo.hyp_distance(geo.mobius(z, x), geo.mobius(z, y))
            assert abs(d0 - d1) < 1e-10


def _exact_mobius(x, y):
    """T_x(y) and 1 - |T_x(y)|^2 in exact rationals of the float inputs."""
    x, y = [Fraction(a) for a in x], [Fraction(b) for b in y]
    xy = sum(a * b for a, b in zip(x, y))
    xx, yy = sum(a * a for a in x), sum(b * b for b in y)
    den = 1 + 2 * xy + xx * yy
    image = [((1 + 2 * xy + yy) * a + (1 - xx) * b) / den for a, b in zip(x, y)]
    return image, (1 - xx) * (1 - yy) / den


def test_mobius_batch_exact_at_the_antipode():
    # y near -x with both within 1e-12 to 1e-4 of the sphere: x + y cancels
    # in every form of the denominator but the sum form, where it is exact
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        u, v = rng.normal(size=(2, n))
        u /= np.linalg.norm(u)
        w = u + 10.0 ** rng.uniform(-10, -2) * v
        w /= np.linalg.norm(w)
        gap_x, gap_y = 10.0 ** rng.uniform(-12, -4, size=2)
        x, y = (1.0 - gap_x) * u, -(1.0 - gap_y) * w
        rows = y[None]
        batch = geo.mobius_batch(x, rows, geo.one_minus_sq_norms(rows), np.zeros(1, dtype=bool))
        image, one_minus_r2 = _exact_mobius(x, y)
        err = math.hypot(*(float(Fraction(a) - b) for a, b in zip(batch.images[0].tolist(), image)))
        assert err <= 1e-15 * math.hypot(*map(float, image))
        got = Fraction(float(batch.one_minus_r2[0]))
        assert abs(float((got - one_minus_r2) / one_minus_r2)) <= 1e-15


class TestGeodesics:
    def test_chart_base(self):
        g = geo.geodesic([0.3, 0.0], [0.0, 1.0])
        p = geo.geodesic_point(g, 0.0)
        np.testing.assert_allclose(p.coords, [0.3, 0.0], atol=1e-15)

    def test_line_through_origin(self):
        g = geo.geodesic([0.0, 0.0], [1.0, 0.0])
        p = geo.geodesic_point(g, 0.5)
        np.testing.assert_allclose(p.coords, [0.5, 0.0], atol=1e-15)

    def test_arclength_parameterization(self):
        g = geo.geodesic([0.3, 0.0], [0.0, 1.0])
        for t in (0.9, -0.9):
            p = geo.geodesic_point(g, t)
            assert geo.hyp_distance(p, g.base) == pytest.approx(
                math.atanh(0.9), abs=1e-12
            )

    def test_chart_domain(self):
        g = geo.geodesic([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError):
            geo.geodesic_point(g, 1.0)

    def test_block_rows_equal_single_points(self):
        g = geo.geodesic([0.31, -0.42, 0.05], [0.3, 1.0, -0.7])
        ts = [-0.999, -0.3, 0.0, math.tanh(0.401), 1.0 - 1e-16]
        block = geo.geodesic_points(g, ts)
        for t, row in zip(ts, block):
            assert row.tobytes() == geo.geodesic_point(g, t).coords.tobytes()
        for bad in ([0.5, 1.0], [-1.0], [math.nan]):
            with pytest.raises(DomainError):
                geo.geodesic_points(g, bad)

    def test_through_two_interior_points(self):
        a, b = [0.1, 0.2], [-0.3, 0.4]
        g = geo.geodesic_through(a, b)
        assert geo.on_geodesic(g, a)
        assert geo.on_geodesic(g, b)

    def test_through_boundary_pair(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        g = geo.geodesic_through(geo.point(u), geo.point(v))
        assert geo.on_geodesic(g, u, tol=1e-9)
        assert geo.on_geodesic(g, v, tol=1e-9)
        # base is the arc's closest point to the origin
        assert g.base.r == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_through_antipodal_boundary_pair(self):
        g = geo.geodesic_through(geo.point([1.0, 0.0]), geo.point([-1.0, 0.0]))
        assert g.base.r == 0.0
        assert geo.on_geodesic(g, [0.7, 0.0])

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateDirection):
            geo.geodesic_through([0.1, 0.1], [0.1, 0.1])


class TestHalfspace:
    def test_base_halfball_contains(self):
        h = geo.halfspace([1.0, 0.0], 0.0)
        assert geo.halfspace_contains(h, [-0.2, 0.3])
        assert not geo.halfspace_contains(h, [0.2, 0.3])

    def test_translated_contains_origin(self):
        h = geo.halfspace([1.0, 0.0], 0.5)
        assert geo.halfspace_contains(h, [0.0, 0.0])

    def test_wall_points_on_boundary(self):
        h = geo.halfspace([1.0, 0.0], 0.3)
        for _ in range(100):
            w = np.array([0.0, RNG.uniform(-0.9, 0.9)])
            y = geo.mobius([0.3, 0.0], w)
            v = geo.mobius([-0.3, 0.0], y).coords
            assert abs(float(v @ h.p)) < 1e-12

    def test_fold_euclidean(self):
        h = geo.halfspace([1.0, 0.0], 0.0)
        out = geo.fold(h, [0.4, 0.1])
        np.testing.assert_allclose(out.coords, [-0.4, 0.1], atol=1e-15)
        out = geo.fold(h, [-0.4, 0.1])
        np.testing.assert_allclose(out.coords, [-0.4, 0.1], atol=1e-15)

    def test_fold_image_contained_bulk(self):
        for _ in range(1000):
            n = int(RNG.integers(2, 4))
            p = RNG.normal(size=n)
            p /= np.linalg.norm(p)
            h = geo.halfspace(p, RNG.uniform(-0.8, 0.8))
            y = random_ball(n)
            assert geo.halfspace_contains(h, geo.fold(h, y), tol=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            geo.halfspace([1.0, 0.0], 1.0)


def random_halfspace(n):
    p = RNG.normal(size=n)
    return geo.halfspace(p / np.linalg.norm(p), RNG.uniform(-0.8, 0.8))


def random_sphere(n):
    u = RNG.normal(size=n)
    return geo.point(u / np.linalg.norm(u))


class TestFoldOnSphere:
    """The fold maps are isometries of the closed ball: the sphere included."""

    def test_sphere_images_on_sphere_and_in_halfspace(self):
        folded = 0
        for _ in range(300):
            n = int(RNG.integers(2, 5))
            h = random_halfspace(n)
            u = random_sphere(n)
            img = geo.fold(h, u)
            assert img.is_boundary
            assert abs(float(np.linalg.norm(img.coords)) - 1.0) < 1e-15
            assert geo.halfspace_contains(h, img, tol=1e-12)
            folded += not geo.halfspace_contains(h, u)
        assert folded > 50

    def test_continuous_up_to_the_sphere(self):
        for _ in range(200):
            n = int(RNG.integers(2, 5))
            h = random_halfspace(n)
            u = random_sphere(n)
            near = geo.BallPoint((1.0 - 1e-10) * u.coords, geo.Locus.INTERIOR)
            gap = geo.fold(h, u).coords - geo.fold(h, near).coords
            assert float(np.linalg.norm(gap)) < 1e-8

    def test_one_pull_back_per_point(self, monkeypatch):
        calls = []
        original = geo.mobius_batch

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(geo, "mobius_batch", counting)
        outside = 0
        for _ in range(100):
            n = int(RNG.integers(2, 4))
            h = random_halfspace(n)
            y = random_ball(n) if RNG.uniform() < 0.7 else random_sphere(n)
            inside = geo.halfspace_contains(h, y)
            calls.clear()
            geo.fold(h, y)
            assert len(calls) <= (1 if inside else 2)
            outside += not inside
        assert outside > 20
        # a block takes one pull-back pass and at most one push for any m
        for m in (0, 1, 7, 300):
            n = int(RNG.integers(2, 5))
            h = random_halfspace(n)
            rows = [random_ball(n) if RNG.uniform() < 0.7 else random_sphere(n)
                    for _ in range(m)]
            locations = np.array([geo.point(y).coords for y in rows]).reshape(m, n)
            boundary = np.array([geo.point(y).is_boundary for y in rows], dtype=bool)
            calls.clear()
            geo.fold_map(h)(locations, boundary)
            assert len(calls) <= 2
            inside = np.array([geo.halfspace_contains(h, geo.point(y), tol=-1e-9)
                               for y in rows], dtype=bool)
            calls.clear()
            geo.fold_map(h)(locations[inside], boundary[inside])
            assert len(calls) == 1

    def test_fold_map_keeps_sphere_rows(self):
        h = geo.halfspace([1.0, 0.0], 0.2)
        locations = np.array([[1.0, 0.0], [0.6, -0.8], [-0.3, 0.2], [0.7, 0.1]])
        boundary = np.array([True, True, False, False])
        images, bd = geo.fold_map(h)(locations, boundary)
        np.testing.assert_array_equal(bd, boundary)
        np.testing.assert_allclose(np.linalg.norm(images[:2], axis=1), 1.0, atol=1e-15)
        for y in images:
            assert geo.halfspace_contains(h, y, tol=1e-12)


INVARIANCE_RADII = (0.0, 0.9, 1.0 - 1e-6, 1.0 - 1e-10)


def invariance_block(n, m=120, rng=RNG):
    """m rows of the closed ball in dimension n: spread interior rows, rows
    within 1e-10 of the sphere (kept interior) and sphere rows."""
    u = rng.normal(size=(m, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    radii = rng.uniform(0.0, 1.0, size=m)
    near = rng.uniform(size=m) < 0.3
    radii[near] = 1.0 - rng.uniform(1e-16, 1e-10, size=near.sum())
    boundary = rng.uniform(size=m) < 0.2
    radii[boundary] = 1.0
    return u * radii[:, None], boundary


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def one_minus_sq_rows(locations, boundary):
    """The 1 - |y|^2 datum mobius_batch takes: exact zeros on sphere rows."""
    return np.where(boundary, 0.0, geo.one_minus_sq_norms(locations))


# the MobiusBatch fields with one entry per row; omx is one per base
ROW_FIELDS = ("images", "radii", "arclengths", "one_minus_r2", "dens")


class TestBatchInvariance:
    """A row's result depends on that row alone, never on its block."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", INVARIANCE_RADII)
    def test_kernel_rows_match_one_row_calls(self, n, r):
        rng = np.random.default_rng(n)
        locations, boundary = invariance_block(n, rng=rng)
        u = rng.normal(size=n)
        x = r * (u / np.linalg.norm(u))
        block = geo.mobius_batch(x, locations, one_minus_sq_rows(locations, boundary), boundary)
        for i in range(len(locations)):
            rows, bd = locations[i:i + 1], boundary[i:i + 1]
            one = geo.mobius_batch(x, rows, one_minus_sq_rows(rows, bd), bd)
            for field in ROW_FIELDS:
                np.testing.assert_array_equal(
                    _bits(getattr(block, field)[i]), _bits(getattr(one, field)[0]))
            assert _bits(block.omx) == _bits(one.omx)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_block_of_bases_matches_one_base_calls(self, n):
        # a block of bases, one per radius and a spread of others, against
        # every row at once: base j's fields equal the one-base call on it
        rng = np.random.default_rng(20 + n)
        locations, boundary = invariance_block(n, rng=rng)
        u = rng.normal(size=(21, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        radii = np.concatenate([INVARIANCE_RADII, rng.uniform(0.0, 0.99, 17)])
        bases = radii[:, None] * u
        omy = one_minus_sq_rows(locations, boundary)
        block = geo.mobius_batch(bases, locations, omy, boundary)
        for j, x in enumerate(bases):
            one = geo.mobius_batch(x, locations, omy, boundary)
            for field in geo.MobiusBatch._fields:
                np.testing.assert_array_equal(
                    _bits(getattr(block, field)[j]), _bits(getattr(one, field)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", INVARIANCE_RADII)
    def test_array_maps_match_single_points(self, n, r):
        rng = np.random.default_rng(10 + n)
        locations, boundary = invariance_block(n, rng=rng)
        p = rng.normal(size=n)
        p /= np.linalg.norm(p)
        ys = [geo.BallPoint(y, geo.Locus.BOUNDARY if b else geo.Locus.INTERIOR)
              for y, b in zip(locations, boundary)]
        images, _ = geo.mobius_map(r * p)(locations, boundary)
        expected = np.array([geo.mobius(r * p, y).coords for y in ys])
        np.testing.assert_array_equal(_bits(images), _bits(expected))
        h = geo.halfspace(p, r)
        images, _ = geo.fold_map(h)(locations, boundary)
        expected = np.array([geo.fold(h, y).coords for y in ys])
        np.testing.assert_array_equal(_bits(images), _bits(expected))


class TestDistanceConvexityAlongGeodesics:
    """Second differences of d(., 0) in hyperbolic arclength."""

    H = 1e-3

    def _second_diff(self, g, tau):
        vals = [
            math.atanh(geo.geodesic_point(g, math.tanh(tau + k * self.H)).r)
            for k in (-1, 0, 1)
        ]
        return (vals[0] - 2.0 * vals[1] + vals[2]) / self.H**2

    def test_strictly_positive_off_origin(self):
        for _ in range(50):
            n = int(RNG.integers(2, 4))
            base = random_ball(n, 0.7)
            if np.linalg.norm(base) < 0.1:
                base = base + 0.2 * np.eye(n)[0]
            g = geo.geodesic(base, RNG.normal(size=n))
            taus = np.linspace(-1.0, 1.0, 9)
            radii = [geo.geodesic_point(g, math.tanh(t)).r for t in taus]
            if min(radii) < 0.05:
                continue
            for t in taus:
                assert self._second_diff(g, float(t)) > 0.0

    def test_linear_along_origin_lines(self):
        g = geo.geodesic([0.0, 0.0], [1.0, 0.0])
        for tau in (0.3, 0.8, -0.5, -1.2):
            assert abs(self._second_diff(g, tau)) < 1e-9


@given(ball_vector(max_norm=0.999))
def test_one_minus_sq_norm_matches_fsum(v):
    direct = 1.0 - sum(float(a) * float(a) for a in v)
    assert geo.one_minus_sq_norm(v) == pytest.approx(direct, abs=1e-12)


@given(st.integers(2, 4), st.data())
def test_geodesic_direction_sign_symmetric(n, data):
    # no orientation convention: both direction signs give the same point set
    base = data.draw(ball_vector(dim=n, max_norm=0.8))
    d = data.draw(unit_vector(dim=n))
    g1 = geo.geodesic(base, d)
    g2 = geo.geodesic(base, -d)
    p1 = geo.geodesic_point(g1, 0.4)
    p2 = geo.geodesic_point(g2, -0.4)
    assert np.linalg.norm(p1.coords - p2.coords) < 1e-14


GEOMETRY_GOLDEN = Path(__file__).parent / "golden" / "geometry_values.json"
GOLDEN_RADII = (0.0, 0.3, 0.75, 0.99, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-15)
CHART_TS = (-(1.0 - 1e-15), -0.6, 0.0, 0.3, 0.999, 1.0 - 1e-10)


def _hex_of(value):
    """One call's result as a string of float.hex values (or the error raised)."""
    if isinstance(value, geo.BallPoint):
        return " ".join([value.locus.value, *map(float.hex, value.coords.tolist())])
    if isinstance(value, tuple):  # an ArrayMap's (images, boundary)
        images, bd = value
        return " ".join([*map(float.hex, images.ravel().tolist()), str(bd.tolist())])
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    return " ".join(map(float.hex, np.atleast_1d(value).astype(float).tolist()))


def _call(f, *args):
    try:
        return _hex_of(f(*args))
    except HypcenterError as exc:
        return "!" + type(exc).__name__


def geometry_record(n):
    """Values of every geometry primitive, and of kernel_K, on fixed inputs in
    dimension n: interior points out to 1e-15 from the sphere, built as
    BallPoints so that they are not snapped, and sphere points."""
    rng = np.random.default_rng(100 + n)

    def unit():
        v = rng.normal(size=n)
        return v / np.linalg.norm(v)

    inner = [geo.BallPoint(r * unit(), geo.Locus.INTERIOR) for r in GOLDEN_RADII]
    inner.append(geo.BallPoint(rng.uniform(0.2, 0.6) * unit(), geo.Locus.INTERIOR))
    ys = inner + [geo.point(unit()) for _ in range(2)]
    halfspaces = [geo.halfspace(unit(), t) for t in (-0.9, 0.0, 0.5, 0.99)]
    e1 = np.eye(n)[0]
    boundary_ctx = energy_context(
        wt.identity(), ms.atomic_measure([(e1, 1.0), (-0.3 * e1, 0.5)])
    )
    interior_ctx = energy_context(
        wt.arctanh_power(2.0), ms.atomic_measure([(0.3 * e1, 1.0), (-0.2 * e1, 0.7)])
    )
    locations = np.array([y.coords for y in ys])
    boundary = np.array([y.is_boundary for y in ys])
    inner_locations = locations[~boundary]
    out = {}
    for name, f, args in [
        ("mobius", geo.mobius, [(x, y) for x in inner for y in ys]),
        ("hyp_distance", geo.hyp_distance, [(x, y) for x in inner for y in inner]),
        ("geodesic_point", geo.geodesic_point, [
            (geo.geodesic(b, unit()), t) for b in inner[:4] for t in CHART_TS
        ]),
        ("fold", geo.fold, [(h, y) for h in halfspaces for y in inner]),
        ("halfspace_contains", geo.halfspace_contains,
         [(h, y) for h in halfspaces for y in inner]),
        ("kernel_K[boundary_ctx]", lambda x, y: kernel_K(boundary_ctx, x, y),
         [(x.coords, y) for x in inner for y in ys]),
        ("kernel_K[interior_ctx]", lambda x, y: kernel_K(interior_ctx, x, y),
         [(x.coords, y) for x in inner for y in inner]),
        ("mobius_map", lambda x: geo.mobius_map(x)(locations, boundary),
         [(x,) for x in inner]),
        ("fold_map", lambda h: geo.fold_map(h)(inner_locations, boundary[~boundary]),
         [(h,) for h in halfspaces]),
    ]:
        out[name] = [_call(f, *a) for a in args]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geometry_values_bit_identical(n):
    # re-recorded in full when the Mobius kernel took the sum form, which
    # among others moved hyp_distance(x, x) near the sphere from inf to 0
    expected = json.loads(GEOMETRY_GOLDEN.read_text())[str(n)]
    assert geometry_record(n) == expected
    # each mobius_map row equals the recorded one-point mobius at that (x, y)
    k = len(expected["mobius"]) // len(expected["mobius_map"])
    for i, entry in enumerate(expected["mobius_map"]):
        points = [e.split(" ", 1) for e in expected["mobius"][i * k:(i + 1) * k]]
        rows = [coords for _, coords in points]
        mask = [locus == geo.Locus.BOUNDARY.value for locus, _ in points]
        assert entry == " ".join([*rows, str(mask)])
