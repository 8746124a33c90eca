import ast
import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypcenter import energy as en
from hypcenter import geometry as geo
from hypcenter import measures as ms
from hypcenter import weights as wt
from hypcenter.errors import (
    DimensionMismatch,
    DomainError,
    EmptyMeasure,
    RegionTouchesBoundary,
    ZeroTotal,
)

TANH = math.tanh


class TestConstruction:
    def test_basic(self):
        mu = ms.atomic_measure([([0.1, 0.2], 1.0), ([-0.3, 0.0], 2.0)])
        assert mu.dimension == 2
        assert mu.total == 3.0
        assert mu.abs_total == 3.0
        assert not mu.signed

    def test_empty_rejected(self):
        with pytest.raises(EmptyMeasure):
            ms.atomic_measure([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            ms.atomic_measure([([0.1], 1.0), ([0.1, 0.2], 1.0)])

    def test_boundary_snap(self):
        mu = ms.atomic_measure([([1.0, 0.0], 1.0), ([0.0, 0.0], 1.0)])
        assert list(mu.boundary_mask) == [True, False]


def _pointwise_reference(atoms):
    """Per-atom construction: geometry.point() for Cartesian atoms, the
    tanh(s) u/|u| formula with datum sech^2 s for polar ones."""
    coords, sphere, datum = [], [], []
    for spec, _ in atoms:
        if isinstance(spec, dict):
            u = np.array(spec["dir"], dtype=float)
            coords.append(math.tanh(spec["s"]) * (u / float(np.linalg.norm(u))))
            sphere.append(False)
            datum.append(1.0 / math.cosh(spec["s"]) ** 2)
        else:
            p = geo.point(spec)
            coords.append(p.coords)
            sphere.append(p.is_boundary)
            datum.append(0.0 if p.is_boundary else geo.one_minus_sq_norm(p.coords))
    return np.stack(coords), np.array(sphere), np.array(datum)


class TestArrayConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("with_polar", [False, True])
    def test_matches_pointwise_point(self, n, with_polar):
        rng = np.random.default_rng(100 + n)
        dirs = rng.normal(size=(1500, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = np.concatenate([
            rng.uniform(0.0, 0.99, 300),
            1.0 + rng.uniform(-0.9e-9, 0.9e-9, 600),  # snapped onto the sphere
            np.full(300, 1.0 - 1.1e-9),  # just outside the snap band: interior
            np.ones(300),
        ])
        locs = dirs * radii[:, None]
        locs[-n:] = np.eye(n)  # exact sphere rows
        locs[0] = 0.0  # the origin
        atoms = [(row, w) for row, w in zip(locs.tolist(), rng.uniform(-1, 1, 1500))]
        if with_polar:
            for i in rng.choice(len(atoms), 40, replace=False):
                polar = {"dir": rng.normal(size=n).tolist(), "s": rng.uniform(0, 18)}
                atoms[i] = (polar, atoms[i][1])
        mu = ms.atomic_measure(atoms)
        coords, sphere, datum = _pointwise_reference(atoms)
        assert 0 < sphere.sum() < len(atoms) - 300
        np.testing.assert_array_equal(
            mu.locations.view(np.int64), coords.view(np.int64)
        )
        np.testing.assert_array_equal(mu.boundary_mask, sphere)
        assert mu.weights.tolist() == [w for _, w in atoms]
        if with_polar:
            np.testing.assert_array_equal(
                mu.one_minus_sq.view(np.int64), datum.view(np.int64)
            )
        else:
            assert mu.one_minus_sq is None
            np.testing.assert_array_equal(mu.one_minus_sq_values, datum)

    @pytest.mark.parametrize(
        "atoms, error",
        [
            ([], EmptyMeasure),
            ([([0.1, 0.2], 1.0), ([0.3], 1.0), ([0.1, 0.2, 0.3], 1.0)],
             DimensionMismatch),
            ([({"dir": [1.0, 0.0], "s": 1.0}, 1.0), ([0.1], 1.0)], DimensionMismatch),
            ([({"dir": [1.0], "s": 1.0}, 1.0), ({"dir": [0.0, 1.0], "s": 1.0}, 1.0)],
             DimensionMismatch),
            ([([[0.1, 0.2]], 1.0)], DomainError),
            ([([0.1, 0.2], 1.0), ([[0.1, 0.2]], 1.0)], DomainError),
            ([(0.5, 1.0)], DomainError),
            ([([], 1.0)], DomainError),
            ([([0.1, "a"], 1.0)], DomainError),
            ([([0.1, [0.2]], 1.0)], DomainError),
            ([([0.1, math.nan], 1.0)], DomainError),
            ([([0.2], 1.0), ([math.inf], 1.0)], DomainError),
            ([([1.5], 1.0)], DomainError),
            ([([0.1, 0.2], 1.0), ([0.8, 0.7], 1.0)], DomainError),
            ([([1.0 + 1.1e-9], 1.0)], DomainError),
            ([([0.1], math.nan)], DomainError),
            ([([0.1], math.inf)], DomainError),
            ([([0.1], None)], DomainError),
        ],
    )
    def test_malformed_atoms_keep_their_error_types(self, atoms, error):
        with pytest.raises(error):
            ms.atomic_measure(atoms)

    def test_dimension_argument_checked(self):
        with pytest.raises(DimensionMismatch):
            ms.atomic_measure([([0.1, 0.2], 1.0)], dimension=3)
        assert ms.atomic_measure([([0.1, 0.2], 1.0)], dimension=2).dimension == 2

    def test_no_ball_points_in_measures(self):
        # atoms live in arrays; single-point objects belong to geometry, and
        # validation classifies rows without re-snapping them
        single_point = {"BallPoint", "point", "geodesic_through"}
        tree = ast.parse(inspect.getsource(ms))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not single_point & {a.name for a in node.names}
            if isinstance(node, ast.Name):
                assert node.id not in single_point
            if isinstance(node, ast.Attribute):
                assert node.attr not in single_point
        assert not hasattr(ms.AtomicMeasure, "points")
        assert not hasattr(ms.AtomicMeasure, "atoms")

    def test_arrays_are_read_only(self):
        built = ms.atomic_measure(
            [([0.1, 0.2], 1.0), ([1.0, 0.0], 2.0), ({"dir": [0.0, 1.0], "s": 2.0}, 1.0)]
        )
        pushed = ms.pushforward(built, geo.mobius_map([0.2, -0.1]))
        for mu, names in (
            (built, ("locations", "weights", "boundary_mask", "one_minus_sq")),
            (pushed, ("locations", "weights", "boundary_mask", "one_minus_sq_values")),
        ):
            for name in names:
                arr = getattr(mu, name)
                with pytest.raises(ValueError):
                    arr[0] = arr[1]


class TestPolarAtoms:
    def test_far_polar_atom_carries_exact_datum(self):
        mu = ms.atomic_measure([([0.0], 0.5), ({"dir": [1.0], "s": 9.0}, 0.5)])
        assert list(mu.boundary_mask) == [False, False]
        assert mu.locations[1, 0] == TANH(9.0)
        ctx = en.energy_context(wt.arctanh_power(2.0), mu)
        assert ctx.measure.one_minus_sq_values[1] == 1.0 / math.cosh(9.0) ** 2
        assert ctx.measure.one_minus_sq_values[0] == 1.0

    def test_polar_atom_beyond_snap_tolerance_stays_interior(self):
        # tanh 12 lies within 1e-9 of the sphere: Cartesian input snaps
        assert ms.atomic_measure([([TANH(12.0)], 1.0)]).boundary_mask[0]
        mu = ms.atomic_measure([({"dir": [1.0], "s": 12.0}, 1.0)])
        assert not mu.boundary_mask[0]
        assert mu.one_minus_sq[0] == 1.0 / math.cosh(12.0) ** 2

    def test_polar_direction_is_normalized(self):
        mu = ms.atomic_measure([({"dir": [3.0, 4.0], "s": 1.0}, 1.0)])
        np.testing.assert_allclose(
            mu.locations[0], TANH(1.0) * np.array([0.6, 0.8]), rtol=1e-15
        )

    def test_mixed_measure_fills_cartesian_rows(self):
        polar = {"dir": [0.0, 1.0], "s": 2.0}
        mu = ms.atomic_measure([([1.0, 0.0], 1.0), ([0.3, 0.4], 1.0), (polar, 1.0)])
        assert mu.one_minus_sq[0] == 0.0
        assert mu.one_minus_sq[1] == geo.one_minus_sq_norm(np.array([0.3, 0.4]))
        assert mu.one_minus_sq[2] == 1.0 / math.cosh(2.0) ** 2

    @pytest.mark.parametrize(
        "spec",
        [
            {"dir": [0.0, 0.0], "s": 1.0},
            {"dir": [1.0], "s": -1.0},
            {"dir": [1.0], "s": math.inf},
            {"dir": [math.nan], "s": 1.0},
            {"dir": [1.0], "s": 40.0},
        ],
    )
    def test_invalid_polar_atoms_rejected(self, spec):
        with pytest.raises(DomainError):
            ms.atomic_measure([(spec, 1.0)])

    def test_cartesian_context_datum_unchanged(self):
        atoms = [([1.0, 0.0], 1.0), ([0.3, -0.4], 2.0), ([TANH(9.0), 0.0], 0.5)]
        mu = ms.atomic_measure(atoms)
        assert mu.one_minus_sq is None
        ctx = en.energy_context(wt.identity(), mu)
        expected = [
            0.0 if on_sphere else geo.one_minus_sq_norm(y)
            for y, on_sphere in zip(mu.locations, mu.boundary_mask)
        ]
        assert ctx.measure.one_minus_sq_values.tolist() == expected

    def test_far_polar_atoms_stay_apart(self):
        # tanh 16 and tanh 17 lie within 1e-12 of each other; their exact
        # 1 - |y|^2 data differ by a factor of about 7
        mu = ms.atomic_measure(
            [({"dir": [1.0], "s": 16.0}, 1.0), ({"dir": [1.0], "s": 17.0}, 1.0)]
        )
        _, agg_w, _ = ms._aggregate(mu)
        assert agg_w.tolist() == [1.0, 1.0]

    def test_equal_polar_atoms_merge(self):
        far = {"dir": [1.0], "s": 16.0}
        mu = ms.atomic_measure([(far, 1.0), ([0.5], 1.0), (far, 2.0)])
        _, agg_w, _ = ms._aggregate(mu)
        assert agg_w.tolist() == [3.0, 1.0]

    def test_pushforward_drops_datum(self):
        mu = ms.atomic_measure([({"dir": [1.0], "s": 3.0}, 1.0)])
        out = ms.pushforward(mu, geo.mobius_map([0.2]))
        assert out.one_minus_sq is None


class TestValidate:
    def test_two_atoms_one_dim_in_geodesic(self):
        mu = ms.atomic_measure([([0.3], 1.0), ([-0.5], 1.0)])
        report = ms.validate(mu)
        assert report.geodesic_support is ms.GeodesicSupport.IN_GEODESIC
        assert report.total == 2.0
        assert report.support is ms.Support.COMPACT_INTERIOR

    def test_equal_boundary_point_masses_fail_pointmass(self):
        y = [0.6, 0.8]
        mu = ms.atomic_measure([(y, 0.5), ([-y[0], -y[1]], 0.5)])
        report = ms.validate(mu)
        assert report.support is ms.Support.SPHERE_ONLY
        assert not report.boundary_pointmass_ok

    def test_three_noncollinear_atoms(self):
        # third atom displaced 0.1 off the geodesic through the first two
        mu = ms.atomic_measure(
            [([0.2, 0.0], 1.0), ([-0.4, 0.0], 1.0), ([0.0, 0.1], 1.0)]
        )
        report = ms.validate(mu)
        assert report.geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC

    def test_collinear_atoms_detected(self):
        g = geo.geodesic_through([0.2, 0.1], [-0.3, 0.4])
        pts = [geo.geodesic_point(g, t).coords for t in (-0.5, 0.0, 0.3, 0.8)]
        mu = ms.atomic_measure([(p, 1.0) for p in pts])
        report = ms.validate(mu)
        assert report.geodesic_support is ms.GeodesicSupport.IN_GEODESIC

    def test_sphere_atoms_on_closure(self):
        # both endpoints of a diameter plus an interior point of that diameter
        mu = ms.atomic_measure(
            [([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0), ([0.3, 0.0], 1.0)]
        )
        report = ms.validate(mu)
        assert report.geodesic_support is ms.GeodesicSupport.IN_GEODESIC_CLOSURE

    @pytest.mark.parametrize("n", [2, 3])
    def test_geodesic_support_matches_pointwise(self, n):
        # the batched membership test classifies as one on_geodesic per atom
        def pointwise(locs, bd):
            # the pair validate uses: the interior atom nearest the origin and
            # the atom farthest from it; the tolerance shrinks with the chart
            ia = int(np.argmin([math.inf if b else z @ z for z, b in zip(locs, bd)]))
            a = locs[ia]
            far = int(np.argmax([np.linalg.norm(z - a) for z in locs]))
            g = geo.geodesic_through(geo.point(a), geo.point(locs[far]))
            oma = 1.0 - a @ a
            for i, (z, b) in enumerate(zip(locs, bd)):
                if i in (ia, far):
                    continue
                lam = oma / ((z - a) @ (z - a) + oma * (0.0 if b else 1.0 - z @ z))
                tol = max(ms.GEODESIC_MEMBER_TOL * min(lam, 1.0), ms._CHART_ROUNDOFF)
                if not geo.on_geodesic(g, geo.point(z), tol=tol):
                    return ms.GeodesicSupport.NOT_IN_GEODESIC
            return "on"

        rng = np.random.default_rng(40 + n)
        g = geo.geodesic(rng.uniform(-0.4, 0.4, n), rng.normal(size=n))
        normal = rng.normal(size=n)
        normal -= (normal @ g.dir) * g.dir
        normal /= np.linalg.norm(normal)
        ends = [geo.mobius(g.base, geo.point(sign * g.dir)).coords for sign in (1, -1)]

        def chart(t, off=0.0):
            return geo.mobius(g.base, geo.point(t * g.dir + off * normal)).coords

        ts = rng.uniform(-0.95, 0.95, 30)
        collinear = [chart(t) for t in ts]
        sets = {
            "collinear": collinear,
            "collinear_sphere": [ends[0], *collinear, ends[1]],
            "sphere_first": [ends[1], ends[0], *collinear],
            "near_1e-9": [*collinear, chart(0.3, 1e-9)],
            "near_1e-11": [*collinear, chart(0.3, 1e-11)],
            "generic": [rng.uniform(-0.5, 0.5, n) for _ in range(30)],
            "generic_sphere": [ends[0], *(rng.uniform(-0.5, 0.5, n) for _ in range(5))],
        }
        seen = set()
        for name, pts in sets.items():
            mu = ms.atomic_measure([(p, 1.0) for p in pts])
            locs, _, bd = ms._aggregate(mu)
            got = ms._geodesic_support(locs, bd)
            want = pointwise(locs, bd)
            on = got is not ms.GeodesicSupport.NOT_IN_GEODESIC
            assert on == (want == "on"), name
            seen.add(on)
        assert seen == {True, False}

    def test_clustered_sphere_atoms_validate(self):
        # three distinct sphere points never lie on one geodesic
        pts = [[math.cos(a), math.sin(a)] for a in (0.0, 1e-8, 2e-8)]
        mu = ms.atomic_measure([(p, 1.0) for p in pts])
        report = ms.validate(mu)
        assert report.support is ms.Support.SPHERE_ONLY
        assert report.geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC
        ctx = en.energy_context(wt.identity(), mu)
        assert ctx.validation.geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC

    @pytest.mark.parametrize("atoms", [
        [({"dir": [1.0, 0.0], "s": 13.0}, 1.0), ([0.0, 0.0], 1.0), ([0.0, 0.5], 1.0)],
        [({"dir": [1.0, 0.0], "s": 12.0}, 1.0), ([0.0, 0.0], 1.0), ([0.5, 0.1], 1.0)],
        [({"dir": d, "s": 12.0}, 1.0) for d in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])],
    ])
    def test_far_out_atoms_do_not_squeeze_residuals(self, atoms):
        # a chart centred near the sphere shrinks residuals by ~1 - |a|^2; a far
        # polar atom listed first must not make a spread support look collinear
        report = ms.validate(ms.atomic_measure(atoms))
        assert report.geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC

    def test_far_out_atoms_on_a_diameter(self):
        atoms = [({"dir": [1.0, 0.0], "s": s}, 1.0) for s in (12.0, 13.0)]
        atoms.append(({"dir": [-1.0, 0.0], "s": 12.0}, 1.0))
        report = ms.validate(ms.atomic_measure(atoms))
        assert report.geodesic_support is ms.GeodesicSupport.IN_GEODESIC

    def test_far_polar_cluster_validates(self):
        # stored rows within 1e-9 of the sphere keep their interior locus
        atoms = [({"dir": [math.cos(a), math.sin(a)], "s": 12.0}, 1.0)
                 for a in (0.0, 1e-8, 2e-8)]
        report = ms.validate(ms.atomic_measure(atoms))
        assert report.support is ms.Support.COMPACT_INTERIOR
        assert report.geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC

    @pytest.mark.parametrize("count", [3, 4])
    def test_nearly_coincident_sphere_atoms(self, count):
        # two sphere atoms 1e-8 rad apart define no geodesic of their own
        pts = [[1.0, 0.0], [math.cos(1e-8), math.sin(1e-8)], [-0.6, 0.8], [0.0, -1.0]]
        report = ms.validate(ms.atomic_measure([(p, 1.0) for p in pts[:count]]))
        assert report.support is ms.Support.SPHERE_ONLY
        if count == 4:
            assert report.geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC

    def test_pointmass_aggregates_split_atoms(self):
        y = [0.6, 0.8]
        mu = ms.atomic_measure([(y, 0.3), (y, 0.3), ([0.0, 0.1], 0.4)])
        report = ms.validate(mu)
        assert not report.boundary_pointmass_ok  # 0.6 aggregated >= 0.5 total

    def test_permutation_invariance(self):
        atoms = [([0.1, 0.0], 0.5), ([0.0, 0.2], 1.5), ([-0.3, 0.1], 1.0)]
        r1 = ms.validate(ms.atomic_measure(atoms))
        r2 = ms.validate(ms.atomic_measure(atoms[::-1]))
        assert r1.total == r2.total
        assert r1.geodesic_support is r2.geodesic_support
        assert r1.boundary_pointmass_ok == r2.boundary_pointmass_ok

    def test_zero_total_unsigned(self):
        with pytest.raises(ZeroTotal):
            ms.validate(ms.atomic_measure([([0.1], 0.0)]))

    def test_signed_zero_total_allowed(self):
        mu = ms.atomic_measure([([0.5], 1.0), ([-0.5], -1.0)])
        report = ms.validate(mu)
        assert report.signed
        assert report.total == 0.0


def _greedy_aggregate(measure):
    """The original O(m^2) merge: one full distance pass per unmerged atom."""
    locs = measure.locations
    ws = measure.weights
    bd = measure.boundary_mask
    m = len(ws)
    assigned = np.full(m, -1, dtype=int)
    reps: list[int] = []
    for i in range(m):
        if assigned[i] >= 0:
            continue
        close = np.linalg.norm(locs - locs[i], axis=1) <= ms.CO_LOCATION_TOL
        close &= assigned < 0
        assigned[close] = len(reps)
        reps.append(i)
    agg_w = np.zeros(len(reps))
    for i in range(m):
        agg_w[assigned[i]] += ws[i]
    return locs[reps], agg_w, bd[reps]


class TestAggregate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_greedy_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 1 + seed % 4, 300
        dirs = rng.normal(size=(m, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        locs = dirs * np.tanh(rng.uniform(0.0, 3.0, m))[:, None]
        locs[:30] = dirs[:30]  # sphere atoms
        exact = locs[rng.integers(0, m, 40)]
        near = locs[rng.integers(0, m, 40)]
        near = near + rng.uniform(-1.0, 1.0, near.shape) * (1e-13 / math.sqrt(n))
        # a chain 0.6e-12 apart: greedy order decides which links merge
        chain = locs[30] + np.outer(np.arange(1, 4) * 0.6e-12, np.eye(n)[0])
        all_locs = np.concatenate([locs, exact, near, chain])
        order = rng.permutation(len(all_locs))
        w = rng.uniform(0.2, 1.0, len(all_locs))
        mu = ms.atomic_measure(list(zip(all_locs[order], w)))
        got, want = ms._aggregate(mu), _greedy_aggregate(mu)
        assert len(want[1]) < len(mu)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def _brute_force_pairs(locs, tol):
    m = len(locs)
    return {(i, j) for i in range(m) for j in range(i + 1, m)
            if np.linalg.norm(locs[i] - locs[j]) <= tol}


def _close_pair_set(locs, tol):
    i, j = ms._close_pairs(locs, 2.0 * tol)
    assert np.all(i < j)
    close = np.linalg.norm(locs[i] - locs[j], axis=1) <= tol
    return set(zip(i[close].tolist(), j[close].tolist()))


class TestClosePairs:
    """The sort-and-sweep candidates with the exact distance test find the
    pairs a brute-force O(m^2) scan finds."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(3)
        base = rng.uniform(-0.5, 0.5, (40, 3))
        # narrower than 2e-12 along the widest axis, spread in the others
        narrow = np.column_stack([
            0.3 + rng.uniform(0.0, 1.5e-12, 30),
            rng.uniform(-0.1, 0.1, 30),
            rng.uniform(-1e-12, 1e-12, 30),
        ])
        narrow[20:, 1] = 0.0  # these 10 rows lie within about 2e-12 of each other
        chain = 0.2 + np.outer(np.arange(6) * 0.6e-12, [1.0, 0.0])
        return {
            "one_atom": np.array([[0.1, 0.2]]),
            "duplicates": np.repeat([[0.1, -0.2, 0.3]], 5, axis=0),
            "far_apart": np.array([[-0.9, 0.0], [0.0, 0.0], [0.9, 0.0]]),
            "random": base,
            "narrow_cluster": np.concatenate([narrow, base * [2.0, 1.0, 1.0]]),
            "chain": np.concatenate([chain, rng.uniform(-0.5, 0.5, (10, 2))]),
            "near_pairs": np.concatenate(
                [base, base + rng.uniform(-1.0, 1.0, base.shape) * 0.6e-12]),
        }

    @pytest.mark.parametrize("name", sorted(cases()))
    def test_matches_brute_force(self, name):
        locs = self.cases()[name]
        want = _brute_force_pairs(locs, ms.CO_LOCATION_TOL)
        assert _close_pair_set(locs, ms.CO_LOCATION_TOL) == want
        assert _close_pair_set(locs[::-1].copy(), ms.CO_LOCATION_TOL) == {
            (len(locs) - 1 - j, len(locs) - 1 - i) for i, j in want}

    def test_co_location_fixtures(self):
        far = {"dir": [1.0], "s": 16.0}
        y = [0.6, 0.8]
        for atoms in (
            [(far, 1.0), ([0.5], 1.0), (far, 2.0)],
            [({"dir": [1.0], "s": 16.0}, 1.0), ({"dir": [1.0], "s": 17.0}, 1.0)],
            [(y, 0.3), (y, 0.3), ([0.0, 0.1], 0.4)],
            [([math.cos(a), math.sin(a)], 1.0) for a in (0.0, 1e-8, 2e-8)],
        ):
            locs = ms.atomic_measure(atoms).locations
            want = _brute_force_pairs(locs, ms.CO_LOCATION_TOL)
            assert _close_pair_set(locs, ms.CO_LOCATION_TOL) == want


class TestHalton:
    @pytest.mark.parametrize("dimension", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_equals_scipy_bit_for_bit(self, dimension, seed):
        # the numpy port against the scipy sampler it replaces, over two
        # consecutive draws
        from scipy.stats import qmc

        sampler = qmc.Halton(d=dimension, scramble=True, seed=seed)
        batches = ms._halton(dimension, seed, 64)
        for _ in range(2):
            assert next(batches).tobytes() == sampler.random(64).tobytes()


def _ball_points(measure):
    """The atoms as single points with their recorded loci, never re-snapped."""
    loci = [geo.Locus.BOUNDARY if b else geo.Locus.INTERIOR
            for b in measure.boundary_mask]
    return [geo.BallPoint(y, lc) for y, lc in zip(measure.locations, loci)]


class TestPushforward:
    def test_identity_map(self):
        mu = ms.atomic_measure([([0.1, 0.2], 1.0), ([0.3, -0.1], 2.0), ([0.0, 1.0], 1.0)])
        out = ms.pushforward(mu, lambda locs, bd: (locs, bd))
        assert out.total == mu.total
        np.testing.assert_array_equal(out.locations, mu.locations)
        np.testing.assert_array_equal(out.boundary_mask, mu.boundary_mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mobius_map_matches_pointwise(self, n):
        rng = np.random.default_rng(n)
        dirs = rng.normal(size=(400, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        locs = dirs * np.tanh(rng.uniform(0.0, 3.0, 400))[:, None]
        locs[:40] = dirs[:40]
        mu = ms.atomic_measure([(y, 1.0) for y in locs])
        eps = np.spacing(1.0)
        for radius in (0.0, 0.05, 0.3, 0.6, 0.9):
            x = rng.normal(size=n)
            x *= radius / np.linalg.norm(x)
            out = ms.pushforward(mu, geo.mobius_map(x))
            ref = np.array([geo.mobius(x, p).coords for p in _ball_points(mu)])
            # the batch rounds x.y in a matrix-vector product, mobius() in a
            # dot per point: 4 ulp plus that rounding difference, propagated
            # through d T_x(y) / d(x.y), whose norm is below
            # 2 (1 + 2|x|) / (1 - |x|)^2
            spread = 2.0 * n * radius * (1.0 + 2.0 * radius) / (1.0 - radius) ** 2
            assert np.abs(out.locations - ref).max() <= eps * (4.0 + spread)
            np.testing.assert_array_equal(out.boundary_mask, mu.boundary_mask)
            sphere = np.linalg.norm(out.locations[out.boundary_mask], axis=1)
            assert np.abs(sphere - 1.0).max() <= 2.0 * eps
            assert np.linalg.norm(out.locations[~out.boundary_mask], axis=1).max() < 1.0

    def test_mobius_map_clamps_interior_overshoot(self):
        # T_x of this far atom rounds past the sphere; like mobius(), the batch
        # clamps the image back inside and keeps it interior
        mu = ms.atomic_measure([({"dir": [1.0], "s": 18.3}, 1.0)])
        out = ms.pushforward(mu, geo.mobius_map([0.3]))
        assert not out.boundary_mask[0]
        assert out.locations[0, 0] < 1.0
        assert out.locations[0, 0] == geo.mobius([0.3], _ball_points(mu)[0]).coords[0]

    def test_wrong_shape_rejected(self):
        mu = ms.atomic_measure([([0.1, 0.2], 1.0), ([0.3, -0.1], 2.0)])
        with pytest.raises(DimensionMismatch):
            ms.pushforward(mu, lambda locs, bd: (locs[:, :1], bd))
        with pytest.raises(DimensionMismatch):
            ms.pushforward(mu, lambda locs, bd: (locs[:1], bd[:1]))
        with pytest.raises(DimensionMismatch):
            ms.pushforward(mu, geo.mobius_map([0.1, 0.0, 0.0]))

    def test_images_outside_ball_rejected(self):
        mu = ms.atomic_measure([([0.1, 0.2], 1.0), ([0.0, 1.0], 2.0)])
        with pytest.raises(DomainError):
            ms.pushforward(mu, lambda locs, bd: (2.0 * locs, bd))
        with pytest.raises(DomainError):
            ms.pushforward(mu, lambda locs, bd: (locs * np.nan, bd))
        with pytest.raises(DomainError):  # a sphere row moved off the sphere
            ms.pushforward(mu, lambda locs, bd: (0.5 * locs, bd))

    def test_mobius_preserves_totals(self):
        mu = ms.atomic_measure([([0.1, 0.2], 1.5), ([0.3, -0.1], -0.5)])
        out = ms.pushforward(mu, geo.mobius_map([0.4, 0.1]))
        assert out.total == mu.total
        assert out.abs_total == mu.abs_total

    def test_fold_moves_atoms_into_halfspace(self):
        h = geo.halfspace([1.0, 0.0], 0.2)
        mu = ms.atomic_measure(
            [([0.5, 0.1], 1.0), ([-0.2, 0.3], 1.0), ([0.7, -0.4], 1.0)]
        )
        out = ms.pushforward(mu, geo.fold_map(h))
        for y in out.locations:
            assert geo.halfspace_contains(h, y, tol=1e-12)


class TestQuantizeDensity:
    def test_total_matches_hyperbolic_volume(self):
        # f = 1 on a centered ball: total -> hyperbolic volume as count grows
        n, rho = 2, 0.6
        region = ms.ball_region([0.0, 0.0], rho)
        mu = ms.quantize_density(lambda y: 1.0, region, n, 4000, seed=7)
        sphere_area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        target, _ = quad(lambda r: (1 - r * r) ** (-n) * r ** (n - 1), 0.0, rho)
        target *= sphere_area
        assert mu.total == pytest.approx(target, rel=0.02)

    def test_count_one(self):
        region = ms.ball_region([0.1, 0.0], 0.2)
        mu = ms.quantize_density(lambda y: 1.0, region, 2, 1, seed=3)
        assert len(mu) == 1

    def test_quantization_not_in_geodesic(self):
        region = ms.ball_region([0.0, 0.0], 0.5)
        mu = ms.quantize_density(lambda y: 1.0, region, 2, 25, seed=1)
        assert ms.validate(mu).geodesic_support is ms.GeodesicSupport.NOT_IN_GEODESIC

    def test_deterministic_for_seed(self):
        region = ms.ball_region([0.1, -0.1], 0.3)
        a = ms.quantize_density(lambda y: float(y[0] ** 2 + 1), region, 2, 50, seed=11)
        b = ms.quantize_density(lambda y: float(y[0] ** 2 + 1), region, 2, 50, seed=11)
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_region_touching_boundary_rejected(self):
        with pytest.raises(RegionTouchesBoundary):
            ms.ball_region([0.5, 0.0], 0.5)

    def test_negative_density_rejected(self):
        region = ms.ball_region([0.0, 0.0], 0.3)
        with pytest.raises(DomainError):
            ms.quantize_density(lambda y: -1.0, region, 2, 10)
