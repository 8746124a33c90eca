import ast
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypcenter import weights as wt
from hypcenter.errors import (
    DomainError,
    InvalidWeight,
    NotBoundaryCompatible,
    UndefinedAtOne,
)

TANH = math.tanh


def staircase_weight():
    # continuous increasing profile, linear in arclength: s, then 2s-1, then 3
    return wt.clamped_arctanh([(0.0, 1.0, 0.0), (1.0, 2.0, -1.0), (2.0, 0.0, 3.0)])


ALL_WEIGHTS = {
    "identity": wt.identity(),
    "arctanh_power_2": wt.arctanh_power(2.0),
    "arctanh_power_3": wt.arctanh_power(3.0),
    "min_r_arctanh_inv": wt.min_r_arctanh_inv(),
    "clamped_linear": wt.clamped_linear(0.5),
    "staircase": staircase_weight(),
    "log_damped": wt.log_damped(),
    "table": wt.table(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.0, 0.2, 0.55, 0.8, 1.0],
        monotonicity=wt.Monotonicity.STRICTLY_INCREASING,
    ),
}


class TestEvalG:
    def test_identity(self):
        assert wt.eval_g(wt.identity(), 0.7) == 0.7

    def test_dip_weight_at_tanh3(self):
        # min(s, 1/s) evaluated at s = 3
        got = wt.eval_g(wt.min_r_arctanh_inv(), TANH(3.0))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_staircase_plateau(self):
        got = wt.eval_g(staircase_weight(), TANH(2.0))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            wt.eval_g(wt.identity(), -0.1)
        with pytest.raises(DomainError):
            wt.eval_g(wt.identity(), 1.5)

    def test_undefined_at_one(self):
        with pytest.raises(UndefinedAtOne):
            wt.eval_g(wt.arctanh_power(2.0), 1.0)

    def test_finite_boundary_values(self):
        assert wt.eval_g(wt.identity(), 1.0) == 1.0
        assert wt.eval_g(wt.clamped_linear(0.5), 1.0) == 0.5
        assert wt.eval_g(staircase_weight(), 1.0) == 3.0
        assert wt.eval_g(wt.min_r_arctanh_inv(), 1.0) == 0.0
        assert wt.eval_g(wt.log_damped(), 1.0) == 0.0


class TestEvalBigG:
    def test_zero_at_zero(self):
        for w in ALL_WEIGHTS.values():
            assert wt.eval_G(w, 0.0) == 0.0

    def test_identity_closed_form(self):
        r = math.sqrt(1.0 - math.exp(-2.0))
        assert wt.eval_G(wt.identity(), r) == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_arclength(self):
        # G(tanh s) = s^2/2 for the quadratic-energy weight
        assert wt.eval_G(wt.arctanh_power(2.0), TANH(2.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            wt.eval_G(wt.identity(), 1.0)

    def test_divergent_on_the_sphere_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wt.eval_G_rs(wt.identity(), 1.0, math.inf, 0.0) == math.inf

    @pytest.mark.parametrize("name", sorted(ALL_WEIGHTS))
    def test_derivative_matches_g(self, name):
        # centered difference of G matches g(r)/(1-r^2)
        w = ALL_WEIGHTS[name]
        h, rtol = 1e-6, 1e-6
        for r in np.linspace(0.01, 0.95, 12):
            fd = (wt.eval_G(w, r + h) - wt.eval_G(w, r - h)) / (2.0 * h)
            expected = wt.eval_g(w, r) / ((1.0 - r) * (1.0 + r))
            if expected == 0.0:
                assert abs(fd) < 1e-9
            else:
                assert abs(fd - expected) / abs(expected) < rtol

    @pytest.mark.parametrize(
        "name",
        [
            n
            for n, w in ALL_WEIGHTS.items()
            if w.monotonicity is not wt.Monotonicity.NONE
        ],
    )
    def test_arclength_convexity(self, name):
        # s -> G(tanh s) is convex for increasing profiles, strictly so for
        # strictly increasing ones
        w = ALL_WEIGHTS[name]
        h = 1e-3
        for s in np.linspace(0.01, 3.0, 40):
            # consistent (r, s) pairs: the tanh/atanh round trip would inject
            # cosh^2(s) * ulp of parameter noise, swamping the flat segments
            vals = [
                float(wt.eval_G_rs(w, TANH(s + k * h), s + k * h))
                for k in (-1, 0, 1)
            ]
            second = (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
            if w.monotonicity is wt.Monotonicity.STRICTLY_INCREASING:
                assert second > 1e-8
            else:
                assert second >= -1e-8


# 30-digit references for G, from mpmath at 40 digits:
# python -c "import mpmath as mp; mp.mp.dps=40; f=lambda u: mp.tanh(u)/(2*u+mp.log1p(mp.exp(-2*u))); print([mp.nstr(mp.quad(f,[0,mp.mpf(s)]),30) for s in (1e-8,0.1,1.0,3.0,9.0,16.0,30.0)])"
LOG_DAMPED_G = {
    1e-8: 7.21347513506585167542757279623e-17,
    0.1: 0.00655547875632550109308136018443,
    1.0: 0.296903606109837100546261360197,
    3.0: 0.793772854891551310164779020981,
    9.0: 1.34269296823754167884544968306,
    16.0: 1.63037503986446349276721185992,
    30.0: 1.9446793695756501717136891971,
}
# python -c "import mpmath as mp; from scipy.interpolate import PchipInterpolator as P; mp.mp.dps=40; k=[0,.25,.5,.75,1]; p=P(k,[0,.2,.45,.7,1]); g=lambda i: lambda t: sum(mp.mpf(float(c))*(t-k[i])**(3-j) for j,c in enumerate(p.c[:,i]))/(1-t*t); G=lambda r: sum(mp.quad(g(i),[k[i],min(k[i+1],mp.mpf(r))]) for i in range(4) if k[i]<r); print([mp.nstr(G(r),30) for r in (1e-3,.25,.26,.5,.75,.9,1-1e-6)])"
TABLE_G = {
    1e-3: 3.50148278792679796355735931501e-7,
    0.25: 0.0248129746894748492858861722455,
    0.26: 0.0269999854601203327882125000592,
    0.5: 0.121027568801997035960953473885,
    0.75: 0.368509479542418261243226152411,
    0.9: 0.766521513672863487115714048642,
    1.0 - 1e-6: 6.4829157778318163897071673464,
}


def reference_table():
    return wt.table(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.0, 0.2, 0.45, 0.7, 1.0],
        monotonicity=wt.Monotonicity.STRICTLY_INCREASING,
        divergent_G=True,
    )


def agrees(got, ref):
    # 1e-13 relative, or 1e-17 absolute where G < 1e-4
    return abs(got - ref) <= (1e-17 if ref < 1e-4 else 1e-13 * ref)


class TestClosedFormG:
    @pytest.mark.parametrize("s", sorted(LOG_DAMPED_G))
    def test_log_damped_reference(self, s):
        got = float(wt.eval_G_rs(wt.log_damped(), TANH(s), s))
        assert agrees(got, LOG_DAMPED_G[s])

    @pytest.mark.parametrize("r", sorted(TABLE_G))
    def test_table_reference(self, r):
        assert agrees(wt.eval_G(reference_table(), r), TABLE_G[r])

    @pytest.mark.parametrize("knot", [0.25, 0.5, 0.75])
    def test_table_continuous_across_knots(self, knot):
        w = reference_table()
        for r in (np.nextafter(knot, 0.0), knot, np.nextafter(knot, 1.0)):
            assert agrees(wt.eval_G(w, r), TABLE_G[knot])

    def test_table_scale_and_partial_cover(self):
        # a table that stops short of the sphere, scaled: G scales with it
        # and stays defined only up to the last knot
        base = wt.table([0.0, 0.3, 0.6], [0.0, 0.4, 0.5])
        scaled = wt.weight_from_config({**base.describe(), "scale": 3.0})
        expected = 3.0 * wt.eval_G(base, 0.45)
        assert wt.eval_G(scaled, 0.45) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(DomainError):
            wt.eval_G(base, 0.7)

    def test_e1_sum_literal(self):
        # the log_damped tail constant, sum of E1(k ln 2) over k = 1..63
        from scipy.special import exp1

        terms = exp1(np.arange(1, 64) * math.log(2.0)).tolist()
        assert wt._E1_LN2_SUM == math.fsum(terms)

    def test_no_quadrature_in_weights(self):
        # G is closed form on the hot path; quadrature belongs to the oracle
        source = inspect.getsource(wt)
        assert "scipy.integrate" not in source
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [a.name for a in node.names]
                assert not any("integrate" in m or m == "quad" for m in names)
            if isinstance(node, ast.Name):
                assert node.id != "quad"
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("quad", "integrate")


# arclengths clear of every kink: staircase s = 1, 2; min_r s = 1; the
# clamped_linear plateau s = atanh 0.5; the table knots atanh 0.25, 0.5, 0.75
SLOPE_ARCS = (0.05, 0.3, 0.7, 1.2, 1.6, 2.4, 3.5, 6.0)


class TestArclengthSlope:
    @pytest.mark.parametrize(
        "w",
        [*ALL_WEIGHTS.values(), wt.arctanh_power(1.5), reference_table()],
        ids=[*ALL_WEIGHTS, "arctanh_power_1.5", "reference_table"],
    )
    def test_matches_central_differences_of_g(self, w):
        h = 1e-6
        s = np.array(SLOPE_ARCS)
        g = lambda t: wt.eval_g_rs(w, np.tanh(t), t)
        fd = (g(s + h) - g(s - h)) / (2.0 * h)
        slope = wt.eval_dg_rs(w, np.tanh(s), s, 1.0 / np.cosh(s) ** 2)
        np.testing.assert_allclose(slope, fd, rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("name", sorted(ALL_WEIGHTS))
    def test_origin_is_limit_of_g_over_r(self, name):
        # the Hessian's tangential term g/r at r = 0
        w = ALL_WEIGHTS[name]
        r = 1e-9
        limit = float(wt.eval_g_rs(w, r, math.atanh(r))) / r
        slope = float(wt.eval_dg_rs(w, 0.0, 0.0, 1.0))
        assert slope == pytest.approx(limit, rel=1e-8, abs=1e-8)

    def test_arctanh_power_below_two_is_infinite_at_origin(self):
        # the documented infinity comes back without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wt.eval_dg_rs(wt.arctanh_power(1.5), 0.0, 0.0, 1.0) == math.inf

    @pytest.mark.parametrize("name", sorted(n for n, w in ALL_WEIGHTS.items() if w.g1 is not None))
    def test_vanishes_on_the_sphere(self, name):
        # a finite g(1) is reached with zero arclength slope
        slope = wt.eval_dg_rs(ALL_WEIGHTS[name], 1.0, math.inf, 0.0)
        assert float(slope) == 0.0

    def test_scales_with_the_weight(self):
        base = reference_table()
        scaled = wt.weight_from_config({**base.describe(), "scale": 3.0})
        args = (0.6, math.atanh(0.6), 0.64)
        assert wt.eval_dg_rs(scaled, *args) == pytest.approx(
            3.0 * wt.eval_dg_rs(base, *args), rel=1e-15
        )


def test_weights_import_nothing_from_geometry():
    # profiles are functions of (r, s); points belong to geometry
    for node in ast.walk(ast.parse(inspect.getsource(wt))):
        if isinstance(node, ast.ImportFrom):
            assert "geometry" not in (node.module or "")
        if isinstance(node, ast.Import):
            assert not any("geometry" in a.name for a in node.names)


def test_clamped_linear_plateau_at_one_is_identity():
    # c = 1 puts the plateau on the sphere: g and G are identity's inside
    w, ident = wt.clamped_linear(1.0), wt.identity()
    r, s, om = golden_grid(ident)
    assert np.array_equal(wt.eval_g_rs(w, r, s), wt.eval_g_rs(ident, r, s))
    inside = r < 1.0
    assert np.array_equal(
        wt.eval_G_rs(w, r[inside], s[inside], om[inside]),
        wt.eval_G_rs(ident, r[inside], s[inside], om[inside]),
    )
    assert w.g1 == 1.0


class TestNormalization:
    def test_identity_unchanged(self):
        w = wt.identity()
        assert wt.normalized_for_boundary(w) is w

    def test_plateau_scaled_to_one(self):
        w = wt.normalized_for_boundary(wt.clamped_linear(0.5))
        assert w.g1 == 1.0
        assert wt.eval_g(w, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert wt.eval_g(w, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_staircase_scaled(self):
        w = wt.normalized_for_boundary(staircase_weight())
        assert wt.eval_g(w, 1.0) == pytest.approx(1.0, abs=1e-15)
        # breakpoints unchanged: the het kink still sits at s = 1
        assert wt.eval_g(w, TANH(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_set_and_signs_preserved(self):
        base = wt.clamped_linear(0.5)
        scaled = wt.normalized_for_boundary(base)
        rs = np.linspace(0.0, 0.99, 30)
        np.testing.assert_allclose(
            wt.eval_g(scaled, rs), 2.0 * wt.eval_g(base, rs), atol=1e-15
        )

    def test_incompatible_profiles(self):
        with pytest.raises(NotBoundaryCompatible):
            wt.normalized_for_boundary(wt.arctanh_power(2.0))
        with pytest.raises(NotBoundaryCompatible):
            wt.normalized_for_boundary(wt.min_r_arctanh_inv())


class TestConstruction:
    def test_arctanh_power_p1_rejected(self):
        with pytest.raises(InvalidWeight):
            wt.arctanh_power(1.0)

    def test_table_monotonicity_enforced(self):
        with pytest.raises(InvalidWeight):
            wt.table(
                [0.0, 0.5, 1.0],
                [0.0, 0.8, 0.5],
                monotonicity=wt.Monotonicity.INCREASING,
            )

    def test_table_positive_boundary_forces_divergence(self):
        with pytest.raises(InvalidWeight):
            wt.table([0.0, 1.0], [0.0, 1.0], divergent_G=False)

    def test_staircase_must_be_continuous(self):
        with pytest.raises(InvalidWeight):
            wt.clamped_arctanh([(0.0, 1.0, 0.0), (1.0, 2.0, 0.5)])

    def test_metadata_flags(self):
        w = wt.min_r_arctanh_inv()
        assert w.divergent_G
        assert w.g1 == 0.0
        assert w.positive_interior
        assert ALL_WEIGHTS["identity"].monotonicity is wt.Monotonicity.STRICTLY_INCREASING

    def test_divergence_consistency(self):
        for w in ALL_WEIGHTS.values():
            if w.g1 is not None and w.g1 > 0:
                assert w.divergent_G


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(ALL_WEIGHTS))
    def test_round_trip(self, name):
        w = ALL_WEIGHTS[name]
        config = w.describe()
        if name == "table":
            config["params"]["monotonicity"] = "strictly_increasing"
        back = wt.weight_from_config(config)
        for r in (0.0, 0.3, 0.77):
            assert wt.eval_g(back, r) == pytest.approx(wt.eval_g(w, r), abs=1e-15)

    def test_scale_round_trip(self):
        w = wt.weight_from_config({"kind": "identity", "params": {}, "scale": 5.0})
        assert wt.eval_g(w, 0.5) == 2.5
        assert w.g1 == 5.0


WEIGHT_GOLDEN = Path(__file__).parent / "golden" / "weight_values.json"


def golden_weights():
    weights = dict(ALL_WEIGHTS)
    weights["reference_table"] = reference_table()
    # non-dyadic parameters, so that every operation in the formulas rounds
    weights["clamped_linear_0.8"] = wt.clamped_linear(0.8)
    weights["clamped_arctanh_uneven"] = wt.clamped_arctanh(
        [(0.0, 0.7, 0.0), (0.9, 1.3, -0.54), (1.7, 0.0, 1.67)]
    )
    weights["table_scaled"] = wt.weight_from_config(
        {**wt.table([0.0, 0.3, 0.6], [0.0, 0.4, 0.5]).describe(), "scale": 3.0}
    )
    return weights


def golden_grid(w):
    """Consistent (r, arctanh r, 1 - r^2) triples: 0, 1e-8, the table knots,
    clamped_linear's c, the staircase breakpoints tanh 1 and tanh 2, points
    inside every piece, 1 - 1e-12 and, where g(1) is finite, the sphere; a
    partial table stops at its cover."""
    radii = [0.0, 1e-8, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 0.99, 0.999,
             1.0 - 1e-12]
    r = np.array(radii)
    triples = np.stack([r, np.arctanh(r), (1.0 - r) * (1.0 + r)], axis=1)
    arcs = np.array([0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0])
    rows = np.stack([np.tanh(arcs), arcs, 1.0 / np.cosh(arcs) ** 2], axis=1)
    triples = np.concatenate([triples, rows])
    if w.g1 is not None:
        triples = np.concatenate([triples, [[1.0, np.inf, 0.0]]])
    if w.kind == "table":
        triples = triples[triples[:, 0] <= w.params["r"][-1]]
    return triples.T


def weight_record(w):
    r, s, om = golden_grid(w)
    with np.errstate(all="ignore"):
        values = {
            "g": wt.eval_g_rs(w, r, s),
            "G": wt.eval_G_rs(w, r, s),
            "G_om": wt.eval_G_rs(w, r, s, om),
        }
    return {k: [float.hex(float(x)) for x in v] for k, v in values.items()}


@pytest.mark.parametrize("name", sorted(golden_weights()))
def test_weight_values_bit_identical(name):
    # recorded before each kind's g and G moved into its factory
    expected = json.loads(WEIGHT_GOLDEN.read_text())[name]
    assert weight_record(golden_weights()[name]) == expected


@pytest.mark.parametrize("name", sorted(golden_weights()))
def test_rows_match_one_row_calls(name):
    # the energy evaluates many points' rows in one block: a row's bits must
    # not depend on that block (log_damped's quadrature sums once did)
    w = golden_weights()[name]
    arcs = np.random.default_rng(3).uniform(0.0, 6.0, size=500)
    r = np.tanh(arcs)
    if w.kind == "table":
        keep = r <= w.params["r"][-1]
        arcs, r = arcs[keep], r[keep]
    grid = np.concatenate([golden_grid(w), [r, arcs, 1.0 / np.cosh(arcs) ** 2]], axis=1)
    r, s, om = grid
    evals = {
        "g": lambda i: wt.eval_g_rs(w, r[i], s[i]),
        "G": lambda i: wt.eval_G_rs(w, r[i], s[i], om[i]),
        "dg": lambda i: wt.eval_dg_rs(w, r[i], s[i], om[i]),
    }
    with np.errstate(all="ignore"):
        for evaluate in evals.values():
            block = evaluate(slice(None))
            for i in range(len(r)):
                one = evaluate(slice(i, i + 1))
                assert block[i:i + 1].tobytes() == one.tobytes()
