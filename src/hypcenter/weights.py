"""Radial weight profiles g(r) and their hyperbolic antiderivatives.

A weight carries its monotonicity class, its boundary value g(1) when finite,
and whether the hyperbolic antiderivative G(r) = int_0^r g(t)/(1-t^2) dt
diverges at r = 1 (the existence hypothesis for interior measures).  All
profiles satisfy the standing assumption g(0) = 0, spot-verified on a 10^4
point grid at construction together with the declared monotonicity.

Every G is a closed form in consistent (r, s = arctanh r) pairs, accurate up
to the sphere; ``log_damped`` and ``table`` go through partial fractions of
r/(1-r^2) (_log_damped_G, _table_pieces).  So is dg/ds = g'(r)(1 - r^2), the
arclength slope the energy's Hessian needs, finite up to the sphere.
Adaptive quadrature lives only in the oracle, which checks these forms
against it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import exp1

from .errors import (
    DomainError,
    InvalidWeight,
    NotBoundaryCompatible,
    UndefinedAtOne,
)

_CHECK_GRID = 10_000

# log_damped: both Gauss-Legendre rules integrate functions analytic in the
# strip |Im| < pi/2, tanh(u)/L(u) on [0, s <= 1] and 1/(e^{e^v} - 1) on
# [log L(1), log 42] (the rest of the tail is 1.3e-20); their errors, checked
# at 40 digits, are below 2e-28 and 2e-20.
_LN2 = math.log(2.0)
_E1_LN2_SUM = math.fsum(exp1(np.arange(1, 64) * _LN2).tolist())
_TAIL_VMAX = math.log(42.0)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule by Newton on P_n; numpy's eigensolver costs 0.6 MB."""
    leg, p_n = np.polynomial.legendre, np.eye(n + 1)[n]
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        x = x - leg.legval(x, p_n) / leg.legval(x, leg.legder(p_n))
    return x, 2.0 / ((1.0 - x * x) * leg.legval(x, leg.legder(p_n)) ** 2)


_GL16 = _gauss_legendre(16)
_GL24 = _gauss_legendre(24)


def _rule_sums(values: np.ndarray, rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-row sums of node values against a rule's weights, as stacked one-row
    dots: a gemv sums rows in blocks chosen for the whole array, so a row's
    bits would depend on the block it sits in."""
    return (values[:, None, :] @ rule[1][:, None])[:, 0, 0]


class Monotonicity(Enum):
    STRICTLY_INCREASING = "strictly_increasing"
    INCREASING = "increasing"
    NONE = "none"


@dataclass(frozen=True, eq=False)
class RadialWeight:
    """A radial profile g with monotonicity metadata and scaling.

    ``g1`` is the effective value at r = 1 (scale included) or None when the
    profile has no finite boundary value.  ``positive_interior`` records the
    grid-verified claim g(r) > 0 for 0 < r < 1, which the uniqueness
    hypotheses condition on.  The factory of each kind supplies the unscaled
    profile ``g_unscaled(r, s)``, antiderivative ``G_unscaled(r, s, 1 - r^2)``
    and arclength slope ``dg_unscaled(r, s, 1 - r^2)`` in consistent
    (r, s = arctanh r) pairs; at a kink the slope is one-sided, from the branch
    that G takes there.
    """

    kind: str
    params: Mapping[str, object]
    monotonicity: Monotonicity
    g1: float | None
    divergent_G: bool
    scale: float = 1.0
    positive_interior: bool = False
    g_unscaled: Callable = field(kw_only=True, repr=False)
    G_unscaled: Callable = field(kw_only=True, repr=False)
    dg_unscaled: Callable = field(kw_only=True, repr=False)

    def describe(self) -> dict:
        """JSON-compatible description (round-trips through weight_from_config)."""
        params = {
            k: [list(row) for row in v] if k == "pieces" else
            (list(v) if isinstance(v, tuple) else v)
            for k, v in self.params.items()
        }
        out: dict = {"kind": self.kind, "params": params}
        if self.scale != 1.0:
            out["scale"] = self.scale
        return out


def _pieces_tuple(pieces) -> tuple[tuple[float, float, float], ...]:
    out = []
    prev = -math.inf
    for s0, slope, intercept in pieces:
        if s0 < 0 or s0 <= prev:
            raise InvalidWeight("piece breakpoints must be increasing and >= 0")
        prev = s0
        out.append((float(s0), float(slope), float(intercept)))
    if not out or out[0][0] != 0.0:
        raise InvalidWeight("first piece must start at s = 0")
    return tuple(out)


def _gather(rows: np.ndarray, x) -> np.ndarray:
    """Columns of ``rows`` for the piece holding x: the last starting <= x."""
    i = np.clip(np.searchsorted(rows[0], x, side="right") - 1, 0, rows.shape[1] - 1)
    return rows[:, i]


def eval_g_rs(w: RadialWeight, r, s):
    """Scaled g given consistent (r, arctanh r) pairs; the precision path."""
    return w.scale * w.g_unscaled(
        np.asarray(r, dtype=float), np.asarray(s, dtype=float)
    )


def eval_g(w: RadialWeight, r):
    """g(r) for scalar or array r in [0, 1]; r = 1 needs a finite g(1)."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("radius outside [0, 1]")
    if np.any(arr == 1.0) and w.g1 is None:
        raise UndefinedAtOne(f"profile {w.kind!r} has no finite value at r = 1")
    with np.errstate(divide="ignore"):
        s = np.arctanh(np.minimum(arr, 1.0 - 1e-17))
    s = np.where(arr == 1.0, np.inf, s)
    out = eval_g_rs(w, arr, s)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def _log_L(u):
    """log(2/(1 - tanh u)), without cancellation near the sphere."""
    return 2.0 * u + np.log1p(np.exp(-2.0 * u))


def _log_damped_G(s):
    """Splitting r/(1-r^2) = (1/(1-r) - 1/(1+r))/2, the first half integrates
    to (1/2) log(L/ln 2); the second, after u = L, to (1/2) of
    int_{ln 2}^L du/(u(e^u - 1)) = sum_k E_1(k ln 2) - int_L^inf, whose tail
    is taken in v = log u.  For s <= 1, where the halves cancel, G is the
    arclength integral of g(tanh u) = tanh(u)/L(u) itself."""
    out = np.empty(np.shape(s))
    near = s <= 1.0
    u = np.multiply.outer(0.5 * s[near], 1.0 + _GL16[0])
    out[near] = 0.5 * s[near] * _rule_sums(np.tanh(u) / _log_L(u), _GL16)
    L = _log_L(s[~near])
    lo = np.minimum(np.log(L), _TAIL_VMAX)
    v = lo[:, None] + np.multiply.outer(0.5 * (_TAIL_VMAX - lo), 1.0 + _GL24[0])
    tail = 0.5 * (_TAIL_VMAX - lo) * _rule_sums(1.0 / np.expm1(np.exp(v)), _GL24)
    out[~near] = 0.5 * (np.log(L / _LN2) - _E1_LN2_SUM + tail)
    return out


def _table_pieces(interp: PchipInterpolator) -> np.ndarray:
    """Per-piece rows (knot r0, arctanh r0, G(r0), alpha, beta, p(1), b): with
    x = t - r0 the cubic p divides as (alpha + beta x)(1 - t^2) + a + b t, so
    G(r) - G(r0) = x (alpha + beta x/2) + p(1) (s - s0) - b log1p(x/(1 + r0))."""
    r0, s0 = interp.x[:-1], np.arctanh(interp.x[:-1])
    c3, c2, c1, c0 = interp.c
    alpha, beta = 2.0 * c3 * r0 - c2, -c3
    p1, pm1 = (c0 + d * (c1 + d * (c2 + d * c3)) for d in (1.0 - r0, -1.0 - r0))
    b = 0.5 * (p1 - pm1)
    rows = np.stack([r0, s0, np.zeros_like(r0), alpha, beta, p1, b])
    # G at the interior knots: each full piece but the last, which may end at 1
    rows[2, 1:] = np.cumsum(_table_rise(rows[:, :-1], interp.x[1:-1], s0[1:]))
    return rows


def _table_rise(rows, r, s):
    """G(r) - G(knot) on the pieces ``rows``; s - s0 from the arclengths only
    where r is far from the knot, so it never cancels."""
    r0, s0, _, alpha, beta, p1, b = rows
    x = r - r0
    arg = x / (1.0 - r * r0)
    ds = np.where(arg <= 0.5, np.arctanh(np.minimum(arg, 0.5)), s - s0)
    return x * (alpha + 0.5 * beta * x) + p1 * ds - b * np.log1p(x / (1.0 + r0))


def _table_cover(rmax: float, r) -> float:
    if np.any(np.asarray(r) > rmax + 1e-15):
        raise DomainError(f"table profile only covers r <= {rmax}")
    return rmax


def eval_G_rs(w: RadialWeight, r, s, one_minus_r2=None):
    """Scaled G given consistent (r, s) pairs; the precision path.
    ``one_minus_r2`` may carry accurate 1 - r^2 values; a divergent G is inf at 1."""
    r = np.asarray(r, dtype=float)
    if one_minus_r2 is None:
        one_minus_r2 = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore"):
        return w.scale * w.G_unscaled(r, np.asarray(s, dtype=float), one_minus_r2)


def eval_dg_rs(w: RadialWeight, r, s, one_minus_r2):
    """Scaled dg/ds = g'(r)(1 - r^2) given consistent (r, s, 1 - r^2) rows;
    inf where it diverges (arctanh_power, p < 2, at s = 0)."""
    with np.errstate(divide="ignore"):
        return w.scale * w.dg_unscaled(
            np.asarray(r, dtype=float), np.asarray(s, dtype=float), one_minus_r2
        )


def eval_G(w: RadialWeight, r):
    """Weighted hyperbolic antiderivative G(r) for 0 <= r < 1; G(0) = 0."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError("radius outside [0, 1)")
    s = np.arctanh(arr)
    out = eval_G_rs(w, arr, s)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def normalized_for_boundary(w: RadialWeight) -> RadialWeight:
    """Rescale so the boundary value becomes 1; the zero set of the induced
    field is unchanged (positive scaling)."""
    if w.g1 is None or w.g1 <= 0.0:
        raise NotBoundaryCompatible(
            f"profile {w.kind!r} has g(1) = {w.g1!r}; cannot normalize"
        )
    if w.g1 == 1.0:
        return w
    return dataclasses.replace(w, scale=w.scale / w.g1, g1=1.0)


def _spot_check(w: RadialWeight, upper: float = 1.0) -> RadialWeight:
    """Verify g(0) = 0, the declared monotonicity, and interior positivity on
    [0, upper], the radii the profile covers."""
    rs = np.linspace(0.0, upper, _CHECK_GRID, endpoint=upper < 1.0)
    vals = eval_g(w, rs)
    if abs(float(vals[0])) > 1e-300:
        raise InvalidWeight(f"profile {w.kind!r} violates g(0) = 0")
    diffs = np.diff(vals)
    if w.monotonicity is Monotonicity.STRICTLY_INCREASING and not np.all(diffs > 0.0):
        raise InvalidWeight(f"profile {w.kind!r} is not strictly increasing")
    if w.monotonicity is Monotonicity.INCREASING and not np.all(diffs >= -1e-15):
        raise InvalidWeight(f"profile {w.kind!r} is not increasing")
    if w.g1 is not None and w.g1 > 0.0 and not w.divergent_G:
        raise InvalidWeight("g(1) > 0 forces a divergent antiderivative")
    if w.monotonicity is Monotonicity.STRICTLY_INCREASING and not w.divergent_G:
        raise InvalidWeight("strictly increasing profiles diverge; metadata lies")
    positive = bool(np.all(vals[1:] > 0.0))
    return dataclasses.replace(w, positive_interior=positive)


def identity() -> RadialWeight:
    """g(r) = r, the plain center-of-mass weight."""
    return _spot_check(
        RadialWeight(
            "identity", {}, Monotonicity.STRICTLY_INCREASING, 1.0, True,
            g_unscaled=lambda r, s: r,
            G_unscaled=lambda r, s, om: -0.5 * np.log(om),
            dg_unscaled=lambda r, s, om: om,
        )
    )


def arctanh_power(p: float) -> RadialWeight:
    """g(r) = (arctanh r)^(p-1); p = 2 is the quadratic-energy weight.

    Requires p > 1: at p = 1 the profile value at 0 would be 1, violating the
    standing assumption g(0) = 0.
    """
    if not p > 1.0:
        raise InvalidWeight("arctanh_power needs p > 1 so that g(0) = 0")
    p = float(p)
    return _spot_check(
        RadialWeight(
            "arctanh_power",
            {"p": p},
            Monotonicity.STRICTLY_INCREASING,
            None,
            True,
            g_unscaled=lambda r, s: s ** (p - 1.0),
            G_unscaled=lambda r, s, om: s**p / p,
            dg_unscaled=lambda r, s, om: (p - 1.0) * s ** (p - 2.0),  # inf at 0 if p < 2
        )
    )


def min_r_arctanh_inv() -> RadialWeight:
    """g(r) = min(s, 1/s) with s = arctanh r: increases then decays to 0."""
    def g(r, s):
        with np.errstate(divide="ignore", over="ignore"):
            inv = np.where(s > 0.0, 1.0 / np.maximum(s, 5e-324), np.inf)
        return np.minimum(s, inv)

    return _spot_check(
        RadialWeight(
            "min_r_arctanh_inv", {}, Monotonicity.NONE, 0.0, True,
            g_unscaled=g,
            G_unscaled=lambda r, s, om: np.where(
                s <= 1.0, 0.5 * s * s, 0.5 + np.log(np.maximum(s, 5e-324))
            ),
            dg_unscaled=lambda r, s, om: np.where(
                s <= 1.0, 1.0, -1.0 / np.maximum(s, 1.0) ** 2
            ),
        )
    )


def clamped_linear(c: float) -> RadialWeight:
    """g(r) = min(r, c): increasing with a flat plateau from r = c on."""
    if not 0.0 < c <= 1.0:
        raise InvalidWeight("plateau level c must lie in (0, 1]")
    c = float(c)

    def G(r, s, om):
        below = -0.5 * np.log(om)
        if c == 1.0:  # the plateau starts on the sphere: identity's G
            return below
        g_c = -0.5 * math.log1p(-c * c)
        return np.where(r <= c, below, g_c + c * (s - math.atanh(c)))

    return _spot_check(
        RadialWeight(
            "clamped_linear",
            {"c": c},
            Monotonicity.INCREASING,
            c,
            True,
            g_unscaled=lambda r, s: np.minimum(r, c),
            G_unscaled=G,
            dg_unscaled=lambda r, s, om: np.where(r <= c, om, 0.0),
        )
    )


def log_damped() -> RadialWeight:
    """g(r) = r / log(2/(1-r)): vanishes at both ends, divergent G regardless.

    The slow divergence makes near-boundary solves ill-conditioned; observed
    in tests, not asserted.
    """
    def g(r, s):
        with np.errstate(divide="ignore", over="ignore"):
            den = np.log(2.0 / np.maximum(1.0 - r, 5e-324))
        return np.where(r >= 1.0, 0.0, r / den)

    def dg(r, s, om):  # (1 - r^2)/L - r(1 + r)/L^2
        L = _log_L(s)
        return (om - r * (1.0 + r) / L) / L

    return _spot_check(
        RadialWeight(
            "log_damped", {}, Monotonicity.NONE, 0.0, True,
            g_unscaled=g, G_unscaled=lambda r, s, om: _log_damped_G(s),
            dg_unscaled=dg,
        )
    )


def clamped_arctanh(pieces: Sequence[Sequence[float]]) -> RadialWeight:
    """Piecewise-linear profile in the arclength variable.

    ``pieces`` lists (s_start, slope, intercept) rows; each applies from its
    start to the next.  A constant final piece gives a finite boundary value.
    The rows must form a continuous increasing function with value 0 at 0.
    """
    pcs = _pieces_tuple(pieces)
    if pcs[0][2] != 0.0:
        raise InvalidWeight("profile must vanish at s = 0")
    for (s0, m0, b0), (s1, m1, b1) in zip(pcs, pcs[1:]):
        if abs((m0 * s1 + b0) - (m1 * s1 + b1)) > 1e-12:
            raise InvalidWeight("pieces must join continuously")
        if m0 < 0.0 or m1 < 0.0:
            raise InvalidWeight("pieces must be nondecreasing")
    # cumulative integral values at the breakpoints
    cum = [0.0]
    for (s0, m, b), (s1, _, _) in zip(pcs, pcs[1:]):
        cum.append(cum[-1] + 0.5 * m * (s1 - s0) * (s1 + s0) + b * (s1 - s0))
    rows = np.vstack([np.array(pcs).T, cum])
    last_slope = pcs[-1][1]
    g1 = pcs[-1][2] if last_slope == 0.0 else None
    strict = all(m > 0.0 for _, m, _ in pcs)

    def g(r, s):
        _, m, b, _ = _gather(rows, s)
        # avoid 0 * inf at r = 1 on a constant final piece
        with np.errstate(invalid="ignore"):
            return np.where(m != 0.0, m * s + b, b)

    def G(r, s, om):
        s0, m, b, cum = _gather(rows, s)
        return cum + 0.5 * m * (s - s0) * (s + s0) + b * (s - s0)

    return _spot_check(
        RadialWeight(
            "clamped_arctanh",
            {"pieces": pcs},
            Monotonicity.STRICTLY_INCREASING if strict else Monotonicity.INCREASING,
            g1,
            True,
            g_unscaled=g,
            G_unscaled=G,
            dg_unscaled=lambda r, s, om: _gather(rows, s)[1],
        )
    )


def table(
    r: Sequence[float],
    g: Sequence[float],
    monotonicity: Monotonicity = Monotonicity.NONE,
    divergent_G: bool | None = None,
) -> RadialWeight:
    """Sampled profile with monotone (PCHIP) interpolation.

    Monotone interpolation preserves the declared monotonicity by
    construction.  Whether G diverges cannot be inferred from finitely many
    samples, so the caller declares it (default: g(1) > 0 when covered,
    else False).
    """
    rs = np.asarray(r, dtype=float)
    gs = np.asarray(g, dtype=float)
    if rs.ndim != 1 or rs.shape != gs.shape or rs.shape[0] < 2:
        raise InvalidWeight("table needs matching 1-d r and g samples")
    if rs[0] != 0.0 or gs[0] != 0.0:
        raise InvalidWeight("table must start at (0, 0)")
    if np.any(np.diff(rs) <= 0.0) or rs[-1] > 1.0:
        raise InvalidWeight("table radii must increase within [0, 1]")
    interp = PchipInterpolator(rs, gs)
    pieces = _table_pieces(interp)
    rmax = float(rs[-1])
    g1 = float(gs[-1]) if rs[-1] == 1.0 else None
    if divergent_G is None:
        divergent_G = bool(g1 is not None and g1 > 0.0)

    def G(r, s, om):
        _table_cover(rmax, r)
        rows = _gather(pieces, r)
        return rows[2] + _table_rise(rows, r, s)

    def dg(r, s, om):
        # p'(t) = beta(1 - t^2) - 2t(alpha + beta x) + b from the division
        _table_cover(rmax, r)
        r0, _, _, alpha, beta, _, b = _gather(pieces, r)
        return om * (beta * om - 2.0 * r * (alpha + beta * (r - r0)) + b)

    return _spot_check(
        RadialWeight(
            "table",
            {"r": tuple(map(float, rs)), "g": tuple(map(float, gs))},
            monotonicity,
            g1,
            divergent_G,
            g_unscaled=lambda r, s: interp(np.minimum(r, _table_cover(rmax, r))),
            G_unscaled=G,
            dg_unscaled=dg,
        ),
        upper=rmax,
    )


_FACTORIES = {
    "identity": identity,
    "arctanh_power": arctanh_power,
    "min_r_arctanh_inv": min_r_arctanh_inv,
    "clamped_linear": clamped_linear,
    "log_damped": log_damped,
    "clamped_arctanh": clamped_arctanh,
    "table": table,
}


def weight_from_config(config: Mapping) -> RadialWeight:
    """Build a weight from its JSON description {"kind": ..., "params": {...}}."""
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _FACTORIES:
        raise InvalidWeight(f"unknown weight kind {kind!r}")
    # the factories take the JSON values unchecked: wrong types and unknown
    # names surface as TypeError or ValueError
    try:
        params = dict(config.get("params", {}))
        if kind == "table" and "monotonicity" in params:
            params["monotonicity"] = Monotonicity(params["monotonicity"])
        w = _FACTORIES[kind](**params)
        scale = float(config.get("scale", 1.0))
    except (TypeError, ValueError) as exc:
        raise InvalidWeight(f"malformed {kind!r} weight: {exc}") from exc
    if not 0.0 < scale < math.inf:
        raise InvalidWeight("scale must be positive and finite")
    if scale != 1.0:
        w = dataclasses.replace(
            w, scale=scale, g1=None if w.g1 is None else w.g1 * scale
        )
    return w
