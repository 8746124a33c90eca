"""Poincare ball primitives.

Mobius translations T_x of the unit ball, hyperbolic distances and geodesics,
hyperbolic halfspaces with their reflections and fold maps.  Everything here is
a pure function of immutable inputs; no shared mutable state.

Near the unit sphere the naive route ``atanh(|T_x(y)|)`` loses up to seven
digits to cancellation, so the arclength helpers work from the factorization
``1 - |T_x(y)|^2 = (1-|x|^2)(1-|y|^2) / den`` with every factor computed in a
cancellation-free form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    DomainError,
    PoleSingularity,
)

# point() classifies raw coordinates within this of the unit sphere Boundary
# and renormalizes them; interior_point() and stored measure rows never snap.
BOUNDARY_SNAP_TOL = 1e-9
# Unit-vector validation tolerance for halfspace normals and geodesic directions.
UNIT_TOL = 1e-12
# Mobius denominators below this raise PoleSingularity.  Only approachable for
# y = -x/|x| on the sphere with |x| -> 1, outside the |x| < 1 precondition.
POLE_EPS = 1e-300

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _square_exact(a):
    """a*a as an exact head/tail pair (Dekker's product); elementwise on arrays."""
    p = a * a
    c = _SPLIT * a
    hi = c - (c - a)
    lo = a - hi
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return p, e


def one_minus_sq_norm(v: np.ndarray) -> float:
    """1 - |v|^2 without cancellation, accurate arbitrarily close to the sphere."""
    terms = [1.0]
    for a in v:
        p, e = _square_exact(float(a))
        terms.append(-p)
        terms.append(-e)
    return math.fsum(terms)


def one_minus_sq_norms(locations: np.ndarray) -> np.ndarray:
    """Row-wise one_minus_sq_norm: the same terms in the same order, fsum per row."""
    p, e = _square_exact(locations)
    pairs = np.stack([-p, -e], axis=2).reshape(p.shape[0], 2 * p.shape[1]).tolist()
    return np.array([math.fsum([1.0, *row]) for row in pairs])


class Locus(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A point of the closed unit ball with interior/boundary classification."""

    coords: np.ndarray
    locus: Locus

    def __post_init__(self) -> None:
        self.coords.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.coords))

    @property
    def is_boundary(self) -> bool:
        return self.locus is Locus.BOUNDARY

    def __repr__(self) -> str:  # pragma: no cover
        return f"BallPoint({self.coords.tolist()}, {self.locus.value})"


PointLike = Union[BallPoint, Sequence[float], np.ndarray]


def _vector(coords: PointLike) -> np.ndarray:
    """A finite 1-d float vector of length >= 1, or DomainError."""
    try:
        v = np.array(coords, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"coordinates must be numbers: {exc}") from exc
    if v.ndim != 1 or v.shape[0] < 1:
        raise DomainError("a point needs a 1-d coordinate vector of length >= 1")
    if not np.all(np.isfinite(v)):
        raise DomainError("coordinates must be finite")
    return v


def point(coords: PointLike) -> BallPoint:
    """Classify coordinates of the closed ball as Interior or Boundary,
    snapping onto the sphere within BOUNDARY_SNAP_TOL.

    Raises DomainError for non-numeric or empty vectors and for points
    outside the closed ball (beyond the snap tolerance).
    """
    if isinstance(coords, BallPoint):
        return coords
    v = _vector(coords)
    nr = float(np.linalg.norm(v))
    if abs(nr - 1.0) <= BOUNDARY_SNAP_TOL:
        return BallPoint(v / nr, Locus.BOUNDARY)
    if nr < 1.0:
        return BallPoint(v, Locus.INTERIOR)
    raise DomainError(f"|coords| = {nr!r} lies outside the closed unit ball")


def _in_open_ball(v: np.ndarray) -> bool:
    return float(v @ v) < 1.0  # the one open-ball test


def interior_point(coords: PointLike) -> BallPoint:
    """A point of the open ball, never snapped: raw coordinates with |x| < 1
    keep their values and an interior BallPoint passes through unchanged.

    Raises DomainError for a sphere BallPoint and for raw |x| >= 1.
    """
    p = (coords if isinstance(coords, BallPoint)
         else BallPoint(_vector(coords), Locus.INTERIOR))
    if p.is_boundary or not _in_open_ball(p.coords):
        raise DomainError("expected an interior point of the unit ball")
    return p


def _interior(coords: np.ndarray) -> BallPoint:
    # Internal constructor for images known to be interior; clamps fp overshoot
    # instead of re-snapping, so extreme-radius interior points keep their locus.
    nr = float(np.linalg.norm(coords))
    if nr >= 1.0:
        coords = coords * ((1.0 - 1e-16) / nr)
    return BallPoint(coords, Locus.INTERIOR)


def _gram_remainder(x: np.ndarray, locations: np.ndarray) -> np.ndarray:
    # |x|^2 |y|^2 - (x.y)^2 per row via the Lagrange identity
    # sum_{i<j} (y_i x_j - y_j x_i)^2: a sum of squares, so the near-parallel
    # cancellation that plagues the naive form never occurs.
    n = x.shape[0]
    out = np.zeros(locations.shape[0])
    for i in range(n - 1):
        for j in range(i + 1, n):
            cross = locations[:, i] * x[j] - locations[:, j] * x[i]
            out += cross * cross
    return out


class MobiusBatch(NamedTuple):
    """Images T_x(y_i) of many points with cancellation-free radial data."""

    images: np.ndarray        # (m, n) translated points
    radii: np.ndarray         # (m,)   |T_x(y_i)|, exactly 1.0 for boundary atoms
    arclengths: np.ndarray    # (m,)   arctanh |T_x(y_i)|, +inf for boundary atoms
    one_minus_r2: np.ndarray  # (m,)   1 - |T_x(y_i)|^2, 0.0 for boundary atoms
    dens: np.ndarray          # (m,)   Mobius denominators (= |x+y|^2 on the sphere)


def mobius_batch(
    x: np.ndarray,
    locations: np.ndarray,
    sq_norms: np.ndarray,
    one_minus_sq: np.ndarray,
    boundary: np.ndarray,
) -> MobiusBatch:
    """Apply T_x to a block of points with precomputed radial metadata.

    ``one_minus_sq`` must hold accurate values of 1 - |y_i|^2 (exact zeros for
    boundary rows).  This is the hot path shared by the energy and field
    evaluations; it never reclassifies loci.
    """
    omx = one_minus_sq_norm(x)
    d = locations @ x
    u = 1.0 + d
    # den = 1 + 2 x.y + |x|^2 |y|^2, assembled as (1 + x.y)^2 plus the
    # Cauchy-Schwarz remainder so no cancellation survives near antipodes
    dens = u * u + _gram_remainder(x, locations)
    if dens.min(initial=math.inf) < POLE_EPS:
        raise PoleSingularity("Mobius denominator underflow")
    images = ((1.0 + 2.0 * d + sq_norms)[:, None] * x[None, :]
              + omx * locations) / dens[:, None]
    one_minus_r2 = omx * one_minus_sq / dens
    one_minus_r2[boundary] = 0.0

    # sqrt(1 - A) cancels for small radii, where the direct norm is accurate;
    # near the sphere the factorized 1 - A carries the precision instead
    near_origin = one_minus_r2 > 0.5
    direct = np.sqrt(np.einsum("ij,ij->i", images, images))
    radii = np.where(near_origin, direct, np.sqrt(np.maximum(1.0 - one_minus_r2, 0.0)))
    radii[boundary] = 1.0

    with np.errstate(divide="ignore"):
        arclengths = np.where(
            near_origin,
            np.arctanh(np.minimum(radii, 1.0 - 1e-17)),
            np.log1p(radii) - 0.5 * np.log(np.maximum(one_minus_r2, 5e-324)),
        )
    arclengths[boundary] = np.inf
    return MobiusBatch(images, radii, arclengths, one_minus_r2, dens)


def _single_batch(x: np.ndarray, y: BallPoint) -> MobiusBatch:
    """mobius_batch at x on the single row y, with y's radial metadata."""
    yy = float(y.coords @ y.coords)
    omy = 0.0 if y.is_boundary else one_minus_sq_norm(y.coords)
    return mobius_batch(
        x,
        y.coords[None, :],
        np.array([yy]),
        np.array([omy]),
        np.array([y.is_boundary]),
    )


def mobius(x: PointLike, y: PointLike) -> BallPoint:
    """Hyperbolic translation T_x(y): the isometry sending 0 to x.

    Preserves the boundary sphere and the locus of y.
    """
    xp = interior_point(x)
    yp = point(y)
    if xp.dim != yp.dim:
        raise DimensionMismatch(f"dim {xp.dim} vs {yp.dim}")
    img = _single_batch(xp.coords, yp).images[0]
    if yp.is_boundary:
        return BallPoint(img / np.linalg.norm(img), Locus.BOUNDARY)
    return _interior(img)


def mobius_inverse(x: PointLike, y: PointLike) -> BallPoint:
    """Inverse translation (T_x)^{-1} = T_{-x}."""
    xp = interior_point(x)
    return mobius(BallPoint(-xp.coords, Locus.INTERIOR), y)


ArrayMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def mobius_map(x: PointLike) -> ArrayMap:
    """The array map (locations, boundary) -> (T_x images, boundary).

    One mobius_batch pass; sphere images are renormalized and interior images
    clamped inside the sphere as in mobius().
    """
    xp = interior_point(x)

    def apply(locations: np.ndarray, boundary: np.ndarray):
        if locations.shape[1] != xp.dim:
            raise DimensionMismatch(f"dim {xp.dim} vs {locations.shape[1]}")
        omy = np.where(boundary, 0.0, one_minus_sq_norms(locations))
        # |y|^2 and |img|^2 by stacked matmuls: the BLAS dot mobius() takes per row
        sq = (locations[:, None, :] @ locations[:, :, None])[:, 0, 0]
        img = mobius_batch(xp.coords, locations, sq, omy, boundary).images
        nr = np.sqrt((img[:, None, :] @ img[:, :, None])[:, 0, 0])
        img[boundary] /= nr[boundary, None]
        over = ~boundary & (nr >= 1.0)
        img[over] *= ((1.0 - 1e-16) / nr[over])[:, None]
        return img, boundary.copy()

    return apply


def hyp_distance(x: PointLike, y: PointLike) -> float:
    """Hyperbolic distance between interior points, arctanh |T_{-x}(y)|."""
    xp = interior_point(x)
    yp = interior_point(y)
    if xp.dim != yp.dim:
        raise DimensionMismatch(f"dim {xp.dim} vs {yp.dim}")
    return float(_single_batch(-xp.coords, yp).arclengths[0])


def inverse_exp(x: PointLike, y: PointLike) -> np.ndarray:
    """Tangent vector at x of length d(x,y) pointing along the geodesic to y.

    Returns the zero vector when x == y (documented convention).
    """
    xp = interior_point(x)
    yp = interior_point(y)
    if xp.dim != yp.dim:
        raise DimensionMismatch(f"dim {xp.dim} vs {yp.dim}")
    if np.array_equal(xp.coords, yp.coords):
        return np.zeros(xp.dim)
    batch = _single_batch(-xp.coords, yp)
    w = batch.images[0]
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        return np.zeros(xp.dim)
    return float(batch.arclengths[0]) * (w / nw)


@dataclass(frozen=True, eq=False)
class Geodesic:
    """Geodesic through ``base`` in the chart t -> T_base(t * dir), |t| < 1."""

    base: BallPoint
    dir: np.ndarray

    def __post_init__(self) -> None:
        self.dir.flags.writeable = False


def geodesic(base: PointLike, direction: Sequence[float]) -> Geodesic:
    """Build a geodesic from an interior base point and a direction vector."""
    b = interior_point(base)
    d = np.array(direction, dtype=float)
    if d.shape != (b.dim,):
        raise DimensionMismatch("direction and base dimensions differ")
    nd = float(np.linalg.norm(d))
    if nd == 0.0:
        raise DegenerateDirection("zero direction vector")
    return Geodesic(b, d / nd)


def geodesic_point(g: Geodesic, t: float) -> BallPoint:
    """Chart point T_base(t * dir); hyperbolic arclength from base is arctanh|t|."""
    if not -1.0 < t < 1.0:
        raise DomainError(f"chart parameter t = {t!r} outside (-1, 1)")
    return mobius(g.base, _interior(t * g.dir))


def geodesic_through(a: PointLike, b: PointLike) -> Geodesic:
    """The geodesic through two distinct points of the closed ball."""
    pa, pb = point(a), point(b)
    if pa.dim != pb.dim:
        raise DimensionMismatch("points live in different dimensions")
    if pa.is_boundary and not pb.is_boundary:
        pa, pb = pb, pa
    if not pa.is_boundary:
        w = mobius_inverse(pa, pb).coords
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            raise DegenerateDirection("coincident points define no geodesic")
        return Geodesic(pa, w / nw)
    # Both endpoints on the sphere: base at the arc's closest point to the origin.
    u, v = pa.coords, pb.coords
    uv = float(u @ v)
    if abs(1.0 + uv) < 1e-14:
        return Geodesic(point(np.zeros(pa.dim)), np.array(v, dtype=float))
    if abs(1.0 - uv) < 1e-14:
        raise DegenerateDirection("coincident boundary points define no geodesic")
    c = (u + v) / (1.0 + uv)           # circle center: u.c = v.c = 1
    nc = float(np.linalg.norm(c))
    rho = math.sqrt(max(nc * nc - 1.0, 0.0))
    base = point(c * ((nc - rho) / nc))
    w = mobius_inverse(base, pb).coords
    return Geodesic(base, w / np.linalg.norm(w))


def off_geodesic_residual(g: Geodesic, z: PointLike) -> float:
    """Norm of the component of T_{-base}(z) transverse to the direction."""
    w = mobius_inverse(g.base, point(z)).coords
    return float(np.linalg.norm(w - (w @ g.dir) * g.dir))


def on_geodesic(g: Geodesic, z: PointLike, tol: float = 1e-10) -> bool:
    """Whether z lies on the geodesic (or its sphere endpoints) within tol."""
    return off_geodesic_residual(g, z) <= tol


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Hyperbolic halfball H(p, t) = T_{pt}({y : y.p <= 0})."""

    p: np.ndarray
    t: float

    def __post_init__(self) -> None:
        self.p.flags.writeable = False


def halfspace(p: Sequence[float], t: float) -> Halfspace:
    """Validated halfspace from a unit normal and translation parameter."""
    pv = np.array(p, dtype=float)
    np_ = float(np.linalg.norm(pv))
    if abs(np_ - 1.0) > UNIT_TOL:
        if np_ == 0.0:
            raise DegenerateDirection("halfspace normal must be nonzero")
        pv = pv / np_
    if not -1.0 < t < 1.0:
        raise DomainError(f"halfspace parameter t = {t!r} outside (-1, 1)")
    return Halfspace(pv, float(t))


def _pull_back(h: Halfspace, y: BallPoint) -> BallPoint:
    """T_{-tp}(y): the halfspace moved back to {y : y.p <= 0}; keeps y's locus."""
    return mobius(BallPoint(-h.t * h.p, Locus.INTERIOR), y)


def _reflect_pulled(h: Halfspace, w: BallPoint) -> BallPoint:
    """Reflect a pulled-back point across {y.p = 0} and translate it back."""
    c = w.coords - 2.0 * float(w.coords @ h.p) * h.p
    c = BallPoint(c, Locus.BOUNDARY) if w.is_boundary else _interior(c)
    return mobius(BallPoint(h.t * h.p, Locus.INTERIOR), c)


def halfspace_contains(h: Halfspace, y: PointLike, tol: float = 0.0) -> bool:
    """Whether y lies in the closed halfball H(p, t) or on its sphere cap."""
    return float(_pull_back(h, point(y)).coords @ h.p) <= tol


def reflect(h: Halfspace, y: PointLike) -> BallPoint:
    """Hyperbolic reflection across the wall of H(p, t), by conjugation.

    An isometry of the closed ball: sphere points stay on the sphere."""
    return _reflect_pulled(h, _pull_back(h, point(y)))


def fold(h: Halfspace, y: PointLike) -> BallPoint:
    """Fold map onto H: identity inside, hyperbolic reflection outside.

    One pull-back per point, shared by the membership test and the
    reflection; sphere points fold onto the sphere."""
    yp = point(y)
    w = _pull_back(h, yp)
    if float(w.coords @ h.p) <= 0.0:
        return yp
    return _reflect_pulled(h, w)


def fold_map(h: Halfspace) -> ArrayMap:
    """The array map (locations, boundary) -> fold images, applied row by row."""

    def apply(locations: np.ndarray, boundary: np.ndarray):
        loci = [Locus.BOUNDARY if b else Locus.INTERIOR for b in boundary.tolist()]
        images = [fold(h, BallPoint(y, lc)).coords for y, lc in zip(locations, loci)]
        return np.array(images).reshape(locations.shape), boundary.copy()

    return apply


def translate_coords(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T_x(w) on raw interior coordinate arrays; minimal-overhead solver path.

    Skips validation and the stabilized denominator: callers guarantee both
    points sit well inside the ball (|w| <= tanh 1 for solver steps), where the
    naive formula is accurate to machine precision.
    """
    d = float(x @ w)
    xx = float(x @ x)
    ww = float(w @ w)
    den = 1.0 + 2.0 * d + xx * ww
    out = ((1.0 + 2.0 * d + ww) * x + (1.0 - xx) * w) / den
    nr = math.sqrt(float(out @ out))
    if nr >= 1.0:
        out = out * ((1.0 - 1e-16) / nr)
    return out
