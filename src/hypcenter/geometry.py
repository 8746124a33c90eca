"""Poincare ball primitives.

Mobius translations T_x of the unit ball, hyperbolic distances and geodesics,
hyperbolic halfspaces with their reflections and fold maps.  Everything here is
a pure function of immutable inputs; no shared mutable state.

One batch-invariant kernel, mobius_batch, evaluates T_x: a row's result never
depends on the block around it, so every single-point function is the one-row
case of the array maps (mobius_map, fold_map), bit for bit.

The kernel uses the sum form of the translation (Ratcliffe, Foundations of
Hyperbolic Manifolds, ch. 4): with s = x + y,

    T_x(y) = (|s|^2 x + (1-|x|^2) s) / den,  den = |s|^2 + (1-|x|^2)(1-|y|^2).

Both terms of den are non-negative, so it never cancels, and s is exact at
y = -x.  Near the unit sphere the naive route ``atanh(|T_x(y)|)`` loses up to
seven digits to cancellation, so the arclength helpers work from
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

_NO_SPHERE = np.zeros(1, dtype=bool)  # the sphere mask of one interior row
_NO_SPHERE.flags.writeable = False

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _square_terms(a):
    """hi^2, 2 hi lo and lo^2: exact doubles summing to a^2, elementwise on
    arrays.  Dekker's split a = hi + lo leaves both halves 26 bits wide."""
    c = _SPLIT * a
    hi = c - (c - a)
    lo = a - hi
    return hi * hi, (2.0 * hi) * lo, lo * lo


def one_minus_sq_norms(locations: np.ndarray) -> np.ndarray:
    """Per-row 1 - |y|^2 without cancellation, accurate arbitrarily close to
    the sphere: fsum of 1 and the negated exact square terms, so correctly
    rounded."""
    terms = np.concatenate(_square_terms(locations), axis=1)
    return np.array([math.fsum([1.0, *row]) for row in (-terms).tolist()])


def one_minus_sq_norm(v: np.ndarray) -> float:
    """one_minus_sq_norms of the single row v, bit for bit: the same exact
    terms, summed on floats to skip the array passes of a one-row block."""
    return math.fsum([1.0, *(-t for a in v.tolist() for t in _square_terms(a))])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products a_i . b (b one vector) or a_i . b_i (b a block),
    as stacked one-row products: each row gets the bits of np.dot on that row
    alone, whatever block it sits in.  A vector a is the one-row case."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


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


def _clamp_inside(rows: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Scale interior rows rounded onto or past the sphere back inside, in
    place; returns the row norms before."""
    nr = np.sqrt(_row_dots(rows, rows))
    over = ~boundary & (nr >= 1.0)
    if over.any():
        rows[over] *= ((1.0 - 1e-16) / nr[over])[:, None]
    return nr


class MobiusBatch(NamedTuple):
    """Images T_x(y_i) of many points with cancellation-free radial data; for
    a block of k bases every per-row field gains a leading axis of length k."""

    images: np.ndarray        # (m, n) translated points
    radii: np.ndarray         # (m,)   |T_x(y_i)|, exactly 1.0 for boundary atoms
    arclengths: np.ndarray    # (m,)   arctanh |T_x(y_i)|, +inf for boundary atoms
    one_minus_r2: np.ndarray  # (m,)   1 - |T_x(y_i)|^2, 0.0 for boundary atoms
    dens: np.ndarray          # (m,)   Mobius denominators (= |x+y|^2 on the sphere)
    omx: np.ndarray | float   # 1 - |x|^2: a float, or a (k, 1) column for a block


def mobius_batch(
    x: np.ndarray,
    locations: np.ndarray,
    one_minus_sq: np.ndarray,
    boundary: np.ndarray,
) -> MobiusBatch:
    """Apply T_x to a block of points in the sum form of the module docstring.

    ``x`` is one base (n,), or a block of k bases (k, n) whose per-row fields
    come with a leading axis of length k.  ``one_minus_sq`` is the rows'
    1 - |y_i|^2, exactly 0.0 on sphere rows, which makes their 1 - r^2
    exactly 0 and their radius 1.  The one evaluation of T_x; it never
    reclassifies loci.  Batch-invariant: each step is elementwise or a
    reduction over one (base, row) pair alone, so a pair's fields equal the
    one-base, one-row call's.  Hence |s|^2 by stacked per-pair dots: a
    reduction over the whole array sums in blocks chosen for it, moving some
    rows' last bit.
    """
    if x.ndim == 1:
        omx = one_minus_sq_norm(x)
    else:  # a (k, 1) column of per-base values against the rows
        omx = one_minus_sq_norms(x)[:, None]
    s = locations + x[..., None, :]
    ss = _row_dots(s, s)
    omxy = omx * one_minus_sq  # (1 - |x|^2)(1 - |y|^2)
    dens = ss + omxy
    if dens.min(initial=math.inf) < POLE_EPS:
        raise PoleSingularity("Mobius denominator underflow")
    images = (ss[..., None] * x[..., None, :] + np.expand_dims(omx, -1) * s) / dens[..., None]
    one_minus_r2 = omxy / dens

    # sqrt(1 - A) cancels for small radii, where the direct norm is accurate;
    # near the sphere the factorized 1 - A carries the precision instead
    near_origin = one_minus_r2 > 0.5
    direct = np.sqrt(np.einsum("...ij,...ij->...i", images, images))
    radii = np.where(near_origin, direct, np.sqrt(np.maximum(1.0 - one_minus_r2, 0.0)))

    with np.errstate(divide="ignore"):
        arclengths = np.where(
            near_origin,
            np.arctanh(radii),
            np.log1p(radii) - 0.5 * np.log(np.maximum(one_minus_r2, 5e-324)),
        )
    # .T puts the rows first for one base or a block: a[..., mask] is slower
    arclengths.T[boundary] = np.inf
    return MobiusBatch(images, radii, arclengths, one_minus_r2, dens, omx)


def _mobius_rows(x: np.ndarray, locations: np.ndarray, boundary: np.ndarray) -> MobiusBatch:
    """mobius_batch on raw rows, with 1 - |y_i|^2 built from their coordinates."""
    return mobius_batch(
        x, locations, np.where(boundary, 0.0, one_minus_sq_norms(locations)), boundary)


def _images(batch: MobiusBatch, boundary: np.ndarray) -> np.ndarray:
    """A batch's T_x images, in place: sphere images renormalized onto the
    sphere, interior images clamped inside it."""
    img = batch.images
    nr = _clamp_inside(img, boundary)
    if boundary.any():
        img[boundary] /= nr[boundary, None]
    return img


def _one_row(mapping: ArrayMap, y: PointLike) -> BallPoint:
    """An array map applied to the single point y, as a one-row block."""
    yp = point(y)
    img, _ = mapping(yp.coords[None], np.array([yp.is_boundary]))
    return BallPoint(img[0], yp.locus)


def mobius(x: PointLike, y: PointLike) -> BallPoint:
    """Hyperbolic translation T_x(y): the isometry sending 0 to x.

    Preserves the boundary sphere and the locus of y; the one-row mobius_map.
    """
    return _one_row(mobius_map(x), y)


def mobius_inverse(x: PointLike, y: PointLike) -> BallPoint:
    """Inverse translation (T_x)^{-1} = T_{-x}."""
    xp = interior_point(x)
    return mobius(BallPoint(-xp.coords, Locus.INTERIOR), y)


ArrayMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def mobius_map(x: PointLike) -> ArrayMap:
    """The array map (locations, boundary) -> (T_x images, boundary).

    One mobius_batch pass; sphere images are renormalized and interior images
    clamped inside the sphere.  Every step is per row (1 - |y|^2, the kernel,
    the norms), so a row's image does not depend on the block: mobius(x, y)
    is this map on the one-row block y.
    """
    xp = interior_point(x)

    def apply(locations: np.ndarray, boundary: np.ndarray):
        if locations.shape[1] != xp.dim:
            raise DimensionMismatch(f"dim {xp.dim} vs {locations.shape[1]}")
        return _images(_mobius_rows(xp.coords, locations, boundary), boundary), boundary.copy()

    return apply


def hyp_distance(x: PointLike, y: PointLike) -> float:
    """Hyperbolic distance between interior points, arctanh |T_{-x}(y)|."""
    xp = interior_point(x)
    yp = interior_point(y)
    if xp.dim != yp.dim:
        raise DimensionMismatch(f"dim {xp.dim} vs {yp.dim}")
    return float(_mobius_rows(-xp.coords, yp.coords[None], _NO_SPHERE).arclengths[0])


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
    batch = _mobius_rows(-xp.coords, yp.coords[None], _NO_SPHERE)
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


def geodesic_points(g: Geodesic, ts: Sequence[float]) -> np.ndarray:
    """Chart points T_base(t * dir) of a block of parameters in one kernel
    pass; row k equals geodesic_point(g, ts[k]) bit for bit."""
    if not all(-1.0 < t < 1.0 for t in ts):
        raise DomainError(f"chart parameters {list(ts)!r} outside (-1, 1)")
    rows = np.multiply.outer(ts, g.dir)
    interior = np.zeros(len(ts), dtype=bool)
    _clamp_inside(rows, interior)
    return _images(_mobius_rows(g.base.coords, rows, interior), interior)


def geodesic_point(g: Geodesic, t: float) -> BallPoint:
    """Chart point T_base(t * dir); hyperbolic arclength from base is arctanh|t|."""
    return BallPoint(geodesic_points(g, [t])[0], Locus.INTERIOR)


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


def on_geodesic(g: Geodesic, z: PointLike, tol: float = 1e-10) -> bool:
    """Whether z lies on the geodesic (or its sphere endpoints) within tol: the
    component of T_{-base}(z) transverse to the direction."""
    w = mobius_inverse(g.base, point(z)).coords
    return float(np.linalg.norm(w - (w @ g.dir) * g.dir)) <= tol


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


def _reflect_rows(h: Halfspace, w: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Reflect pulled-back rows across {y.p = 0} and translate them back by T_{tp}."""
    c = w - 2.0 * _row_dots(w, h.p)[:, None] * h.p
    _clamp_inside(c, boundary)
    return _images(_mobius_rows(h.t * h.p, c, boundary), boundary)


def halfspace_contains(h: Halfspace, y: PointLike, tol: float = 0.0) -> bool:
    """Whether y lies in the closed halfball H(p, t) or on its sphere cap."""
    return float(mobius(-h.t * h.p, y).coords @ h.p) <= tol


def reflect(h: Halfspace, y: PointLike) -> BallPoint:
    """Hyperbolic reflection across the wall of H(p, t), by conjugation.

    An isometry of the closed ball: sphere points stay on the sphere."""
    pull = mobius_map(-h.t * h.p)
    return _one_row(lambda rows, bd: (_reflect_rows(h, pull(rows, bd)[0], bd), bd), y)


def fold(h: Halfspace, y: PointLike) -> BallPoint:
    """Fold map onto H: identity inside, hyperbolic reflection outside; the
    one-row fold_map, so sphere points fold onto the sphere."""
    return _one_row(fold_map(h), y)


def fold_map(h: Halfspace) -> ArrayMap:
    """The array map (locations, boundary) -> fold images.

    One pull-back T_{-tp} of every row, shared by the membership test and the
    reflection; only the rows outside H are reflected and translated back, and
    that second pass is skipped when every row is inside.
    """
    pull = mobius_map(-h.t * h.p)

    def apply(locations: np.ndarray, boundary: np.ndarray):
        w, _ = pull(locations, boundary)
        out = _row_dots(w, h.p) > 0.0
        images = np.array(locations, dtype=float)
        if out.any():
            images[out] = _reflect_rows(h, w[out], boundary[out])
        return images, boundary.copy()

    return apply


def translate_coords(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T_x(w) on raw interior coordinates: one kernel row, unvalidated."""
    return _images(_mobius_rows(x, w[None], _NO_SPHERE), _NO_SPHERE)[0]
