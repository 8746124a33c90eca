"""Finite atomic (possibly signed) measures on the closed unit ball.

A measure is a set of read-only atom arrays: coordinates, signed weights,
a sphere mask and, for geodesic-polar atoms, the exact 1 - |y|^2 datum.
Construction and validation against the solver's guarantee hypotheses,
pushforwards through array maps, and quantization of densities into
reproducible atom lists.  Measures are immutable after construction;
quantization is deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyMeasure,
    NonpositiveMass,
    RegionTouchesBoundary,
    ZeroTotal,
)
from .geometry import (
    BOUNDARY_SNAP_TOL,
    ArrayMap,
    mobius_map,
    one_minus_sq_norms,
)

CO_LOCATION_TOL = 1e-12
GEODESIC_MEMBER_TOL = 1e-10
_CHART_ROUNDOFF = 1e-14  # floor of the scaled tolerance, ~50 ulps
REGION_MARGIN = 1e-6


class Support(Enum):
    COMPACT_INTERIOR = "compact_interior"
    TOUCHES_BOUNDARY = "touches_boundary"
    SPHERE_ONLY = "sphere_only"


class GeodesicSupport(Enum):
    NOT_IN_GEODESIC = "not_in_geodesic"
    IN_GEODESIC = "in_geodesic"
    IN_GEODESIC_CLOSURE = "in_geodesic_closure"


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite list of (location, signed weight) atoms in one ambient dimension.

    Atom i is row i of the read-only arrays ``locations`` (m, n), ``weights``
    (m,) and ``boundary_mask`` (m,), which flags atoms on the unit sphere.
    ``one_minus_sq`` optionally holds exact values of 1 - |y_i|^2 (0.0 on
    sphere atoms) for measures with atoms given in geodesic-polar form; it is
    None when every atom is Cartesian.
    """

    locations: np.ndarray
    weights: np.ndarray
    boundary_mask: np.ndarray
    one_minus_sq: np.ndarray | None = None

    def __post_init__(self) -> None:
        for a in (self.locations, self.weights, self.boundary_mask, self.one_minus_sq):
            if a is not None:
                a.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.locations.shape[1]

    @property
    def total(self) -> float:
        return math.fsum(self.weights.tolist())

    @property
    def abs_total(self) -> float:
        return math.fsum(np.abs(self.weights).tolist())

    @property
    def signed(self) -> bool:
        return bool(np.any(self.weights < 0.0))

    @cached_property
    def one_minus_sq_values(self) -> np.ndarray:
        """Per-atom 1 - |y_i|^2 as the Mobius kernel reads it: the exact datum
        where carried, else from coords, and 0.0 on sphere atoms."""
        if self.one_minus_sq is not None:
            return self.one_minus_sq
        omy = np.where(self.boundary_mask, 0.0, one_minus_sq_norms(self.locations))
        omy.flags.writeable = False
        return omy

    def __len__(self) -> int:
        return len(self.weights)


def _polar_point(spec: dict) -> tuple[np.ndarray, float]:
    """Interior point at arclength s along u, with its exact 1 - |y|^2 = sech^2 s."""
    u = np.array(spec["dir"], dtype=float)
    s = float(spec["s"])
    if u.ndim != 1 or u.shape[0] < 1 or not np.all(np.isfinite(u)):
        raise DomainError("a polar atom needs a finite 1-d direction vector")
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        raise DomainError("a polar atom direction must be nonzero")
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError("a polar atom arclength must be finite and >= 0")
    coords = math.tanh(s) * (u / nu)
    if float(np.linalg.norm(coords)) >= 1.0:
        raise DomainError(f"arclength {s!r} has no interior float64 coordinates")
    return coords, 1.0 / math.cosh(s) ** 2


def _stack(specs: list) -> np.ndarray:
    """The (m, n) coordinate array of the atoms, or the error that prevents it."""
    try:
        rows = np.array(specs, dtype=float)
    except (TypeError, ValueError):  # not numbers, or rows of different lengths
        rows = None
    if rows is not None and rows.ndim == 2 and rows.shape[1] >= 1:
        return rows
    dims = set()
    for spec in specs:
        try:
            v = np.array(spec, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError("atom coordinates must be numbers") from exc
        if v.ndim != 1 or v.shape[0] < 1:
            raise DomainError("a point needs a 1-d coordinate vector of length >= 1")
        dims.add(v.shape[0])
    raise DimensionMismatch(f"atoms span dimensions {sorted(dims)}")


def atomic_measure(
    atoms: Iterable[tuple[Sequence[float] | dict, float]],
    dimension: int | None = None,
) -> AtomicMeasure:
    """Build a measure from (atom, weight) pairs.

    An atom is either Cartesian coordinates, snapped onto the sphere within
    BOUNDARY_SNAP_TOL, or geodesic-polar ``{"dir": u, "s": s}``: the interior
    point tanh(s) u/|u| at arclength s from the origin, never snapped, whose
    1 - |y|^2 = sech^2 s the measure carries exactly.  Cartesian atoms are
    classified as geometry.point() classifies one point, bit for bit: each
    norm is a per-row dot product, the rounding of np.linalg.norm on a vector.
    """
    pairs = list(atoms)
    if not pairs:
        raise EmptyMeasure("a measure needs at least one atom")
    specs, ws = zip(*pairs)
    polar = {i: _polar_point(s) for i, s in enumerate(specs) if isinstance(s, dict)}
    locations = _stack([polar[i][0] if i in polar else s for i, s in enumerate(specs)])
    if not np.all(np.isfinite(locations)):
        raise DomainError("coordinates must be finite")
    nr = np.sqrt((locations[:, None, :] @ locations[:, :, None])[:, 0, 0])
    snap = np.abs(nr - 1.0) <= BOUNDARY_SNAP_TOL
    snap[list(polar)] = False
    outside = ~snap & (nr >= 1.0)
    if np.any(outside):
        r = float(nr[outside][0])
        raise DomainError(f"|coords| = {r!r} lies outside the closed unit ball")
    locations[snap] /= nr[snap, None]
    try:
        weights = np.array(ws, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError("atom weights must be finite numbers") from exc
    if weights.shape != (len(ws),) or not np.all(np.isfinite(weights)):
        raise DomainError("atom weights must be finite numbers")
    n = locations.shape[1]
    if dimension is not None and dimension != n:
        raise DimensionMismatch(f"atoms have dimension {n}, expected {dimension}")
    if not polar:
        return AtomicMeasure(locations, weights, snap)
    one_minus_sq = np.where(snap, 0.0, one_minus_sq_norms(locations))
    one_minus_sq[list(polar)] = [datum for _, datum in polar.values()]
    return AtomicMeasure(locations, weights, snap, one_minus_sq)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    total: float
    abs_total: float
    support: Support
    boundary_pointmass_ok: bool
    geodesic_support: GeodesicSupport
    signed: bool


def _close_pairs(locs: np.ndarray, tol: float) -> np.ndarray:
    """Index pairs (2, k), i < j, of rows within tol along the widest
    coordinate: one stable sort along it, then a sweep over sorted neighbours
    at gap 1, 2, ... while any stay within tol.  A superset of the pairs
    within euclidean distance tol."""
    axis = np.argmax(np.ptp(locs, axis=0))
    order = np.argsort(locs[:, axis], kind="stable")
    keys, pairs = locs[order, axis], [np.empty((2, 0), dtype=np.intp)]
    for gap in range(1, len(keys)):
        near = np.flatnonzero(keys[gap:] - keys[:-gap] <= tol)
        if not near.size:
            break
        pairs.append(np.sort([order[near], order[near + gap]], axis=0))
    return np.concatenate(pairs, axis=1)


def _aggregate(measure: AtomicMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge atoms co-located within CO_LOCATION_TOL.

    Greedy in index order: each unmerged atom absorbs every later unmerged
    atom within CO_LOCATION_TOL (sort-and-sweep candidates, exact distance
    test) whose exact 1 - |y|^2, where carried, agrees to relative
    CO_LOCATION_TOL.  Returns (locations, weights, is_boundary) of the
    aggregated atoms; the result is invariant under permutation and under
    splitting an atom into co-located halves.
    """
    locs = measure.locations
    omy = measure.one_minus_sq
    i, j = _close_pairs(locs, 2.0 * CO_LOCATION_TOL)
    close = np.linalg.norm(locs[i] - locs[j], axis=1) <= CO_LOCATION_TOL
    if omy is not None:
        close &= np.abs(omy[i] - omy[j]) <= CO_LOCATION_TOL * np.maximum(omy[i], omy[j])
    rep = np.arange(len(measure))
    for a, b in sorted(zip(i[close].tolist(), j[close].tolist())):
        if rep[a] == a and rep[b] == b:
            rep[b] = a
    reps = np.flatnonzero(rep == np.arange(len(measure)))
    agg_w = np.bincount(np.searchsorted(reps, rep), measure.weights, len(reps))
    return locs[reps], agg_w, measure.boundary_mask[reps]


def validate(measure: AtomicMeasure) -> ValidationReport:
    """Check the measure against the hypotheses the guarantees condition on."""
    total = measure.total
    abs_total = measure.abs_total
    signed = measure.signed
    if not signed and total <= 0.0:
        raise ZeroTotal("unsigned measure must have positive total mass")

    bd = measure.boundary_mask
    if np.all(bd):
        support = Support.SPHERE_ONLY
    elif np.any(bd):
        support = Support.TOUCHES_BOUNDARY
    else:
        support = Support.COMPACT_INTERIOR

    locs, agg_w, agg_bd = _aggregate(measure)
    return ValidationReport(
        total=total,
        abs_total=abs_total,
        support=support,
        boundary_pointmass_ok=bool(np.all(agg_w[agg_bd] < 0.5 * total)),
        geodesic_support=_geodesic_support(locs, agg_bd),
        signed=signed,
    )


def _geodesic_support(locs: np.ndarray, bd: np.ndarray) -> GeodesicSupport:
    """Whether the aggregated atoms lie on one geodesic (or its closure).

    A geodesic meets the sphere twice, so three sphere atoms never lie on one.
    Otherwise it runs through the interior atom a nearest the origin and the
    atom euclidean-farthest from a, and is a diameter of the chart T_{-a}.  The
    chart scales lengths at y by lam = (1-|a|^2) / (|y-a|^2 + (1-|a|^2)(1-|y|^2));
    where lam < 1 the tolerance shrinks with it, so no atom passes by being
    squeezed.
    """
    on = GeodesicSupport.IN_GEODESIC
    if np.any(bd):
        on = GeodesicSupport.IN_GEODESIC_CLOSURE
    if locs.shape[1] == 1 or len(locs) <= 2:
        return on
    if np.count_nonzero(bd) >= 3:
        return GeodesicSupport.NOT_IN_GEODESIC
    omy = np.where(bd, 0.0, 1.0 - np.einsum("ij,ij->i", locs, locs))
    a = int(np.argmax(np.where(bd, -1.0, omy)))
    dist = np.linalg.norm(locs - locs[a], axis=1)
    far = int(np.argmax(dist))
    lam = omy[a] / (dist**2 + omy[a] * omy)
    tol = np.maximum(GEODESIC_MEMBER_TOL * np.minimum(lam, 1.0), _CHART_ROUNDOFF)
    to_chart = mobius_map(-locs[a])
    w_far, _ = to_chart(locs[[far]], bd[[far]])
    u = w_far[0] / np.linalg.norm(w_far[0])
    rest = np.delete(np.arange(len(locs)), [a, far])
    # one atom alone settles generic supports
    for rows in (rest[:1], rest[1:]):
        if len(rows):
            w, _ = to_chart(locs[rows], bd[rows])
            resid = np.linalg.norm(w - np.outer(w @ u, u), axis=1)
            if not np.all(resid <= tol[rows]):
                return GeodesicSupport.NOT_IN_GEODESIC
    return on


def pushforward(measure: AtomicMeasure, mapping: ArrayMap) -> AtomicMeasure:
    """Relocate atoms through an array map; weights and totals are untouched.

    ``mapping(locations, boundary)`` takes the (m, n) atom coordinates and the
    (m,) sphere mask and returns the images and their mask, row for row: finite
    points of the closed ball, on the sphere where masked.  Images are
    Cartesian: any exact 1 - |y|^2 data of the source is dropped.
    """
    images, bd = mapping(measure.locations, measure.boundary_mask)
    images, bd = np.array(images, dtype=float, order="C"), np.array(bd, dtype=bool)
    if images.shape != measure.locations.shape or bd.shape != (len(measure),):
        raise DimensionMismatch(f"pushforward images have shape {images.shape}")
    r = np.linalg.norm(images, axis=1)  # NaN or inf rows fail both tests
    if not np.all(np.where(bd, np.abs(r - 1.0) <= BOUNDARY_SNAP_TOL, r <= 1.0)):
        raise DomainError("pushforward images must be finite points of the closed ball")
    return AtomicMeasure(images, measure.weights.copy(), bd)


@dataclass(frozen=True, eq=False)
class BallRegion:
    """Euclidean ball compactly contained in the open unit ball."""

    center: np.ndarray
    radius: float

    @property
    def max_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def volume(self) -> float:
        n = self.center.shape[0]
        unit = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        return unit * self.radius**n


def ball_region(center: Sequence[float], radius: float) -> BallRegion:
    c = np.array(center, dtype=float)
    if radius <= 0.0:
        raise DomainError("region radius must be positive")
    region = BallRegion(c, float(radius))
    if region.max_radius >= 1.0 - REGION_MARGIN:
        raise RegionTouchesBoundary(
            f"region reaches radius {region.max_radius}; must stay below "
            f"{1.0 - REGION_MARGIN}"
        )
    return region


@cache
def _halton_perms(dimension: int, seed: int) -> tuple[np.ndarray, ...]:
    """ceil(54 / log2 b) - 1 digit permutations of arange(b) per coordinate,
    for the first `dimension` primes b, shuffled in turn by default_rng(seed)."""
    primes = [k for k in range(2, 16 * dimension + 16)
              if all(k % p for p in range(2, math.isqrt(k) + 1))]
    tables = [np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
              for b in primes[:dimension]]
    rng = np.random.default_rng(seed)
    for perm in itertools.chain(*tables):
        rng.shuffle(perm)
    for perms in tables:  # shared by every caller through the cache
        perms.flags.writeable = False
    return tuple(tables)


def _halton(dimension: int, seed: int, batch: int) -> Iterator[np.ndarray]:
    """Consecutive batches of the draws of scipy.stats.qmc.Halton(dimension,
    scramble=True, seed=seed), bit for bit: digit k of an index in base b adds
    perm_k[digit] b^-(k+1), with b^-(k+1) by repeated division (powers of 1/b
    are 1 ulp off), and the terms are summed in digit order."""
    tables = _halton_perms(dimension, seed)
    for start in itertools.count(0, batch):
        idx, cols = np.arange(start, start + batch)[:, None], []
        for perms in tables:
            digits, b = perms.shape
            scales = np.divide.accumulate(np.r_[1.0, np.full(digits, b)])[1:]
            terms = perms[np.arange(digits), idx // b ** np.arange(digits) % b] * scales
            cols.append(np.cumsum(terms, axis=1)[:, -1])
        yield np.stack(cols, axis=1)


def quantize_density(
    f: Callable[[np.ndarray], float],
    region: BallRegion,
    dimension: int,
    count: int,
    seed: int = 0,
) -> AtomicMeasure:
    """Quantize the hyperbolic-volume density f into ``count`` atoms.

    Samples low-discrepancy (scrambled Halton, seeded) points y_i of the
    region and assigns weights f(y_i) (1-|y_i|^2)^{-n} vol(region)/count, so
    the atom list approximates the measure f(y) dVol_hyp(y) reproducibly.
    """
    if region.center.shape[0] != dimension:
        raise DimensionMismatch("region and requested dimension differ")
    if count < 1:
        raise DomainError("count must be >= 1")
    samples = np.empty((0, dimension))
    for rows in _halton(dimension, seed, max(64, count)):
        ys = (region.center - region.radius) + 2.0 * region.radius * rows
        d = ys - region.center  # per-row dot products: np.linalg.norm per point
        inside = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) <= region.radius
        samples = np.concatenate([samples, ys[inside]])
        if len(samples) >= count:
            break
    samples = samples[:count]
    fs = [float(f(y)) for y in samples]
    if min(fs) < 0.0:
        raise DomainError("density must be nonnegative on the region")
    vol = region.volume()
    omy = one_minus_sq_norms(samples).tolist()
    ws = [fy * o ** (-dimension) * vol / count for fy, o in zip(fs, omy)]
    measure = atomic_measure(list(zip(samples, ws)), dimension)
    if measure.abs_total <= 0.0:
        raise NonpositiveMass("density vanished at every sample point")
    return measure
