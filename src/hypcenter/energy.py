"""Renormalized energy, its kernel, and the center-of-mass vector field.

For a weight g and an atomic measure the field is

    V(x) = sum_i w_i g(|T_x(y_i)|) T_x(y_i)/|T_x(y_i)|,

and the renormalized energy sums the kernel K(x, y): the difference of
weighted antiderivatives for interior atoms, and the Busemann-type logarithm
(1/2) log(|x+y|^2 / (1-|x|^2)) for sphere atoms.  The euclidean gradient of
the energy is V(x)/(1-|x|^2), so zeros of V are exactly the critical points,
and its Hessian is a closed form in the same per-atom data (_hessian).

When the measure touches the sphere the context rescales the weight so
g(1) = 1; both kernel branches then share the same normalization and the
energy splits exactly into ball and sphere parts.  Atom sums use fsum over a
fixed atom order: deterministic and exactly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NotBoundaryCompatible,
)
from .geometry import (
    _NO_SPHERE,
    BallPoint,
    MobiusBatch,
    _in_open_ball,
    _mobius_rows,
    _row_dots,
    mobius_batch,
    one_minus_sq_norm,
    point,
)
from .measures import AtomicMeasure, Support, ValidationReport, validate
from .weights import (
    RadialWeight, eval_dg_rs, eval_G_rs, eval_g_rs, normalized_for_boundary
)

XLike = Union[BallPoint, np.ndarray, list]


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """A (weight, measure) pair with precomputed per-atom radial metadata.

    The stored weight is boundary-normalized whenever the measure has sphere
    atoms; construction fails if that is impossible (g(1) undefined or <= 0).
    """

    weight: RadialWeight
    measure: AtomicMeasure
    validation: ValidationReport
    interior: np.ndarray
    any_boundary: bool
    gamma_y: np.ndarray  # K's term at x = 0: G(|y_i|), or (1/2) log |y_i|^2 on the sphere

    @property
    def dimension(self) -> int:
        return self.measure.dimension

    @property
    def total(self) -> float:
        return self.validation.total

    @property
    def abs_total(self) -> float:
        return self.validation.abs_total

    def residual_scale(self) -> float:
        """Mass scale for relative residuals: total, or |mu| if total <= 0."""
        t = self.total
        return t if t > 0.0 else self.abs_total


def energy_context(weight: RadialWeight, measure: AtomicMeasure) -> EnergyContext:
    """Validate and precompute; normalizes the weight for sphere atoms."""
    report = validate(measure)
    if report.support is not Support.COMPACT_INTERIOR:
        weight = normalized_for_boundary(weight)
    boundary = measure.boundary_mask
    # each atom's term at x = 0 through the same batch path used at evaluation
    # time, so that the kernel, its term less this, vanishes identically there
    batch = _batch(measure, np.zeros(measure.dimension))
    gamma_y = np.zeros(len(measure))
    gamma_y[boundary] = 0.5 * np.log(batch.dens[boundary])
    interior = ~boundary
    if np.any(interior):
        gamma_y[interior] = eval_G_rs(
            weight,
            batch.radii[interior],
            batch.arclengths[interior],
            batch.one_minus_r2[interior],
        )
    return EnergyContext(
        weight=weight,
        measure=measure,
        validation=report,
        interior=interior,
        any_boundary=bool(np.any(boundary)),
        gamma_y=gamma_y,
    )


def _as_interior_coords(ctx: EnergyContext, x: XLike, block: bool = False) -> np.ndarray:
    """The coordinates of x checked to lie in the open ball; with ``block``, x
    may also be a (k, n) block of points."""
    v = x.coords if isinstance(x, BallPoint) else np.asarray(x, dtype=float)
    if v.ndim not in ((1, 2) if block else (1,)) or v.shape[-1] != ctx.dimension:
        raise DimensionMismatch(
            f"evaluation point has shape {v.shape}, measure dimension {ctx.dimension}"
        )
    if not (_in_open_ball(v) if v.ndim == 1 else all(map(_in_open_ball, v))):
        raise DomainError("evaluation point must lie in the open ball")
    return v


def _batch(mu: AtomicMeasure, x: np.ndarray) -> MobiusBatch:
    return mobius_batch(x, mu.locations, mu.one_minus_sq_values, mu.boundary_mask)


def _fsum_last(terms: np.ndarray) -> list[float]:
    """fsum over the last axis, one float per leading index, in C order."""
    return [math.fsum(row) for row in terms.reshape(-1, terms.shape[-1]).tolist()]


def _fsum_vector(contrib: np.ndarray) -> np.ndarray:
    """Exact column sums of the (..., m, n) per-atom vectors: (..., n)."""
    cols = np.swapaxes(contrib, -1, -2)
    return np.array(_fsum_last(cols)).reshape(cols.shape[:-1])


def _radial_terms(ctx: EnergyContext, batch: MobiusBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom profile values g(|T_x(y_i)|) and unit directions of the images.

    Directions are the images normalized by their own euclidean norm, so they
    are unit vectors to machine precision even where the image coordinates
    carry cancellation noise; magnitudes come from the stable radial data.
    """
    if not ctx.any_boundary:
        g_vals = eval_g_rs(ctx.weight, batch.radii, batch.arclengths)
    else:
        g_vals = np.full(batch.radii.shape, ctx.weight.g1)
        if ctx.interior.any():
            g_vals.T[ctx.interior] = eval_g_rs(
                ctx.weight, batch.radii[..., ctx.interior], batch.arclengths[..., ctx.interior]
            ).T
    norms = np.sqrt(np.einsum("...ij,...ij->...i", batch.images, batch.images))[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        units = np.where(norms > 0.0, batch.images / norms, 0.0)
    return g_vals, units


def _field(ctx: EnergyContext, g_vals: np.ndarray, units: np.ndarray) -> np.ndarray:
    return _fsum_vector((ctx.measure.weights * g_vals)[..., None] * units)


def field_V(ctx: EnergyContext, x: XLike) -> np.ndarray:
    """The integrated radial field V(x); its zeros are the sought centers."""
    xv = _as_interior_coords(ctx, x)
    return _field(ctx, *_radial_terms(ctx, _batch(ctx.measure, xv)))


def _hessian(ctx: EnergyContext, xv: np.ndarray, batch: MobiusBatch,
             g_vals: np.ndarray, units: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean Hessian of the energy at x from the batch of its field V.

    Along the geodesic to an atom the term G(s) has second derivative dg/ds;
    across it, g times the Hessian of distance in curvature -4 (Petersen,
    Riemannian Geometry), 2 g coth(2s) = g (1 + r^2)/r, which tends to dg/ds(0)
    as r -> 0.  A sphere atom's Busemann term has 0 and 2 g(1).  Scaled by the
    metric (1-|x|^2)^-2, this is the Riemannian Hessian; the conformal factor
    adds sigma grad^T + grad sigma^T - (sigma . grad) I, sigma = 2x/(1-|x|^2).
    Non-finite when dg/ds is (arctanh_power p < 2 with an atom at r = 0).
    At a block of points, the (k, n, n) stack of their Hessians.
    """
    r = batch.radii
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        radial = eval_dg_rs(ctx.weight, r, batch.arclengths, batch.one_minus_r2)
        across = np.where(r > 0.0, g_vals * (1.0 + r * r) / r, radial)
        radial.T[ctx.measure.boundary_mask] = 0.0
        w = ctx.measure.weights
        along = units * (w * (radial - across))[..., None]
        eye = np.eye(xv.shape[-1])
        hess = (np.einsum("...ki,...kj->...ij", along, units)
                + _row_dots(across, w)[..., None, None] * eye)
    omx = batch.omx
    sigma, grad = 2.0 * xv / omx, v / omx
    conformal = sigma[..., :, None] * grad[..., None, :]
    return (hess / np.asarray(omx * omx)[..., None] + conformal + np.swapaxes(conformal, -1, -2)
            - _row_dots(sigma, grad)[..., None, None] * eye)


def _kernel_terms(ctx: EnergyContext, batch: MobiusBatch) -> np.ndarray:
    """Per-atom kernel values K(x, y_i) sharing one Mobius batch: each atom's
    term at x less its term at the origin, gamma_y."""
    if not ctx.any_boundary:
        return (
            eval_G_rs(ctx.weight, batch.radii, batch.arclengths, batch.one_minus_r2)
            - ctx.gamma_y
        )
    # masked writes go through .T, which puts the atoms first for a point or
    # a block; reads stay contiguous, as the profile functions take them
    vals = np.empty(batch.radii.shape)
    interior = ctx.interior
    if interior.any():
        vals.T[interior] = eval_G_rs(
            ctx.weight,
            batch.radii[..., interior],
            batch.arclengths[..., interior],
            batch.one_minus_r2[..., interior],
        ).T
    # the Busemann term (1/2) log(|x + y|^2 / (1 - |x|^2)): |x + y|^2 is the
    # Mobius denominator when |y| = 1; math.log per point, as for a lone
    # point: np.log rounds some differently
    omx = batch.omx
    log_omx = (math.log(omx) if batch.radii.ndim == 1
               else np.array([[math.log(o)] for o in omx[:, 0].tolist()]))
    boundary = ctx.measure.boundary_mask
    vals.T[boundary] = (0.5 * (np.log(batch.dens[..., boundary]) - log_omx)).T
    return vals - ctx.gamma_y


def renormalized_energy(ctx: EnergyContext, x: XLike) -> float:
    """The renormalized energy; finite for sphere atoms and zero at x = 0."""
    xv = _as_interior_coords(ctx, x)
    vals = _kernel_terms(ctx, _batch(ctx.measure, xv))
    return float(math.fsum((ctx.measure.weights * vals).tolist()))


def energy_and_field(ctx: EnergyContext, x: XLike) -> tuple:
    """Energy, field V, euclidean Hessian and 1 - |x|^2 from a single Mobius
    pass (solver hot path).  The Hessian comes as a no-argument function that
    assembles it from the same pass when called, so a point whose Hessian is
    never read (a descent step, a rejected trial) does not pay for it.

    At a (k, n) block of points: a list of k energies, the (k, n) fields, k
    Hessian functions, the first call of which assembles the whole block's
    Hessians, and a list of k values 1 - |x|^2.  Row j equals the call at the
    point x[j], bit for bit."""
    xv = _as_interior_coords(ctx, x, block=True)
    batch = _batch(ctx.measure, xv)
    energies = _fsum_last(ctx.measure.weights * _kernel_terms(ctx, batch))
    g_vals, units = _radial_terms(ctx, batch)
    v = _field(ctx, g_vals, units)
    hessian = partial(_hessian, ctx, xv, batch, g_vals, units, v)
    if xv.ndim == 1:
        return energies[0], v, hessian, batch.omx
    stack = cache(hessian)
    hessians = [partial(_row, stack, j) for j in range(len(xv))]
    return energies, v, hessians, batch.omx[:, 0].tolist()


def _row(stack: Callable[[], np.ndarray], j: int) -> np.ndarray:
    return stack()[j]


def kernel_K(ctx: EnergyContext, x: XLike, y: BallPoint) -> float:
    """Renormalized kernel K(x, y); continuous up to the sphere in y.

    The sphere branch presumes the normalized scale g(1) = 1, which the
    context guarantees whenever it owns sphere atoms.
    """
    xv = _as_interior_coords(ctx, x)
    yp = point(y)
    if yp.dim != ctx.dimension:
        raise DimensionMismatch("kernel arguments live in different dimensions")
    if yp.is_boundary:
        if ctx.weight.g1 is None or ctx.weight.g1 <= 0.0:
            raise NotBoundaryCompatible("sphere kernel needs a weight with g(1) > 0")
        # the Busemann term less its value at the origin, as in _kernel_terms
        diff = xv + yp.coords
        return (0.5 * (math.log(float(diff @ diff)) - math.log(one_minus_sq_norm(xv)))
                - 0.5 * math.log(float(yp.coords @ yp.coords)))
    row = yp.coords[None]
    g_img, g_y = (
        float(eval_G_rs(ctx.weight, b.radii, b.arclengths, b.one_minus_r2)[0])
        for b in (_mobius_rows(at, row, _NO_SPHERE) for at in (xv, np.zeros(ctx.dimension)))
    )
    return g_img - g_y
