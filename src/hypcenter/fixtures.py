"""Built-in counterexample and regression fixtures.

Each entry builds a (weight, measure) pair exhibiting one documented behavior
of the center-of-mass problem (extra zeros, zero intervals, escaping centers,
signed-measure pathologies) and knows how to re-run its assertions.  The CLI's
``reproduce`` subcommand and the acceptance suite both drive this registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle
from .energy import EnergyContext, energy_context, field_V
from .errors import DivergentIterates, HypcenterError
from .measures import atomic_measure
from .solver import SolveOptions, UniquenessKind, multistart_probe, solve_center
from .weights import (
    RadialWeight,
    arctanh_power,
    clamped_arctanh,
    clamped_linear,
    identity,
    min_r_arctanh_inv,
)

TANH = math.tanh


@dataclass(frozen=True)
class Check:
    description: str
    value: float
    bound: float
    ok: bool

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "value": self.value,
            "bound": self.bound,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class FixtureReport:
    name: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }


def _check(description: str, value: float, bound: float) -> Check:
    return Check(description, float(value), float(bound), bool(abs(value) < bound))


def _ambiguity_check(ctx: EnergyContext, starts: int, seed: int) -> Check:
    """A multistart probe that must find more than one center."""
    probe = multistart_probe(ctx, SolveOptions(), starts=starts, seed=seed)
    return Check("multistart reports ambiguity", float(len(probe.uniqueness.representatives)),
                 2.0, probe.uniqueness.kind is UniquenessKind.AMBIGUOUS)


def staircase_weight() -> RadialWeight:
    """Increasing profile: arclength, then twice arclength, then constant 3."""
    return clamped_arctanh([(0.0, 1.0, 0.0), (1.0, 2.0, -1.0), (2.0, 0.0, 3.0)])


def two_zeros_context() -> EnergyContext:
    """Non-monotone dip weight, two symmetric atoms: the field has three zeros."""
    mu = atomic_measure([([TANH(2.0)], 1.0), ([-TANH(2.0)], 1.0)])
    return energy_context(min_r_arctanh_inv(), mu)


def flat_interval_context() -> EnergyContext:
    """Plateau weight on a geodesic: a whole interval of centers."""
    mu = atomic_measure([([-0.8], 1.0), ([0.8], 1.0)])
    return energy_context(clamped_linear(0.5), mu)


def escaping_mass_context(k: int) -> EnergyContext:
    """Vanishing far mass whose center nevertheless escapes to the boundary.

    mu_k = (1 - 1/k) delta_0 + (1/k) delta_{tanh k^2} under the arclength
    weight, with center exactly -tanh k.  The far atom is given by its
    arclength k^2, so the measure carries 1 - |y|^2 = sech^2 k^2 exactly
    rather than the value of the nearest double to tanh k^2.
    """
    mu = atomic_measure(
        [([0.0], 1.0 - 1.0 / k), ({"dir": [1.0], "s": float(k * k)}, 1.0 / k)]
    )
    return energy_context(arctanh_power(2.0), mu)


def signed_ball_context() -> EnergyContext:
    """Signed interior measure with a full interval of centers."""
    a = TANH(1.0)
    mu = atomic_measure([([-a], -1.0), ([0.0], 3.0), ([a], -1.0)])
    return energy_context(staircase_weight(), mu)


def signed_circle_context() -> EnergyContext:
    """Signed sphere measure whose field vanishes at two axis points."""
    s = math.sqrt(3.0) / 2.0
    atoms = [
        ([1.0, 0.0], 1.0),
        ([-0.5, s], 1.0),
        ([-0.5, -s], 1.0),
        ([0.5, s], -1.0),
        ([0.5, -s], -1.0),
    ]
    return energy_context(identity(), atomic_measure(atoms))


def signed_no_zero_context() -> EnergyContext:
    """Signed boundary measure with zero total mass: the field never vanishes."""
    mu = atomic_measure([([1.0], 1.0), ([-1.0], -1.0)])
    return energy_context(identity(), mu)


def _run_two_zeros(seed: int) -> FixtureReport:
    ctx = two_zeros_context()
    checks = [
        _check("V(tanh 1) + 2/3", field_V(ctx, [TANH(1.0)])[0] + 2.0 / 3.0, 1e-12),
        _check("V(tanh 2) - 1/4", field_V(ctx, [TANH(2.0)])[0] - 0.25, 1e-12),
    ]
    zeros = oracle.brute_force_zeros_1d(ctx)
    half_line = [p for p in zeros.points if p >= 0.0]
    structure_ok = (
        len(zeros.intervals) == 0
        and len(half_line) == 2
        and abs(half_line[0]) < 1e-10
        and TANH(1.0) < half_line[1] < TANH(2.0)
    )
    checks.append(Check("zero scan: origin zero plus one in (tanh 1, tanh 2)",
                        float(len(half_line)), 2.0, structure_ok))
    checks.append(_ambiguity_check(ctx, 12, seed))
    return FixtureReport("two-zeros", tuple(checks))


def _run_flat_interval(seed: int) -> FixtureReport:
    ctx = flat_interval_context()
    worst = max(
        abs(field_V(ctx, [math.tanh(s)])[0]) for s in np.linspace(-0.2, 0.2, 41)
    )
    checks = [_check("sup |V| on hyperbolic radius 0.2 interval", worst, 1e-13)]
    zeros = oracle.brute_force_zeros_1d(ctx)
    interval_ok = len(zeros.intervals) == 1 and (
        math.atanh(zeros.intervals[0][1]) >= 0.2
        and math.atanh(-zeros.intervals[0][0]) >= 0.2
    )
    checks.append(
        Check("zero interval around the origin", float(len(zeros.intervals)), 1.0,
              interval_ok)
    )
    checks.append(_ambiguity_check(ctx, 10, seed))
    return FixtureReport("flat-interval", tuple(checks))


def _run_escaping_mass(seed: int) -> FixtureReport:
    checks = []
    for k in (2, 3):
        ctx = escaping_mass_context(k)
        checks.append(
            _check(f"V(-tanh {k}) for the k={k} member",
                   field_V(ctx, [-TANH(float(k))])[0], 1e-10)
        )
        result = solve_center(ctx)
        checks.append(
            _check(
                f"center of the k={k} member sits at -tanh {k}",
                result.x_c.coords[0] + TANH(float(k)),
                1e-8,
            )
        )
    return FixtureReport("escaping-mass", tuple(checks))


def _run_signed_ball(seed: int) -> FixtureReport:
    ctx = signed_ball_context()
    checks = [
        _check("V(0)", field_V(ctx, [0.0])[0], 1e-12),
        _check("V(tanh 1)", field_V(ctx, [TANH(1.0)])[0], 1e-12),
    ]
    checks.append(_ambiguity_check(ctx, 10, seed))
    return FixtureReport("signed-ball", tuple(checks))


def _run_signed_circle(seed: int) -> FixtureReport:
    ctx = signed_circle_context()
    v0 = field_V(ctx, [0.0, 0.0])
    checks = [
        _check("V(0) first component + 1", v0[0] + 1.0, 1e-12),
        _check("V(0) second component", v0[1], 1e-12),
    ]
    zeros = oracle.brute_force_zeros_along_line(ctx, [1.0, 0.0])
    checks.append(
        Check(
            "axis scan: at least two sign changes",
            float(len(zeros.points)),
            2.0,
            len(zeros.points) >= 2,
        )
    )
    return FixtureReport("signed-circle", tuple(checks))


def _run_signed_no_zero(seed: int) -> FixtureReport:
    ctx = signed_no_zero_context()
    worst = max(
        abs(field_V(ctx, [x])[0] - 2.0) for x in np.linspace(-0.95, 0.95, 100)
    )
    checks = [_check("sup |V - 2| on 100 scan points", worst, 1e-12)]
    try:
        solve_center(ctx, SolveOptions(initial=[0.1]))
        diverged = False
    except DivergentIterates:
        diverged = True
    checks.append(Check("solver diverges to the boundary", 1.0 if diverged else 0.0,
                        2.0, diverged))
    return FixtureReport("signed-no-zero", tuple(checks))


REGISTRY: dict[str, Callable[[int], FixtureReport]] = {
    "two-zeros": _run_two_zeros,
    "flat-interval": _run_flat_interval,
    "escaping-mass": _run_escaping_mass,
    "signed-ball": _run_signed_ball,
    "signed-circle": _run_signed_circle,
    "signed-no-zero": _run_signed_no_zero,
}


def run_fixture(name: str, seed: int = 0) -> FixtureReport:
    """Re-run a named fixture's documented assertions."""
    if name not in REGISTRY:
        raise HypcenterError(
            f"unknown fixture {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[name](seed)
