"""Exception types shared across the package."""


class HypcenterError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HypcenterError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionMismatch(HypcenterError):
    """Operands live in different ambient dimensions."""


class PoleSingularity(HypcenterError):
    """Mobius denominator underflowed; the map is singular at this input."""


class DegenerateDirection(HypcenterError):
    """A direction vector is zero or otherwise undefined."""


class UndefinedAtOne(DomainError):
    """The radial weight has no finite value at r = 1."""


class NotBoundaryCompatible(HypcenterError):
    """The weight cannot be boundary-normalized (g(1) undefined or <= 0)."""


class InvalidWeight(HypcenterError):
    """Declared weight metadata fails its construction-time spot checks."""


class EmptyMeasure(HypcenterError):
    """A measure needs at least one atom."""


class ZeroTotal(HypcenterError):
    """An unsigned measure has non-positive total mass."""


class RegionTouchesBoundary(HypcenterError):
    """A sampling region must be compactly contained in the open ball."""


class NonpositiveMass(HypcenterError):
    """Density quantization produced no positive mass."""


class DivergentIterates(HypcenterError):
    """Solver iterates escaped to the boundary without residual decrease."""


class SchemaError(HypcenterError):
    """A job input file does not match the expected JSON schema."""
