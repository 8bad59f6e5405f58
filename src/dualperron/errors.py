"""Exception types shared across the package."""

__all__ = [
    "DualPerronError",
    "DivisionUndefined",
    "ZeroVector",
    "DimensionMismatch",
    "NotSquare",
    "TooLarge",
    "StructureViolation",
    "NonPositiveIterate",
    "NonPositiveVector",
    "RankDeficient",
    "NoPositivePerronVector",
    "BadSpec",
]


class DualPerronError(Exception):
    """Base class for every error raised by this library."""


class DivisionUndefined(DualPerronError, ZeroDivisionError):
    """Dual division a/b with b_s = 0 and (a_s != 0 or b_d = 0)."""


class ZeroVector(DualPerronError, ValueError):
    """Normalization of a vector whose standard and dual parts are both zero."""


class DimensionMismatch(DualPerronError, ValueError):
    """Operands with incompatible shapes."""


class NotSquare(DualPerronError, ValueError):
    """A square matrix was required."""


class TooLarge(DualPerronError, ValueError):
    """Input exceeds the size guard of a desk-scale routine."""


class StructureViolation(DualPerronError, ValueError):
    """Standard part is not irreducible nonnegative; the solver refuses it."""


class NonPositiveIterate(DualPerronError, ValueError):
    """Iterate that is not finite and strictly positive: an entry or its norm
    overflowed the double range (or the input's norm did), or the standard
    part has an entry <= 0."""


class NonPositiveVector(DualPerronError, ValueError):
    """Minimax ratios asked for a vector that is not strictly positive."""


class RankDeficient(DualPerronError, ValueError):
    """A numerically singular or uncertified eigenproblem. Raised by three
    routes: the bordered system of ``solve_dual_part`` is singular; ``solve``'s
    budget runs out after a stop it refused because the residual missed its
    limit (B - (lambda+rho)I is numerically singular: the shift swamps A);
    or a stop's left Perron vector is not certified within the budget."""


class NoPositivePerronVector(DualPerronError, ValueError):
    """Dense spectrum found no simple positive dominant eigenpair."""


class BadSpec(DualPerronError, ValueError):
    """Malformed test-matrix specification."""
