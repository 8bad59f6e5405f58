"""Scalar dual numbers: arithmetic, total order, magnitude, division.

A dual number ``a = a_s + a_d*eps`` carries a standard part ``a_s`` and a
dual part ``a_d``, with the infinitesimal unit satisfying ``eps**2 = 0``.
Comparisons use the lexicographic total order on ``(standard, dual)``, so
for example ``1 - 9*eps > 0 + 100*eps``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import total_ordering, wraps

from .errors import DivisionUndefined

__all__ = ["DualNumber", "magnitude", "format_dual"]


def _dual_operand(method):
    """A binary operator of ``DualNumber`` given its operand as a
    ``DualNumber``: a real is coerced, any other operand gives
    ``NotImplemented``. The one coercion rule of the eight operators."""

    @wraps(method)
    def coerced(self, other):
        if isinstance(other, numbers.Real):
            other = DualNumber(float(other), 0.0)
        elif not isinstance(other, DualNumber):
            return NotImplemented
        return method(self, other)

    return coerced


@total_ordering
@dataclass(frozen=True, eq=False)
class DualNumber:
    """Immutable dual scalar with finite double-precision parts.

    NaN and infinity are rejected at construction: the total order used
    throughout the library is meaningless with non-finite parts.
    """

    standard: float
    dual: float = 0.0

    def __post_init__(self):
        s = float(self.standard)
        d = float(self.dual)
        if not (math.isfinite(s) and math.isfinite(d)):
            raise ValueError(
                f"dual number parts must be finite, got ({self.standard!r}, {self.dual!r})"
            )
        object.__setattr__(self, "standard", s)
        object.__setattr__(self, "dual", d)

    @property
    def appreciable(self) -> bool:
        """True when the standard part is nonzero."""
        return self.standard != 0.0

    # -- arithmetic ---------------------------------------------------------

    @_dual_operand
    def __add__(self, o):
        return DualNumber(self.standard + o.standard, self.dual + o.dual)

    __radd__ = __add__

    @_dual_operand
    def __sub__(self, o):
        return self + (-o)  # exact: IEEE-754 defines x - y as x + (-y)

    @_dual_operand
    def __rsub__(self, o):
        return o - self

    def __neg__(self):
        return DualNumber(-self.standard, -self.dual)

    @_dual_operand
    def __mul__(self, o):
        return DualNumber(
            self.standard * o.standard,
            self.standard * o.dual + self.dual * o.standard,
        )

    __rmul__ = __mul__

    @_dual_operand
    def __truediv__(self, o):
        if o.standard != 0.0:
            q = self.standard / o.standard
            return DualNumber(q, self.dual / o.standard - q * (o.dual / o.standard))
        if self.standard == 0.0 and o.dual != 0.0:
            # Degenerate branch: the dual part of the quotient is a free
            # constant; it is fixed to 0 here for determinism.
            return DualNumber(self.dual / o.dual, 0.0)
        raise DivisionUndefined(f"cannot divide {self} by {o}")

    @_dual_operand
    def __rtruediv__(self, o):
        return o / self

    def __abs__(self):
        return magnitude(self)

    # -- total order (functools.total_ordering adds <=, > and >=) ------------

    @_dual_operand
    def __eq__(self, o):
        return self.standard == o.standard and self.dual == o.dual

    @_dual_operand
    def __lt__(self, o):
        return (self.standard, self.dual) < (o.standard, o.dual)

    def __hash__(self):
        # equal to a real when the dual part is 0, so hash like that real
        return hash(self.standard) if self.dual == 0.0 else hash((self.standard, self.dual))

    def __str__(self):
        return format_dual(self, digits=None)

    def __repr__(self):
        return f"DualNumber({self.standard!r}, {self.dual!r})"


def magnitude(a: DualNumber) -> DualNumber:
    """Nonnegative magnitude |a| under the total order.

    For appreciable a this is (|a_s|, sgn(a_s)*a_d); a purely dual scalar
    maps to |a_d|*eps.
    """
    if a.standard != 0.0:
        sgn = 1.0 if a.standard > 0.0 else -1.0
        return DualNumber(abs(a.standard), sgn * a.dual)
    return DualNumber(0.0, abs(a.dual))


def _format_part(value: float, digits) -> str:
    if digits is None:
        return f"{value:.17g}"
    if abs(value) >= 1e4:
        return f"{value:.{digits}e}"
    return f"{value:.{digits}f}"


def format_dual(a: DualNumber, digits: int | None = 2) -> str:
    """Render as ``a_s+a_de`` (e.g. ``3.00+1.61e``).

    ``digits=None`` renders full precision.
    """
    std = _format_part(a.standard, digits)
    dl = _format_part(a.dual, digits)
    sign = "" if dl.startswith("-") else "+"
    return f"{std}{sign}{dl}e"

