"""Dual vectors and matrices on dense numpy storage.

A dual vector ``x = x_s + x_d*eps`` and a dual matrix ``A = A_s + A_d*eps``
are stored as pairs of real arrays. All operations allocate fresh outputs
and never mutate their inputs, so values are safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .dual import DualNumber
from .errors import DimensionMismatch, SingularStandardPart, ZeroVector

__all__ = [
    "DualVector",
    "DualMatrix",
    "vec_norm2",
    "normalize",
    "matvec",
    "matmul",
    "inverse",
    "frn_norm",
    "is_unit",
    "save_matrix",
    "load_matrix",
]

# Relative smallest-pivot threshold below which a factorization is treated
# as singular.
PIVOT_RTOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    # One pass, no n*n mask: a NaN or inf entry makes the sum non-finite. So
    # can an overflow of finite entries, and only then is the mask needed.
    with np.errstate(over="ignore", invalid="ignore"):
        total = out.sum()
    if not (math.isfinite(total) or np.isfinite(out).all()):
        raise ValueError("entries must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DualVector:
    """Pair of equal-length real vectors (standard, dual)."""

    standard: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        s = _freeze(np.atleast_1d(self.standard))
        d = _freeze(np.atleast_1d(self.dual))
        if s.ndim != 1 or d.ndim != 1:
            raise DimensionMismatch("vector parts must be one-dimensional")
        if s.shape != d.shape or s.size < 1:
            raise DimensionMismatch(
                f"vector parts must share length >= 1, got {s.shape} and {d.shape}"
            )
        object.__setattr__(self, "standard", s)
        object.__setattr__(self, "dual", d)

    @property
    def n(self) -> int:
        return self.standard.size

    @property
    def appreciable(self) -> bool:
        return bool(np.any(self.standard != 0.0))

    def __add__(self, other):
        if not isinstance(other, DualVector):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("vector lengths differ")
        return DualVector(self.standard + other.standard, self.dual + other.dual)

    def __sub__(self, other):
        if not isinstance(other, DualVector):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("vector lengths differ")
        return DualVector(self.standard - other.standard, self.dual - other.dual)

    def __neg__(self):
        return DualVector(-self.standard, -self.dual)

    def __mul__(self, alpha):
        if isinstance(alpha, DualNumber):
            return DualVector(
                alpha.standard * self.standard,
                alpha.standard * self.dual + alpha.dual * self.standard,
            )
        if isinstance(alpha, numbers.Real):
            a = float(alpha)
            return DualVector(a * self.standard, a * self.dual)
        return NotImplemented

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class DualMatrix:
    """Pair of equal-shape square real matrices (standard, dual)."""

    standard: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        s = _freeze(np.atleast_2d(self.standard))
        d = _freeze(np.atleast_2d(self.dual))
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionMismatch(f"standard part must be square, got {s.shape}")
        if s.shape != d.shape or s.size < 1:
            raise DimensionMismatch(
                f"matrix parts must share shape n x n with n >= 1, got {s.shape} and {d.shape}"
            )
        object.__setattr__(self, "standard", s)
        object.__setattr__(self, "dual", d)

    @property
    def n(self) -> int:
        return self.standard.shape[0]

    def __add__(self, other):
        if not isinstance(other, DualMatrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("matrix dimensions differ")
        return DualMatrix(self.standard + other.standard, self.dual + other.dual)

    def __mul__(self, alpha):
        if isinstance(alpha, numbers.Real):
            a = float(alpha)
            return DualMatrix(a * self.standard, a * self.dual)
        return NotImplemented

    __rmul__ = __mul__


def vec_norm2(x: DualVector) -> DualNumber:
    """Dual 2-norm: (||x_s||, x_s.x_d/||x_s||), or ||x_d||*eps if x_s = 0."""
    if x.appreciable:
        ns = float(np.linalg.norm(x.standard))
        return DualNumber(ns, float(x.standard @ x.dual) / ns)
    return DualNumber(0.0, float(np.linalg.norm(x.dual)))


def normalize(x: DualVector) -> DualVector:
    """Unit vector x/||x||: result has ||y_s|| = 1 and y_s.y_d = 0.

    When x has no appreciable part the dual part of the result is a free
    choice; it is fixed to zero.
    """
    if x.appreciable:
        ns = float(np.linalg.norm(x.standard))
        ys = x.standard / ns
        # ys @ x_d, not x_s @ x_d / ns**3: ns**3 overflows once ns passes about 5e102
        yd = x.dual / ns - ys * (float(ys @ x.dual) / ns)
        return DualVector(ys, yd)
    nd = float(np.linalg.norm(x.dual))
    if nd == 0.0:
        raise ZeroVector("cannot normalize the zero dual vector")
    return DualVector(x.dual / nd, np.zeros_like(x.dual))


def matvec(A: DualMatrix, x: DualVector) -> DualVector:
    """Matrix-vector product (A_s x_s, A_s x_d + A_d x_s)."""
    if A.n != x.n:
        raise DimensionMismatch(f"matrix is {A.n}x{A.n}, vector has length {x.n}")
    return DualVector(A.standard @ x.standard, A.standard @ x.dual + A.dual @ x.standard)


def matmul(A: DualMatrix, B: DualMatrix) -> DualMatrix:
    """Matrix product (A_s B_s, A_s B_d + A_d B_s)."""
    if A.n != B.n:
        raise DimensionMismatch("matrix dimensions differ")
    return DualMatrix(A.standard @ B.standard, A.standard @ B.dual + A.dual @ B.standard)


def _lu_solve(m: np.ndarray, rhs: np.ndarray, err: type[Exception], what: str) -> np.ndarray:
    """Solve m z = rhs by LU, raising ``err`` when a pivot is negligible.

    This is the only user of scipy; importing it here keeps scipy.linalg
    (the larger part of the package's import time) off every call that
    never factors a matrix.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    with warnings.catch_warnings():
        # the pivot test below owns singularity detection
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= PIVOT_RTOL * float(np.linalg.norm(m)):
        raise err(f"{what}: smallest pivot {pivots.min():.3e} below threshold")
    return lu_solve((lu, piv), rhs, check_finite=False)


def inverse(A: DualMatrix) -> DualMatrix:
    """Inverse (A_s^-1, -A_s^-1 A_d A_s^-1); requires invertible A_s."""
    inv_s = _lu_solve(A.standard, np.eye(A.n), SingularStandardPart, "standard part singular")
    inv_d = -inv_s @ A.dual @ inv_s
    return DualMatrix(inv_s, inv_d)


def frn_norm(value) -> float:
    """F^R-norm sqrt(||standard||_F^2 + ||dual||_F^2).

    Accepts a dual matrix, a dual vector (read as an n-by-1 matrix), or a
    dual scalar (1-by-1 case).
    """
    if isinstance(value, DualNumber):
        return math.hypot(value.standard, value.dual)
    if isinstance(value, (DualVector, DualMatrix)):
        return math.hypot(
            float(np.linalg.norm(value.standard)), float(np.linalg.norm(value.dual))
        )
    raise TypeError(f"no F^R-norm for {type(value).__name__}")


def is_unit(x: DualVector, tol: float = 1e-12) -> bool:
    """Unit-vector test: ||x_s|| = 1 and x_s.x_d = 0, to tolerance."""
    return (
        abs(float(np.linalg.norm(x.standard)) - 1.0) <= tol
        and abs(float(x.standard @ x.dual)) <= tol
    )


# -- file format -------------------------------------------------------------
#
# Matrices are exchanged as a single JSON document:
#   {"n": 3, "standard": [[...], ...], "dual": [[...], ...]}
# with row-major n-by-n arrays of reals.
# Floats are serialized with shortest round-trip precision, so a dump/load
# cycle reproduces the matrix bit for bit.


def save_matrix(path, A: DualMatrix) -> None:
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python iterencode, about twice as slow for the same bytes.
    doc = {"n": A.n, "standard": A.standard.tolist(), "dual": A.dual.tolist()}
    text = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_matrix(path) -> DualMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        n = int(doc["n"])
        standard = np.asarray(doc["standard"], dtype=float)
        dual = np.asarray(doc["dual"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if standard.shape != (n, n) or dual.shape != (n, n):
        raise ValueError(
            f"matrix document claims n={n} but parts have shapes "
            f"{standard.shape} and {dual.shape}"
        )
    return DualMatrix(standard, dual)

