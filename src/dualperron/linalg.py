"""Dual vectors and matrices on numpy storage.

A dual vector ``x = x_s + x_d*eps`` and a dual matrix ``A = A_s + A_d*eps``
are stored as pairs of real arrays. All operations allocate fresh outputs
and never mutate their inputs, so values are safe to share across threads.
A matrix adds, takes real multiples and acts on vectors. It has no product
with another matrix, no inverse and no linear solve: no result of the
solver needs one.

A part is stored read-only and C-ordered. The constructors copy each part
they are given, except a C-ordered numpy float64 array that owns its data
and is already read-only: that one is adopted as it is, so a caller that
builds an n x n part and freezes it pays for no second copy. Such a caller
must not make the array writable again. A writable array, a view, a
Fortran-ordered array, another dtype or a list is copied, so changing the
source later leaves the value unchanged. Either way the pass that takes a
part's 2-norm checks that its entries are finite; ``frn_norm`` reuses the norms.

``DualMatrix`` chooses a part's form once, when it stores it
(``_stored_part``): its nonzeros (``_Nonzeros``) when they fill at most
n^2/20 entries, else the dense array. ``.standard`` and ``.dual`` still
return a read-only n x n float64 array: for a part held as nonzeros, the
array it was built from, or one built on first access and then kept. Every
product applies the parts as stored, and ``row_sum_bounds`` and the
solver's gate read them through this module's stored-part helpers.

One kernel, ``_dual_product``, makes every matrix-vector product of
``matvec``, ``minimax_ratios`` and the solver: the dual product
``(M_s y_s, M_s y_d + M_d y_s)``. A dense ``M_s`` leaves memory once per
call: the kernel walks it in row blocks of about ``_BLOCK_BYTES`` (512 KB,
a quarter of a 2 MB L2), and each block meets one gemm with the two vectors
``[y_s; y_d]`` while it is still in cache. Two separate gemvs read it
twice. A part held as nonzeros keeps its own O(nnz) products. The solver's
left product ``w M_s`` is ``w @ part``, which both stored forms support.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .dual import DualNumber
from .errors import (
    DimensionMismatch,
    NonPositiveIterate,
    NotSquare,
    ZeroVector,
)

__all__ = [
    "DualVector",
    "DualMatrix",
    "vec_norm2",
    "normalize",
    "matvec",
    "frn_norm",
    "save_matrix",
    "load_matrix",
]


def _require_finite(arr: np.ndarray) -> float:
    """The 2-norm of ``arr`` (``inf`` once its squares overflow, past about
    1e154), refused (``ValueError``) if an entry is NaN or inf. One pass: a
    mask of arr's shape is built only when the norm is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(arr))
    if not (math.isfinite(norm) or np.isfinite(arr).all()):
        raise ValueError("entries must be finite")
    return norm


def _square(a):
    """``a`` as a float array, refused (``NotSquare``) unless square with n >= 1; nonzeros pass."""
    if isinstance(a, _Nonzeros):
        return a
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NotSquare(f"expected a square matrix with n >= 1, got shape {arr.shape}")
    return arr


def _freeze(arr) -> np.ndarray:
    """``arr`` as a read-only C-ordered float64 array: adopted or copied, see
    the module docstring. Its entries are not checked here."""
    adopt = (type(arr) is np.ndarray and arr.dtype == np.float64 and arr.flags.owndata
             and arr.flags.c_contiguous and not arr.flags.writeable)
    out = arr if adopt else np.array(arr, dtype=float, order="C")
    out.setflags(write=False)
    return out


class _Nonzeros:
    """A square matrix held as its nonzeros, applied in O(nnz) by ``@``.

    ``rows``, ``cols`` and ``vals`` are read-only and row-major, the order
    of ``np.nonzero``: ``bincount`` sums in this order, so it sets the bits
    of a product. No stored value is zero.
    """
    __array_ufunc__ = None  # so that numpy defers ``w @ self`` to __rmatmul__

    def __init__(self, m: np.ndarray):
        """The nonzeros of the square array ``m``."""
        n = m.shape[0]
        flat = np.flatnonzero(m)
        rows, cols = np.divmod(flat, n)
        self._adopt(n, rows, cols, m.reshape(-1)[flat])

    @classmethod
    def _of(cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> _Nonzeros:
        """An n x n matrix from a row-major triple with no zero value, adopted as it is."""
        self = cls.__new__(cls)
        self._adopt(n, rows, cols, vals)
        return self

    def _adopt(self, n, rows, cols, vals):
        for a in (rows, cols, vals):
            a.setflags(write=False)
        self.n, self.rows, self.cols, self.vals = n, rows, cols, vals

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n

    @cached_property
    def dense(self) -> np.ndarray:
        """The n x n array, read-only; built on first access, then kept."""
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        a.setflags(write=False)
        return a

    def __repr__(self) -> str:
        return f"_Nonzeros(n={self.n}, nnz={self.vals.size})"

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        z = np.bincount(self.rows, weights=self.vals * y[self.cols], minlength=self.n)
        # bincount of no nonzeros returns integer zeros
        return z.astype(float, copy=False)

    def __rmatmul__(self, w: np.ndarray) -> np.ndarray:
        z = np.bincount(self.cols, weights=self.vals * w[self.rows], minlength=self.n)
        return z.astype(float, copy=False)


class _PartWise:
    """The part-wise algebra ``DualVector`` and ``DualMatrix`` share: ``+`` of
    two values of one type and one n, and a real multiple ``alpha * x``.
    Each runs under ``np.errstate``, so a part that overflows is refused by
    the constructor (``ValueError``) with no numpy warning first."""

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(f"{type(self).__name__} sizes differ: {self.n} and {other.n}")
        with np.errstate(over="ignore", invalid="ignore"):
            return type(self)(self.standard + other.standard, self.dual + other.dual)

    def __mul__(self, alpha):
        if not isinstance(alpha, numbers.Real):
            return NotImplemented
        a = float(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            return type(self)(a * self.standard, a * self.dual)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class DualVector(_PartWise):
    """Pair of equal-length real vectors (standard, dual)."""

    standard: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        s = _freeze(np.atleast_1d(self.standard))
        d = _freeze(np.atleast_1d(self.dual))
        _require_finite(s)
        _require_finite(d)
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

    def __sub__(self, other):
        if not isinstance(other, DualVector):
            return NotImplemented
        return self + (-other)  # exact: IEEE-754 defines x - y as x + (-y)

    def __neg__(self):
        return DualVector(-self.standard, -self.dual)

    def __mul__(self, alpha):
        if not isinstance(alpha, DualNumber):
            return super().__mul__(alpha)
        with np.errstate(over="ignore", invalid="ignore"):  # DualVector refuses what overflows
            return DualVector(
                alpha.standard * self.standard,
                alpha.standard * self.dual + alpha.dual * self.standard,
            )

    __rmul__ = __mul__


# Measured crossover vs 1-thread OpenBLAS 0.3.31 gemv (2-vCPU Xeon): fill 1/17-1/21, n=1000-2000.
_SPARSE_MAX_FILL = 1 / 20


def _stored_part(part):
    """A matrix part in the form ``DualMatrix`` holds and every product
    applies: its nonzeros when they fill at most n^2/20 entries (an array
    that sparse is kept as their ``dense``), else its frozen dense array.
    A part that is not square is returned frozen, for the caller to refuse."""
    if isinstance(part, _Nonzeros):
        return part if part.vals.size <= _SPARSE_MAX_FILL * part.n ** 2 else part.dense
    arr = _freeze(np.atleast_2d(part))
    n = arr.shape[0]
    limit = _SPARSE_MAX_FILL * n ** 2
    # a tenth of the rows settles most dense arrays: their count alone passes the limit
    if (arr.shape != (n, n) or np.count_nonzero(arr[: n // 10]) > limit
            or np.count_nonzero(arr) > limit):
        return arr
    nonzeros = _Nonzeros(arr)
    nonzeros.dense = arr
    return nonzeros


@dataclass(frozen=True, eq=False, init=False, repr=False)
class DualMatrix(_PartWise):
    """Pair of equal-shape square real matrices (standard, dual).

    Each part is stored as a read-only array or as its nonzeros (module
    docstring); ``standard`` and ``dual`` return the dense array either way.
    """

    _parts: tuple  # (standard, dual) as stored; read them through the part helpers below
    _frn: float  # frn_norm: the hypot of the norms that checked the stored parts

    def __init__(self, standard, dual):
        s, d = _stored_part(standard), _stored_part(dual)
        norm_s, norm_d = _require_finite(_values(s)), _require_finite(_values(d))
        if not s.shape == d.shape == (s.shape[0],) * 2 or s.shape[0] < 1:
            raise DimensionMismatch(
                f"matrix parts must share shape n x n with n >= 1, got {s.shape} and {d.shape}")
        object.__setattr__(self, "_parts", (s, d))
        object.__setattr__(self, "_frn", math.hypot(norm_s, norm_d))

    def __repr__(self) -> str:
        s, d = self._parts
        return f"DualMatrix(standard={s!r}, dual={d!r})"

    @property
    def standard(self) -> np.ndarray:
        return _dense(self._parts[0])

    @property
    def dual(self) -> np.ndarray:
        return _dense(self._parts[1])

    @property
    def n(self) -> int:
        return self._parts[0].shape[0]


# -- stored parts -------------------------------------------------------------
#
# The only readers of a part as stored besides ``@``, dense array or nonzeros
# alike; the solver and its gate use these and need not know the form.


def _dense(part) -> np.ndarray:
    """A stored matrix part as its dense array."""
    return part.dense if isinstance(part, _Nonzeros) else part


def _values(part) -> np.ndarray:
    """The values a stored part holds: the array itself, or its nonzeros' values."""
    return part.vals if isinstance(part, _Nonzeros) else part


def _lowest(part) -> float:
    """The least entry of a stored part (NaN if one is NaN); entries it does not store are 0."""
    vals = _values(part)
    return float(vals.min(initial=0.0 if vals.size < part.shape[0] ** 2 else math.inf))


def _row_sums(part) -> np.ndarray:
    """The row sums of a stored part."""
    if isinstance(part, _Nonzeros):
        return np.bincount(part.rows, part.vals, minlength=part.n)
    return part.sum(axis=1)


def _reach(part, back: bool = False):
    """The boolean product over the positive entries of a stored part: a
    function from a boolean frontier of rows to the columns a positive entry
    in those rows leads to (with ``back``, from columns to rows). On
    nonzeros it costs O(nnz); on a dense array it compares the frontier's
    rows (columns) with 0, a row block at a time, and builds no n x n
    pattern."""
    n = part.shape[0]
    if isinstance(part, _Nonzeros):
        keep = part.vals > 0.0
        src, dst = part.rows[keep], part.cols[keep]
        if back:
            src, dst = dst, src

        def reach(frontier):
            out = np.zeros(n, dtype=bool)
            out[dst[frontier[src]]] = True
            return out
        return reach
    rows = max(1, _BLOCK_BYTES // (8 * n))

    def reach(frontier):
        out = np.zeros(n, dtype=bool)
        index = np.flatnonzero(frontier)
        for i in range(0, index.size, rows):
            at = index[i : i + rows]
            if back:
                out |= (part[:, at] > 0.0).any(axis=1)
            else:
                out |= (part[at] > 0.0).any(axis=0)
        return out
    return reach


def _scaled(v: np.ndarray) -> tuple[float, np.ndarray, float]:
    """``(p, v/p, ||v/p||)``, p the power of two at max|v| (1 if v = 0): the
    squares of v/p stay in the double range, and ``p*||v/p||`` is ``||v||``
    bit for bit wherever numpy's own norm of v does not under- or overflow."""
    p = math.ldexp(1.0, math.frexp(float(np.abs(v).max()))[1])
    u = v / p
    return p, u, float(np.linalg.norm(u))


def _norm(v: np.ndarray) -> float:
    """``||v||`` (Frobenius for a matrix) by ``_scaled``, whose squares do not under- or overflow."""
    p, _, nu = _scaled(v)
    return p * nu


def vec_norm2(x: DualVector) -> DualNumber:
    """Dual 2-norm: (||x_s||, x_s.x_d/||x_s||), or ||x_d||*eps if x_s = 0."""
    if x.appreciable:
        p, u, nu = _scaled(x.standard)
        with np.errstate(over="ignore", invalid="ignore"):  # DualNumber refuses what overflows
            return DualNumber(p * nu, float(u @ x.dual) / nu)
    return DualNumber(0.0, _norm(x.dual))


def normalize(x: DualVector) -> DualVector:
    """Unit vector x/||x||: result has ||y_s|| = 1 and y_s.y_d = 0.

    When x has no appreciable part the dual part of the result is a free
    choice; it is fixed to zero.
    """
    if x.appreciable:
        ns = _norm(x.standard)
        with np.errstate(over="ignore", invalid="ignore"):  # DualVector refuses what overflows
            ys = x.standard / ns
            # ys @ x_d, not x_s @ x_d / ns**3: ns**3 overflows once ns passes about 5e102
            yd = x.dual / ns - ys * (float(ys @ x.dual) / ns)
        return DualVector(ys, yd)
    nd = _norm(x.dual)
    if nd == 0.0:
        raise ZeroVector("cannot normalize the zero dual vector")
    return DualVector(x.dual / nd, np.zeros_like(x.dual))


# Bytes of a dense part per row block of _dual_product. Measured on ex52 with
# 1-thread OpenBLAS 0.3.31 on a 2-vCPU Xeon (2 MB L2 per core), the kernel takes
# 0.98-1.25 ms at n=1500 and 2.42-2.83 ms at n=2000, against 1.76-2.15 and
# 4.08-4.92 ms for two gemvs and 1.85-2.59 and 4.82-5.40 ms for one unblocked
# gemm; blocks of 128 KB take 1.24-1.88 and 2.48-3.57 ms, of 1 MB 1.02-1.14 and
# 1.80-2.96 ms. The blocking may set the last bits of a product, so it is kept.
_BLOCK_BYTES = 512 * 1024


def _dual_product(M_s, M_d, y_s, y_d):
    """The dual product M y on stored parts, ``(M_s y_s, M_s y_d + M_d y_s)``.

    A dense ``M_s`` is read once, block by block (module docstring); the
    order of its sums is BLAS's, so their last bits depend on its blocking.
    Nonzeros apply their ``@`` to each vector, as separate products."""
    if isinstance(M_s, _Nonzeros):
        return M_s @ y_s, M_s @ y_d + M_d @ y_s
    n = M_s.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * n))
    y = np.array([y_s, y_d])
    z = np.empty((2, n))  # the rows M_s y_s and M_s y_d
    for i in range(0, n, rows):
        np.matmul(y, M_s[i : i + rows].T, out=z[:, i : i + rows])
    return z[0], z[1] + M_d @ y_s


def matvec(A: DualMatrix, x: DualVector) -> DualVector:
    """Matrix-vector product (A_s x_s, A_s x_d + A_d x_s), on the parts as stored."""
    if A.n != x.n:
        raise DimensionMismatch(f"matrix is {A.n}x{A.n}, vector has length {x.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        z_s, z_d = _dual_product(*A._parts, x.standard, x.dual)
    if not (np.isfinite(z_s).all() and np.isfinite(z_d).all()):
        raise NonPositiveIterate("product A*x is not finite: it overflows the double range")
    return DualVector(z_s, z_d)


def frn_norm(value) -> float:
    """F^R-norm sqrt(||standard||_F^2 + ||dual||_F^2).

    Accepts a dual matrix, a dual vector (read as an n-by-1 matrix), or a
    dual scalar (1-by-1 case). A norm beyond the double range is ``inf``:
    numpy's norm squares the entries before it sums them, so this happens
    for entries beyond about 1e154. A dual matrix keeps its norm (module docstring).
    """
    if isinstance(value, DualNumber):
        return math.hypot(value.standard, value.dual)
    if isinstance(value, DualMatrix):
        return value._frn
    if not isinstance(value, DualVector):
        raise TypeError(f"no F^R-norm for {type(value).__name__}")
    return math.hypot(_require_finite(value.standard), _require_finite(value.dual))


# -- file format -------------------------------------------------------------
#
# Matrices are exchanged as a single JSON document:
#   {"n": 3, "standard": [[...], ...], "dual": [[...], ...]}
# with row-major n-by-n arrays of JSON numbers: n is an integer, and an
# entry that is a string, bool or null is refused, not read as a number.
# Floats are serialized with shortest round-trip precision, so a dump/load
# cycle reproduces the matrix bit for bit.


def save_matrix(path, A: DualMatrix) -> None:
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python iterencode, about twice as slow for the same bytes.
    doc = {"n": A.n, "standard": A.standard.tolist(), "dual": A.dual.tolist()}
    text = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _numbers(part) -> np.ndarray:
    """A part's list of rows as a float array, refused (``TypeError``) if an
    entry is no JSON number: ``np.asarray`` reads "1" and true as 1, and null
    as NaN. Only a 2-D array can pass ``load_matrix``'s shape check."""
    arr = np.asarray(part, dtype=float)
    if arr.ndim == 2 and (kinds := set(map(type, chain.from_iterable(part))) - {int, float}):
        raise TypeError(f"entries must be numbers, got {sorted(k.__name__ for k in kinds)}")
    return arr


def load_matrix(path) -> DualMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # nesting deeper than the parser's stack
            raise ValueError(f"malformed matrix document: {exc}") from exc
    try:
        n = doc["n"]
        if type(n) is not int:  # a JSON integer: not 2.9, true or "2"
            raise TypeError(f"n must be an integer, got {n!r}")
        standard, dual = _numbers(doc["standard"]), _numbers(doc["dual"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if standard.shape != (n, n) or dual.shape != (n, n):
        raise ValueError(
            f"matrix document claims n={n} but parts have shapes "
            f"{standard.shape} and {dual.shape}"
        )
    return DualMatrix(standard, dual)

