"""Shifted Collatz iteration for dual Perron / Perron-Frobenius eigenpairs.

For a dual matrix whose standard part is irreducible nonnegative, the
dominant eigenpair is computed by power-like iteration on the shifted
matrix ``B = A + rho*I`` (``rho > 0`` forces primitivity, hence
convergence). Each step yields minimax ratio bounds

    lower_k = min_i (Bx)_i / x_i,   upper_k = max_i (Bx)_i / x_i

as dual numbers under the lexicographic order; the lower sequence is
nondecreasing, the upper nonincreasing, and both sandwich the shifted
eigenvalue. Reported bounds and eigenvalues are de-shifted (rho is
subtracted from all standard parts).

Convergence is flagged three ways: 1 when the dual-number gap closed to
``delta1`` (relative to the F^R-norm of A), 2 when only the standard parts
closed to ``delta2``, 0 when the iteration budget ran out. At flags 1 and 2
the dual part of the eigenvalue is ``w A_d x / w x``, with a left iterate
``w`` run beside ``x``, and the eigenvector is the loop's own iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .dual import DualNumber
from .errors import (
    DimensionMismatch,
    NonPositiveIterate,
    NonPositiveVector,
    RankDeficient,
    StructureViolation,
)
from .linalg import DualMatrix, DualVector, _lu_solve, frn_norm, matvec, normalize
from .structure import classify

__all__ = [
    "Flag",
    "SolverConfig",
    "TraceRecord",
    "PerronResult",
    "TRACE_FIELDS",
    "collatz_step",
    "solve",
    "solve_dual_part",
    "row_sum_bounds",
    "minimax_ratios",
    "eigen_residual",
]

TRACE_FIELDS = ("k", "lower_s", "lower_d", "upper_s", "upper_d", "gap_frn", "residual_frn")
# solve refuses (RankDeficient) an eigenpair whose residual exceeds this times ||A||_FR
RESIDUAL_RTOL = 1e-7


class Flag(IntEnum):
    NOT_CONVERGED = 0
    CONVERGED_FULL = 1
    CONVERGED_STANDARD = 2


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, stopping tolerances, shift, and optional start.

    ``delta1`` stops on the full dual-number bound gap, ``delta2`` on the
    standard parts alone; both are relative to the F^R-norm of the input.
    ``x0`` must have a strictly positive standard part; the default start
    is the all-ones vector with zero dual part.
    """

    k_max: int = 2000
    delta1: float = 1e-8
    delta2: float = 1e-12
    rho: float = 1.0
    x0: DualVector | None = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not (self.delta1 > 0.0 and self.delta2 > 0.0):
            raise ValueError("delta1 and delta2 must be positive")
        if not self.rho > 0.0:
            raise ValueError(f"shift rho must be positive, got {self.rho}")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration record (bounds de-shifted, gap and residual in F^R)."""

    k: int
    lower_s: float
    lower_d: float
    upper_s: float
    upper_d: float
    gap_frn: float
    residual_frn: float


@dataclass
class PerronResult:
    """Outcome of one solve.

    ``eigenvalue`` / ``eigenvector`` / ``residual`` are populated only for
    flags 1 and 2, with the residual then at most ``RESIDUAL_RTOL*||A||_FR``.
    The eigenvector is a unit dual vector (unit standard part orthogonal to
    the dual part); ``lower`` and ``upper`` hold the full de-shifted bound
    sequences, read off ``trace`` once the loop ends, one entry per recorded
    k including k = 0.
    """

    flag: Flag
    eigenvalue: DualNumber | None
    eigenvector: DualVector | None
    lower: list[DualNumber]
    upper: list[DualNumber]
    iterations: int
    residual: float | None
    trace: list[TraceRecord]


def _lex_argmin(std: np.ndarray, dl: np.ndarray) -> int:
    idx = np.flatnonzero(std == std.min())
    return int(idx[np.argmin(dl[idx])])


def _lex_argmax(std: np.ndarray, dl: np.ndarray) -> int:
    idx = np.flatnonzero(std == std.max())
    return int(idx[np.argmax(dl[idx])])


# Measured crossover vs 1-thread OpenBLAS 0.3.31 gemv (2-vCPU Xeon): fill 1/17-1/21, n=1000-2000.
_SPARSE_MAX_FILL = 1 / 20


class _Nonzeros:
    """A square matrix held as its nonzeros, applied in O(nnz) by ``@``."""
    __array_ufunc__ = None  # so that numpy defers ``w @ self`` to __rmatmul__

    def __init__(self, m: np.ndarray, mask: np.ndarray | None = None):
        """``mask``, if given, must be ``m != 0.0``."""
        self.n = m.shape[0]
        # row-major, as np.nonzero orders them; bincount sums in this order
        flat = np.flatnonzero(m != 0.0 if mask is None else mask)
        self.rows, self.cols = np.divmod(flat, self.n)
        self.vals = m.reshape(-1)[flat]

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        z = np.bincount(self.rows, weights=self.vals * y[self.cols], minlength=self.n)
        # bincount of no nonzeros returns integer zeros
        return z.astype(float, copy=False)

    def __rmatmul__(self, w: np.ndarray) -> np.ndarray:
        z = np.bincount(self.cols, weights=self.vals * w[self.rows], minlength=self.n)
        return z.astype(float, copy=False)


def _operator(m: np.ndarray):
    """``m`` itself, or its nonzeros when few enough to beat a dense product."""
    mask = m != 0.0
    return _Nonzeros(m, mask) if np.count_nonzero(mask) <= _SPARSE_MAX_FILL * m.size else m


def _step(B_s, B_d, y_s, y_d):
    """The Collatz step on raw arrays: the product z = B y and the bounds.

    Returns ``(z_s, z_d, lower, upper)``, the bounds as ``(standard, dual)``
    pairs: the lexicographic min and max of the componentwise dual
    quotients z_i / y_i (y_s must be strictly positive), ties resolved at
    the lowest index.
    """
    z_s = B_s @ y_s
    z_d = B_s @ y_d + B_d @ y_s
    std = z_s / y_s
    dl = z_d / y_s - std * y_d / y_s
    # With y finite and positive, the quotients are finite unless z is not
    # (or a quotient overflows): B y has left the double range.
    if not (np.isfinite(std).all() and np.isfinite(dl).all()):
        raise NonPositiveIterate("product B*y is not finite: it overflows the double range")
    lo = _lex_argmin(std, dl)
    hi = _lex_argmax(std, dl)
    return z_s, z_d, (float(std[lo]), float(dl[lo])), (float(std[hi]), float(dl[hi]))


def _step_at(M: DualMatrix, x: DualVector, err: type[Exception], what: str):
    if np.any(x.standard <= 0.0):
        raise err(what)
    if M.n != x.n:
        raise DimensionMismatch(f"matrix is {M.n}x{M.n}, vector has length {x.n}")
    return _step(M.standard, M.dual, x.standard, x.dual)


def collatz_step(B: DualMatrix, x: DualVector) -> tuple[DualVector, DualNumber, DualNumber]:
    """One iteration: bounds for the current iterate plus the next iterate.

    Requires x with strictly positive standard part; B should have
    nonnegative standard part with positive row sums so positivity is
    preserved.
    """
    what = "iterate must have a strictly positive standard part"
    z_s, z_d, lower, upper = _step_at(B, x, NonPositiveIterate, what)
    return normalize(DualVector(z_s, z_d)), DualNumber(*lower), DualNumber(*upper)


def minimax_ratios(A: DualMatrix, x: DualVector) -> tuple[DualNumber, DualNumber]:
    """min_i and max_i of (Ax)_i / x_i; these sandwich the dominant eigenvalue."""
    what = "ratio bounds require a strictly positive standard part"
    _, _, lower, upper = _step_at(A, x, NonPositiveVector, what)
    return DualNumber(*lower), DualNumber(*upper)


def row_sum_bounds(A: DualMatrix) -> tuple[DualNumber, DualNumber]:
    """Smallest and largest dual row sum; these bracket the dominant eigenvalue."""
    sums_s = A.standard.sum(axis=1)
    sums_d = A.dual.sum(axis=1)
    lo = _lex_argmin(sums_s, sums_d)
    hi = _lex_argmax(sums_s, sums_d)
    return DualNumber(sums_s[lo], sums_d[lo]), DualNumber(sums_s[hi], sums_d[hi])


def solve_dual_part(A: DualMatrix, lambda_s: float, x_s) -> tuple[float, np.ndarray]:
    """Recover (lambda_d, x_d) given the standard eigenpair; ``solve`` never calls it.

    Solves the bordered square system stacking
    ``(A_s - lambda_s I) x_d - lambda_d x_s = -A_d x_s`` with the
    normalization row ``x_s . x_d = 0``. For a simple dominant eigenvalue
    with positive left/right eigenvectors the system is nonsingular, so
    the recovered pair is unique; a rank failure signals a wrong
    ``lambda_s`` or ``x_s``.
    """
    xs = np.asarray(x_s, dtype=float)
    xs = xs / np.linalg.norm(xs)
    n = xs.size
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = A.standard - float(lambda_s) * np.eye(n)
    m[:n, n] = -xs
    m[n, :n] = xs
    rhs = np.concatenate([-(A.dual @ xs), [0.0]])

    what = "dual-part system is numerically singular; standard eigenpair is suspect"
    z = _lu_solve(m, rhs, RankDeficient, what)
    return float(z[n]), z[:n]


def _residual_frn(y_s, y_d, lam, x_s, x_d) -> float:
    # ||y - lam*x||_{F^R} with the vector read as an n-by-1 matrix; lam is
    # a (standard, dual) pair.
    rs = y_s - lam[0] * x_s
    rd = y_d - (lam[0] * x_d + lam[1] * x_s)
    return math.hypot(float(np.linalg.norm(rs)), float(np.linalg.norm(rd)))


def eigen_residual(A: DualMatrix, lam: DualNumber, x: DualVector) -> float:
    """||Ax - lam*x||_{F^R} for a candidate eigenpair."""
    y = matvec(A, x)
    return _residual_frn(y.standard, y.dual, (lam.standard, lam.dual), x.standard, x.dual)


def _trace_record(k: int, lo, hi, rho: float, residual: float) -> TraceRecord:
    # lo and hi are the shifted bounds; the record holds them de-shifted.
    lower_s, upper_s = lo[0] - rho, hi[0] - rho
    return TraceRecord(
        k=k,
        lower_s=lower_s,
        lower_d=lo[1],
        upper_s=upper_s,
        upper_d=hi[1],
        gap_frn=math.hypot(upper_s - lower_s, hi[1] - lo[1]),
        residual_frn=residual,
    )


def solve(A: DualMatrix, cfg: SolverConfig | None = None) -> PerronResult:
    """Dominant eigenpair of a dual matrix with irreducible nonnegative
    standard part.

    Refuses anything else: without that structure the eigenpair may not
    exist at all, so no answer is fabricated.
    """
    cfg = cfg or SolverConfig()
    # Overflow surfaces as a typed error (the finiteness checks below and in
    # _step), so numpy's floating-point warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        report = classify(A.standard, cfg.rho)
        if not report.nonnegative:
            raise StructureViolation("standard part not nonnegative")
        if not report.irreducible:
            raise StructureViolation("standard part reducible")

        n = A.n
        rho = cfg.rho
        B_s = A.standard + 0.0  # a copy that, like A_s + rho*I, turns -0.0 into +0.0
        B_s.flat[:: n + 1] += rho
        B_s = _operator(B_s)
        B_d = _operator(A.dual)
        norm_a = frn_norm(A)
        if not math.isfinite(norm_a):
            raise NonPositiveIterate("input F^R-norm is not finite: it overflows the double range")
        tol_full = norm_a * cfg.delta1
        tol_standard = norm_a * cfg.delta2

        if cfg.x0 is None:
            x_s, x_d = np.ones(n), np.zeros(n)
        else:
            if cfg.x0.n != n:
                raise DimensionMismatch(f"x0 has length {cfg.x0.n}, matrix is {n}x{n}")
            if np.any(cfg.x0.standard <= 0.0):
                raise NonPositiveIterate("x0 must have a strictly positive standard part")
            x_s, x_d = cfg.x0.standard, cfg.x0.dual

        w = np.ones(n)  # the left iterate 1^T B^k / ||.||, for lambda_d
        y_s, y_d, lo, hi = _step(B_s, B_d, x_s, x_d)
        trace = [_trace_record(0, lo, hi, rho, _residual_frn(y_s, y_d, lo, x_s, x_d))]

        flag = Flag.NOT_CONVERGED
        eigenvalue = None
        eigenvector = None
        iterations = cfg.k_max

        for k in range(1, cfg.k_max + 1):
            # The bounds for the iterate x^(k) = y/||y|| are scale-invariant,
            # so they are evaluated on the unnormalized pair (y, By): exact
            # ties survive that way, which the per-component rounding of the
            # normalized iterate would break by an ulp.
            z_s, z_d, lo, hi = _step(B_s, B_d, y_s, y_d)
            w = w @ B_s
            # x = y/||y|| as in linalg.normalize: x_s @ y_d, not y_s @ y_d / ns**3,
            # which overflows once ns passes about 5e102.
            ns, nw = float(np.linalg.norm(y_s)), float(np.linalg.norm(w))
            if not (math.isfinite(ns) and math.isfinite(nw)):
                # norm squares before it sums, so it overflows before B*y does
                raise NonPositiveIterate(f"iterate norm overflowed the double range at k={k}")
            w, x_s = w / nw, y_s / ns
            q = float(x_s @ y_d) / ns
            x_d = y_d / ns - x_s * q
            if np.any(x_s <= 0.0):
                # Unreachable for admissible B; guards against caller misuse.
                raise NonPositiveIterate(f"iterate lost positivity at k={k}")
            # B x = z/||y||: z times the dual scalar 1/||y|| = (1/ns, -q/ns).
            inv_s, inv_d = 1.0 / ns, -q / ns
            y_s, y_d = inv_s * z_s, inv_s * z_d + inv_d * z_s
            trace.append(_trace_record(k, lo, hi, rho, _residual_frn(y_s, y_d, lo, x_s, x_d)))

            gap_s, gap_d = hi[0] - lo[0], hi[1] - lo[1]
            if math.hypot(gap_s, gap_d) <= tol_full:
                flag = Flag.CONVERGED_FULL
            elif abs(gap_s) <= tol_standard:
                flag = Flag.CONVERGED_STANDARD
            else:
                continue
            eigenvalue = DualNumber(lo[0] - rho, float(w @ (B_d @ x_s)) / float(w @ x_s))
            eigenvector = DualVector(x_s, x_d)
            iterations = k
            break

        residual = None
        if flag != Flag.NOT_CONVERGED:
            residual = eigen_residual(A, eigenvalue, eigenvector)
            if not residual <= RESIDUAL_RTOL * norm_a:  # also refuses a NaN residual
                raise RankDeficient(
                    f"residual {residual:.3e} > {RESIDUAL_RTOL:g}*||A||_FR: B - (lambda+rho)I is"
                    f" numerically singular (rho={rho:g} swamps A), or delta1/delta2 are too loose")

        return PerronResult(
            flag=flag,
            eigenvalue=eigenvalue,
            eigenvector=eigenvector,
            lower=[DualNumber(r.lower_s, r.lower_d) for r in trace],
            upper=[DualNumber(r.upper_s, r.upper_d) for r in trace],
            iterations=iterations,
            residual=residual,
            trace=trace,
        )
