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
closed to ``delta2`` (the dual parts of the eigenpair are then recovered
exactly by one bordered linear solve), 0 when the iteration budget ran
out.
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
    flags 1 and 2. The eigenvector is a unit dual vector (unit standard
    part orthogonal to the dual part); ``lower`` and ``upper`` hold the
    full de-shifted bound sequences, one entry per recorded k including
    k = 0.
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


def _ratio_bounds(y: DualVector, x: DualVector) -> tuple[DualNumber, DualNumber]:
    # Componentwise dual quotients y_i / x_i for appreciable x_i; min and
    # max under the lexicographic order, ties resolved at the lowest index.
    std = y.standard / x.standard
    dl = y.dual / x.standard - std * x.dual / x.standard
    lo = _lex_argmin(std, dl)
    hi = _lex_argmax(std, dl)
    return DualNumber(std[lo], dl[lo]), DualNumber(std[hi], dl[hi])


def collatz_step(B: DualMatrix, x: DualVector) -> tuple[DualVector, DualNumber, DualNumber]:
    """One iteration: bounds for the current iterate plus the next iterate.

    Requires x with strictly positive standard part; B should have
    nonnegative standard part with positive row sums so positivity is
    preserved.
    """
    if np.any(x.standard <= 0.0):
        raise NonPositiveIterate("iterate must have a strictly positive standard part")
    y = matvec(B, x)
    lower, upper = _ratio_bounds(y, x)
    return normalize(y), lower, upper


def minimax_ratios(A: DualMatrix, x: DualVector) -> tuple[DualNumber, DualNumber]:
    """min_i and max_i of (Ax)_i / x_i; these sandwich the dominant eigenvalue."""
    if np.any(x.standard <= 0.0):
        raise NonPositiveVector("ratio bounds require a strictly positive standard part")
    return _ratio_bounds(matvec(A, x), x)


def row_sum_bounds(A: DualMatrix) -> tuple[DualNumber, DualNumber]:
    """Smallest and largest dual row sum; these bracket the dominant eigenvalue."""
    sums_s = A.standard.sum(axis=1)
    sums_d = A.dual.sum(axis=1)
    lo = _lex_argmin(sums_s, sums_d)
    hi = _lex_argmax(sums_s, sums_d)
    return DualNumber(sums_s[lo], sums_d[lo]), DualNumber(sums_s[hi], sums_d[hi])


def solve_dual_part(A: DualMatrix, lambda_s: float, x_s) -> tuple[float, np.ndarray]:
    """Recover (lambda_d, x_d) once the standard eigenpair is known.

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


def _deshift(value: DualNumber, rho: float) -> DualNumber:
    return DualNumber(value.standard - rho, value.dual)


def _rescale_product(z: DualVector, y: DualVector) -> DualVector:
    # Turns z = B*y into B*(y/||y||) by multiplying with the dual scalar
    # 1/||y||; keeps iterate magnitudes bounded across iterations. The
    # inner product is taken on y_s/ns: ns**3 overflows once ns passes about 5e102.
    ns = float(np.linalg.norm(y.standard))
    q = float((y.standard / ns) @ y.dual) / ns
    inv = DualNumber(1.0 / ns, -q / ns)
    return inv * z


def _residual_frn(y: DualVector, lam: DualNumber, x: DualVector) -> float:
    # ||y - lam*x||_{F^R} with the vector read as an n-by-1 matrix.
    rs = y.standard - lam.standard * x.standard
    rd = y.dual - (lam.standard * x.dual + lam.dual * x.standard)
    return math.hypot(float(np.linalg.norm(rs)), float(np.linalg.norm(rd)))


def eigen_residual(A: DualMatrix, lam: DualNumber, x: DualVector) -> float:
    """||Ax - lam*x||_{F^R} for a candidate eigenpair."""
    return _residual_frn(matvec(A, x), lam, x)


def solve(A: DualMatrix, cfg: SolverConfig | None = None) -> PerronResult:
    """Dominant eigenpair of a dual matrix with irreducible nonnegative
    standard part.

    Refuses anything else: without that structure the eigenpair may not
    exist at all, so no answer is fabricated.
    """
    cfg = cfg or SolverConfig()
    report = classify(A.standard, cfg.rho)
    if not report.nonnegative:
        raise StructureViolation("standard part not nonnegative")
    if not report.irreducible:
        raise StructureViolation("standard part reducible")

    n = A.n
    rho = cfg.rho
    B = DualMatrix(A.standard + rho * np.eye(n), A.dual)
    norm_a = frn_norm(A)
    tol_full = norm_a * cfg.delta1
    tol_standard = norm_a * cfg.delta2

    if cfg.x0 is None:
        x = DualVector(np.ones(n), np.zeros(n))
    else:
        if cfg.x0.n != n:
            raise DimensionMismatch(f"x0 has length {cfg.x0.n}, matrix is {n}x{n}")
        if np.any(cfg.x0.standard <= 0.0):
            raise NonPositiveIterate("x0 must have a strictly positive standard part")
        x = cfg.x0

    y = matvec(B, x)
    lo_raw, hi_raw = _ratio_bounds(y, x)
    lower = [_deshift(lo_raw, rho)]
    upper = [_deshift(hi_raw, rho)]
    trace = [_trace_record(0, lower[0], upper[0], _residual_frn(y, lo_raw, x))]

    flag = Flag.NOT_CONVERGED
    eigenvalue = None
    eigenvector = None
    iterations = cfg.k_max

    for k in range(1, cfg.k_max + 1):
        # The bounds for the iterate x^(k) = y/||y|| are scale-invariant,
        # so they are evaluated on the unnormalized pair (y, By): exact
        # ties survive that way, which the per-component rounding of the
        # normalized iterate would break by an ulp.
        z = matvec(B, y)
        lo_raw, hi_raw = _ratio_bounds(z, y)
        x = normalize(y)
        if np.any(x.standard <= 0.0):
            # Unreachable for admissible B; guards against caller misuse.
            raise NonPositiveIterate(f"iterate lost positivity at k={k}")
        y = _rescale_product(z, y)
        lower.append(_deshift(lo_raw, rho))
        upper.append(_deshift(hi_raw, rho))
        trace.append(_trace_record(k, lower[-1], upper[-1], _residual_frn(y, lo_raw, x)))

        gap = hi_raw - lo_raw
        if math.hypot(gap.standard, gap.dual) <= tol_full:
            flag = Flag.CONVERGED_FULL
            eigenvalue = _deshift(lo_raw, rho)
            eigenvector = x
            iterations = k
            break
        if abs(gap.standard) <= tol_standard:
            flag = Flag.CONVERGED_STANDARD
            lambda_s = lo_raw.standard - rho
            xs = x.standard / np.linalg.norm(x.standard)
            lambda_d, xd = solve_dual_part(A, lambda_s, xs)
            eigenvalue = DualNumber(lambda_s, lambda_d)
            eigenvector = DualVector(xs, xd)
            iterations = k
            break

    residual = None
    if flag != Flag.NOT_CONVERGED:
        residual = eigen_residual(A, eigenvalue, eigenvector)

    return PerronResult(
        flag=flag,
        eigenvalue=eigenvalue,
        eigenvector=eigenvector,
        lower=lower,
        upper=upper,
        iterations=iterations,
        residual=residual,
        trace=trace,
    )


def _trace_record(k: int, lo: DualNumber, hi: DualNumber, residual: float) -> TraceRecord:
    gap = hi - lo
    return TraceRecord(
        k=k,
        lower_s=lo.standard,
        lower_d=lo.dual,
        upper_s=hi.standard,
        upper_d=hi.dual,
        gap_frn=math.hypot(gap.standard, gap.dual),
        residual_frn=residual,
    )
