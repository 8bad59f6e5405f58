"""Shifted Collatz iteration for dual Perron / Perron-Frobenius eigenpairs.

For a dual matrix whose standard part is irreducible nonnegative, the
dominant eigenpair is computed by power-like iteration with a shift,
``x_(k+1) = (A + rho_k*I) x_k / ||.||`` (``rho_k > 0`` forces primitivity,
hence convergence). The loop carries the pair ``(x, A x)``: one dual
product ``A (A x)`` per step gives the image of every shifted candidate
``y = A x + rho*x`` as ``A y = A (A x) + rho*(A x)`` in O(n). Each iterate
yields A's own minimax ratio bounds

    lower_k = min_i (Ax)_i / x_i,   upper_k = max_i (Ax)_i / x_i

as dual numbers under the lexicographic order. For any ``rho_k >= 0``,
``A x_(k+1) = (A + rho_k I) A x_k >= lower_k x_(k+1)``, so in exact
arithmetic the lower sequence is nondecreasing, the upper nonincreasing,
and both sandwich the eigenvalue whatever the shift. The carried ``A x``
drifts from ``fl(A x)`` by rounding, so in floating point a bound can move
back by about one ulp (seen on non-dyadic scalings of ex53).

By default ``rho_k = 2^(e+j)``, where ``lower_(k-1) = f*2^e`` with f in
[0.5, 1), and ``j`` in [-12, 1] minimises the next full bound gap; a tie
goes to the smallest shift. Powers of two keep exact ties, and keep the
solve exactly equivariant under scaling A by a power of two. The grid
ends at j = 1, measured on ex53: ending at 0 doubles the steps at
n = 1000, and ending at 4 lets a bound move back by one ulp at n = 100.
``SolverConfig.rho`` fixes ``rho_k`` instead.

Below ``_PROBE_MIN_N``, where numpy's cost per call outweighs the O(n)
work, and at a fixed shift, the search (``_shift_search``) evaluates
every row in full in one batch. From it on, it prunes the grid without
changing its answer. A row's full gap ``hypot(g_s, g_d)`` is at least
its standard gap g_s, and g_s, a max minus a min over the row's
quotients, is at least the max minus the min over any of them. So each
row gets a lower bound from its quotients at four probe entries, the
argmin and argmax of ``a_s/x_s`` (the limit rho -> inf) and of
``b_s/a_s`` (rho -> 0), formed by the row's own operations, so that
rounding, being monotone, keeps the bound at or below the computed g_s.
Rows are evaluated in full in the order of their bounds until a bound
exceeds the least full gap so far; no row left can then win or tie. The
least full gap, first of ties, is the one the whole grid gives, by the
same operations, so the shift, the bounds and the trace are bit for bit
those of the batch. A row whose quotients leave the double range raises
where it is evaluated, so near overflow a refusal from n =
``_PROBE_MIN_N`` on depends on the rows evaluated. On ex51-ex53 at
n = 2000, 1.4 to 1.8 rows a step are evaluated.

Convergence is flagged three ways: 1 when the dual-number gap closed to
``delta1`` (relative to the F^R-norm of A), 2 when only the standard parts
closed to ``delta2``, 0 when the iteration budget ran out. At flags 1 and 2
the eigenvector is the loop's own iterate, and the dual part of the
eigenvalue is ``w A_d x / w x``. ``_left_vector`` certifies w at the stop,
stepping ``w <- w (A_s + rho I)`` from ``x_s`` until w's own Collatz gap
meets the loop's tolerance: at once where A_s's left and right Perron
vectors coincide, as for a symmetric A_s. A stop whose eigenpair misses
the residual limit is not returned: the loop steps on and tests again at
each later stop, and refuses the solve only when the budget runs out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import cached_property

import numpy as np

from .dual import DualNumber
from .errors import NonPositiveIterate, NonPositiveVector, RankDeficient
from .linalg import (
    DualMatrix,
    DualVector,
    _dual_product,
    _row_sums,
    frn_norm,
    matvec,
)
from .structure import _require_irreducible_nonnegative

__all__ = [
    "Flag",
    "SolverConfig",
    "TraceRecord",
    "PerronResult",
    "solve",
    "solve_dual_part",
    "row_sum_bounds",
    "minimax_ratios",
    "eigen_residual",
]

# solve returns no eigenpair whose residual exceeds this times ||A||_FR; it
# refuses (RankDeficient) a solve whose budget runs out after such a stop
RESIDUAL_RTOL = 1e-7


class Flag(IntEnum):
    NOT_CONVERGED = 0
    CONVERGED_FULL = 1
    CONVERGED_STANDARD = 2


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, stopping tolerances and shift.

    ``delta1`` stops on the full dual-number bound gap, ``delta2`` on the
    standard parts alone; both are relative to the F^R-norm of the input.
    ``rho`` fixes the shift at every step; ``None`` picks it per step from
    the iterate's bounds (module docstring). The start is the all-ones
    vector with zero dual part.
    """

    k_max: int = 2000
    delta1: float = 1e-8
    delta2: float = 1e-12
    rho: float | None = None

    def __post_init__(self):
        if isinstance(self.k_max, bool) or not isinstance(self.k_max, numbers.Integral):
            raise ValueError(f"k_max must be an integer, got {self.k_max!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not (0.0 < self.delta1 < math.inf and 0.0 < self.delta2 < math.inf):
            raise ValueError("delta1 and delta2 must be positive and finite")
        if self.rho is not None and not 0.0 < self.rho < math.inf:
            raise ValueError(f"shift rho must be positive and finite, got {self.rho}")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration record: A's bounds, their gap and the residual of the
    unit iterate (k = 0 included), in F^R."""

    k: int
    lower_s: float
    lower_d: float
    upper_s: float
    upper_d: float
    gap_frn: float
    residual_frn: float


TRACE_FIELDS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class PerronResult:
    """Outcome of one solve.

    ``eigenvalue`` / ``eigenvector`` / ``residual`` are populated only for
    flags 1 and 2, with the residual then at most ``RESIDUAL_RTOL*||A||_FR``.
    The eigenvector is a unit dual vector (unit standard part orthogonal to
    the dual part). ``trace`` is the one record of the bounds, one entry per
    k including k = 0; ``lower`` and ``upper`` are views of it as dual
    numbers, built on first access. ``shifts`` holds the shift ``rho_k`` of
    each step k >= 1.
    """

    flag: Flag
    eigenvalue: DualNumber | None
    eigenvector: DualVector | None
    iterations: int
    residual: float | None
    trace: list[TraceRecord]
    shifts: list[float]

    @cached_property
    def lower(self) -> list[DualNumber]:
        return [DualNumber(r.lower_s, r.lower_d) for r in self.trace]

    @cached_property
    def upper(self) -> list[DualNumber]:
        return [DualNumber(r.upper_s, r.upper_d) for r in self.trace]


def _lex_extremes(std: np.ndarray, dl: np.ndarray):
    """Lexicographic min and max of the pairs (std_i, dl_i) along the last
    axis, as ``(lo_s, lo_d, hi_s, hi_d)`` arrays over the leading axes."""
    lo_s = std.min(axis=-1, keepdims=True)
    hi_s = std.max(axis=-1, keepdims=True)
    lo_d = np.where(std == lo_s, dl, np.inf).min(axis=-1)
    hi_d = np.where(std == hi_s, dl, -np.inf).max(axis=-1)
    return lo_s[..., 0], lo_d, hi_s[..., 0], hi_d


def _finite(q: np.ndarray) -> np.ndarray:
    # With y finite and positive, the quotients are finite unless z is not
    # (or a quotient overflows): A y has left the double range.
    if not np.isfinite(q).all():
        raise NonPositiveIterate("product A*y is not finite: it overflows the double range")
    return q


def _dual_quotients(z_d, y_s, y_d, std):
    """The dual parts of the componentwise quotients z_i / y_i, given their
    standard parts ``std = z_s / y_s``."""
    return _finite(z_d / y_s - std * y_d / y_s)


def _bounds(z_s, z_d, y_s, y_d):
    """The Collatz bounds: the lexicographic min and max of the
    componentwise dual quotients z_i / y_i (y_s strictly positive), along
    the last axis, as ``_lex_extremes`` returns them."""
    std = _finite(z_s / y_s)
    return _lex_extremes(std, _dual_quotients(z_d, y_s, y_d, std))


def minimax_ratios(A: DualMatrix, x: DualVector) -> tuple[DualNumber, DualNumber]:
    """min_i and max_i of (Ax)_i / x_i; these sandwich the dominant eigenvalue."""
    if np.any(x.standard <= 0.0):
        raise NonPositiveVector("ratio bounds require a strictly positive standard part")
    z = matvec(A, x)
    with np.errstate(over="ignore", invalid="ignore"):  # a quotient that overflows raises
        lo_s, lo_d, hi_s, hi_d = _bounds(z.standard, z.dual, x.standard, x.dual)
    return DualNumber(float(lo_s), float(lo_d)), DualNumber(float(hi_s), float(hi_d))


def row_sum_bounds(A: DualMatrix) -> tuple[DualNumber, DualNumber]:
    """Smallest and largest dual row sum; these bracket the dominant eigenvalue."""
    with np.errstate(over="ignore", invalid="ignore"):
        ext = [float(e) for e in _lex_extremes(*map(_row_sums, A._parts))]
    if not all(map(math.isfinite, ext)):
        raise NonPositiveIterate("row sums are not finite: they overflow the double range")
    lo_s, lo_d, hi_s, hi_d = ext
    return DualNumber(lo_s, lo_d), DualNumber(hi_s, hi_d)


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

    # m is singular when a diagonal entry of its QR factor R is at most 1e-12 ||m||_F
    pivot = np.abs(np.diag(np.linalg.qr(m, mode="r"))).min()
    if pivot <= 1e-12 * float(np.linalg.norm(m)):
        raise RankDeficient(f"dual-part system singular: smallest pivot {pivot:.3e}")
    z = np.linalg.solve(m, rhs)
    return float(z[n]), z[:n]


def _residual_frn(y_s, y_d, lam, x_s, x_d) -> float:
    # ||y - lam*x||_{F^R} with the vector read as an n-by-1 matrix; lam is
    # a (standard, dual) pair.
    rs = y_s - lam[0] * x_s
    rd = y_d - (lam[0] * x_d + lam[1] * x_s)
    return math.hypot(float(np.linalg.norm(rs)), float(np.linalg.norm(rd)))


def eigen_residual(A: DualMatrix, lam: DualNumber, x: DualVector) -> float:
    """||Ax - lam*x||_{F^R} for a candidate eigenpair; ``inf`` past the
    double range, as ``frn_norm``. ``NonPositiveIterate`` when A x overflows."""
    y = matvec(A, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _residual_frn(y.standard, y.dual, (lam.standard, lam.dual), x.standard, x.dual)


def _trace_record(k: int, lo, hi, residual: float) -> TraceRecord:
    return TraceRecord(k, *lo, *hi, math.hypot(hi[0] - lo[0], hi[1] - lo[1]), residual)


def _input_norm(A: DualMatrix) -> float:
    """||A||_FR, which scales every tolerance on A's eigenvalue;
    ``NonPositiveIterate`` when it overflows the double range."""
    norm_a = frn_norm(A)
    if not math.isfinite(norm_a):
        raise NonPositiveIterate("input F^R-norm is not finite: it overflows the double range")
    return norm_a


# The default shift rho_k = 2^(e+j) tries every j of this grid (module docstring).
_SHIFT_GRID = np.arange(-12, 2)
# From this n on, the search evaluates only the rows its probe bounds leave,
# one at a time; below it one batch of every row costs less, as numpy's cost
# per call outweighs the O(n) work. Measured crossover (whole default solves,
# 1-thread OpenBLAS, 2-vCPU Xeon, medians of 31 alternating runs): the probe
# path takes 0.92/0.79/0.87/1.18x the batch's time on ex51/ex52/ex53/ex54 at
# n = 320 (geometric mean 0.93) and 1.60/0.81/0.97/1.41x at n = 256 (1.16).
# ex54's bounds leave 4-8 rows a step, so the batch stays ahead on it to
# n = 640. The CLI's file and verify sizes (n <= 300) stay on the batch side.
_PROBE_MIN_N = 320


def _candidates(r, x_s, a_s, b_s):
    """The standard parts of the candidates ``y = a + r*x`` of shift r (a
    scalar, or a column of one shift per row), of their images
    ``z = b + r*a``, and the quotients ``z_s / y_s``."""
    y_s, z_s = a_s + r * x_s, b_s + r * a_s
    return y_s, z_s, z_s / y_s


def _full_gaps(r, x_s, x_d, a_s, a_d, b_s, b_d):
    """The full bound gaps ``hypot(g_s, g_d)`` of the candidates of shift r
    (as ``_candidates``), with their bounds (``_lex_extremes``), the
    candidates ``y`` and their images ``z``, as
    ``(gaps, ext, y_s, y_d, z_s, z_d)``."""
    y_s, z_s, std = _candidates(r, x_s, a_s, b_s)
    y_d, z_d = a_d + r * x_d, b_d + r * a_d
    # a quotient that is not finite makes its dual quotient so, which raises
    ext = _lex_extremes(std, _dual_quotients(z_d, y_s, y_d, std))
    return np.hypot(ext[2] - ext[0], ext[3] - ext[1]), ext, y_s, y_d, z_s, z_d


def _shift_search(rhos, x_s, x_d, a_s, a_d, b_s, b_d):
    """The shift of ``rhos`` whose candidate ``y = a + rho*x`` has the least
    full bound gap, the first of tied gaps (the smallest shift), as
    ``(row, y_s, y_d, z_s, z_d, lo, hi)``: its index, the candidate, its
    image ``z = A y = b + rho*a`` and its bounds as (standard, dual) pairs.

    From ``_PROBE_MIN_N`` on, only the rows that can win are evaluated
    (module docstring); the answer is the one evaluating every row gives,
    bit for bit."""
    state = (x_s, x_d, a_s, a_d, b_s, b_d)
    if rhos.size > 1 and x_s.size >= _PROBE_MIN_N:
        # every row's quotients at four probe entries, by the row's own
        # operations: their max minus their min is at most its standard gap
        u, v = a_s / x_s, b_s / a_s
        p = [u.argmin(), u.argmax(), v.argmin(), v.argmax()]
        q = _candidates(rhos[:, None], x_s[p], a_s[p], b_s[p])[2]
        bound = _finite(q.max(axis=1) - q.min(axis=1))
        best = (math.inf, rhos.size)  # (full gap, row) of the least so far
        for i in np.argsort(bound, kind="stable").tolist():
            if bound[i] > best[0]:
                break  # hypot(g_s, g_d) >= g_s >= bound: no row left can win or tie
            gap, ext, *cand = _full_gaps(rhos[i], *state)
            if (gap, i) < best[:2]:
                best = (gap, i, ext, cand)
        _, row, ext, cand = best
    else:
        gaps, ext, *cand = _full_gaps(rhos[:, None], *state)
        row = int(np.argmin(gaps))  # the first of tied gaps, as rows ascend
        ext, cand = [e[row] for e in ext], [c[row] for c in cand]
    lo_s, lo_d, hi_s, hi_d = map(float, ext)
    return (row, *cand, (lo_s, lo_d), (hi_s, hi_d))


def _left_vector(A_s, w, rho: float, tol: float, k_max: int) -> np.ndarray:
    """From w > 0, the left step ``w <- w (A_s + rho I)`` until w's Collatz gap
    ``max_i (w A_s)_i / w_i - min_i (w A_s)_i / w_i`` is at most tol: a certified
    left Perron vector of the stored part A_s. ``RankDeficient`` after k_max steps."""
    for _ in range(k_max):
        c = w @ A_s
        if np.ptp(_finite(c / w)) <= tol:
            return w
        w = c + rho * w
        w = w / math.ldexp(1.0, math.frexp(float(w.max()))[1])  # exact: w's quotients stay
    raise RankDeficient(f"left Perron vector not certified within k_max={k_max} left steps")


def solve(A: DualMatrix, cfg: SolverConfig | None = None) -> PerronResult:
    """Dominant eigenpair of a dual matrix with irreducible nonnegative
    standard part.

    Refuses anything else: without that structure the eigenpair may not
    exist at all, so no answer is fabricated.
    """
    cfg = cfg or SolverConfig()
    # Overflow surfaces as a typed error (the finiteness checks below and in
    # _bounds), so numpy's floating-point warnings would only repeat it. An
    # entry of A x that underflows to 0 makes a probe quotient of the shift
    # search infinite, which only picks its probe entries.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A_s, A_d = A._parts  # each in the form its products take (linalg)
        _require_irreducible_nonnegative(A_s)

        n = A.n
        norm_a = _input_norm(A)
        tol_full = norm_a * cfg.delta1
        tol_standard = norm_a * cfg.delta2

        x_s, x_d = np.ones(n), np.zeros(n)
        a_s, a_d = _dual_product(A_s, A_d, x_s, x_d)  # the carried pair a = A x
        lo_s, lo_d, hi_s, hi_d = _bounds(a_s, a_d, x_s, x_d)
        lo, hi = (float(lo_s), float(lo_d)), (float(hi_s), float(hi_d))
        # the residual of the unit start x/||x_s||, as at every later k
        trace = [_trace_record(0, lo, hi, _residual_frn(a_s, a_d, lo, x_s, x_d) / math.sqrt(n))]
        shifts = []
        refused = None  # residual of the last stop that failed the guard

        for k in range(1, cfg.k_max + 1):
            b_s, b_d = _dual_product(A_s, A_d, a_s, a_d)
            # Candidate iterates y = a + rho*x, one row per shift, and their
            # images A y = b + rho*a: O(n) each. Their bounds are those of
            # y/||y||, evaluated unnormalized so that exact ties survive.
            if cfg.rho is None:
                rhos = np.ldexp(1.0, math.frexp(lo[0])[1] + _SHIFT_GRID)
            else:
                rhos = np.array([cfg.rho])
            row, y_s, y_d, z_s, z_d, lo, hi = _shift_search(rhos, x_s, x_d, a_s, a_d, b_s, b_d)
            rho = float(rhos[row])
            shifts.append(rho)
            ns = float(np.linalg.norm(y_s))
            if not 0.0 < ns < math.inf:
                # norm squares before it sums, so it leaves the range before A*y does
                how = "underflowed" if ns == 0.0 else "overflowed"
                raise NonPositiveIterate(f"iterate norm {how} the double range at k={k}")
            # x = y/p and A x = A y/p with p the power of two <= ||y||: exact,
            # so x and A x keep the quotients of y and A y bit for bit (an
            # exact eigenvector stays one). Then the dual part of y along y_s
            # is removed from both, as the dual scalar (1 - q*eps) does.
            p = math.ldexp(0.5, math.frexp(ns)[1])
            nx = ns / p  # ||x_s||, in [1, 2)
            x_s, a_s = y_s / p, z_s / p
            q = float(x_s @ y_d) / p / (nx * nx)
            x_d, a_d = y_d / p - q * x_s, z_d / p - q * a_s
            if np.any(x_s <= 0.0):
                # Unreachable for admissible A; guards against caller misuse.
                raise NonPositiveIterate(f"iterate lost positivity at k={k}")
            # the residual of the unit iterate x/||x_s||
            trace.append(_trace_record(k, lo, hi, _residual_frn(a_s, a_d, lo, x_s, x_d) / nx))

            if trace[-1].gap_frn <= tol_full:
                stop = Flag.CONVERGED_FULL
            elif abs(hi[0] - lo[0]) <= tol_standard:
                stop = Flag.CONVERGED_STANDARD
            else:
                continue
            w = _left_vector(A_s, x_s, rho, tol_full if stop == Flag.CONVERGED_FULL else tol_standard,
                             cfg.k_max)
            u_s, u_d = x_s / nx, x_d / nx  # the unit iterate
            lam = (lo[0], float(w @ (A_d @ u_s)) / float(w @ u_s))
            res = _residual_frn(*_dual_product(A_s, A_d, u_s, u_d), lam, u_s, u_d)
            if not res <= RESIDUAL_RTOL * norm_a:  # also refuses a NaN residual
                # x_d can lag x_s at a stop (the standard gap may close at
                # once, as on ex52 at n=2): keep stepping, and test again.
                refused = res
                continue
            return PerronResult(flag=stop, eigenvalue=DualNumber(*lam),
                                eigenvector=DualVector(u_s, u_d), iterations=k, residual=res,
                                trace=trace, shifts=shifts)

        if refused is not None:
            raise RankDeficient(
                f"residual {refused:.3e} > {RESIDUAL_RTOL:g}*||A||_FR at every stop: delta1/delta2"
                f" are too loose for the budget, or A_s - lambda_s*I is numerically singular")
        return PerronResult(flag=Flag.NOT_CONVERGED, eigenvalue=None, eigenvector=None,
                            iterations=cfg.k_max, residual=None, trace=trace, shifts=shifts)
