"""Small-scale independent verification of computed eigenpairs.

The iteration in :mod:`dualperron.solver` is checked against three
independent routes: a dense spectrum of the standard part (``spectrum``),
the left/right eigenvector formula for the dual part (``lambda_d_oracle``),
and a central finite difference of the spectral radius along the dual
direction (``fd_check``). ``verify`` runs all three on a candidate
eigenvalue and gives the verdict; its tolerances live nowhere else.
``spectrum`` and ``dual_part_at`` read a part through ``linalg``'s part
helpers, the ones ``classify`` and ``solve``'s gate use: ``_square`` for
the shape, ``_dense`` for the array (only after the n <= 200 guard,
``_guarded_dense``) and ``_require_finite`` for its entries. The module
finds each right/left eigenvector pair by one routine (``_eigenpair``) and
takes its norms by ``_norm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualNumber
from .errors import NoPositivePerronVector, TooLarge
from .linalg import DualMatrix, _dense, _norm, _require_finite, _square
from .solver import Flag, SolverConfig, _input_norm

__all__ = [
    "SpectrumReport",
    "spectrum",
    "lambda_d_oracle",
    "fd_check",
    "dual_part_at",
    "verify",
]

SPECTRUM_MAX_N = 200


@dataclass
class SpectrumReport:
    """Dense spectrum of a standard part with its dominant eigenpair.

    ``right_vector`` and ``left_vector`` are strictly positive unit-norm
    real vectors.
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    perron_index: int
    right_vector: np.ndarray
    left_vector: np.ndarray


def _positive_real_vector(vec: np.ndarray) -> np.ndarray:
    # eig returns unit eigenvectors, so the imaginary part is compared as is
    if np.max(np.abs(vec.imag)) > 1e-8:
        raise NoPositivePerronVector("dominant eigenvector is not real")
    v = vec.real.copy()
    v *= np.sign(v[np.argmax(np.abs(v))]) or 1.0
    if v.min() <= 0.0:
        raise NoPositivePerronVector("dominant eigenvector is not strictly positive")
    return v / np.linalg.norm(v)


def _match_index(eigenvalues: np.ndarray, target: complex, scale: float) -> int:
    idx = int(np.argmin(np.abs(eigenvalues - target)))
    if not abs(eigenvalues[idx] - target) <= 1e-6 * scale:  # a NaN target matches none
        raise NoPositivePerronVector(
            f"no eigenvalue near {target}; closest is {eigenvalues[idx]}"
        )
    return idx


def _eigenpair(arr: np.ndarray, target=None):
    """``(w, r, i, x, y)``: the eigenvalues w of arr, their largest modulus r, the index i
    of the one nearest ``target`` (r if None), and unit right and left eigenvectors of w[i]."""
    w, v = np.linalg.eig(arr)
    scale = float(np.max(np.abs(w)))
    i = _match_index(w, scale if target is None else target, scale)
    wl, u = np.linalg.eig(arr.T)
    return w, scale, i, v[:, i], u[:, _match_index(wl, w[i], scale)]


def _guarded_dense(a) -> np.ndarray:
    """An array or a stored part as its dense array, refused (``TooLarge``)
    above n = SPECTRUM_MAX_N before any n x n array is built."""
    part = _square(a)
    n = part.shape[0]
    if n > SPECTRUM_MAX_N:
        raise TooLarge(f"dense spectrum limited to n <= {SPECTRUM_MAX_N}, got {n}")
    return _dense(part)


def spectrum(a_s) -> SpectrumReport:
    """Dense eigensolve of a real square matrix, n <= 200.

    ``a_s`` is an array or a stored part; the size guard runs before the
    part is made dense, and a NaN or inf entry is refused (``ValueError``)
    as ``DualMatrix`` refuses it. Identifies the positive simple dominant
    eigenvalue together with strictly positive right and left eigenvectors;
    raises NoPositivePerronVector when the input does not have them (e.g. a
    reducible pattern).
    """
    arr = _guarded_dense(a_s)
    _require_finite(arr)

    w, rho, perron, right, left = _eigenpair(arr)
    # The dominant value must be a simple root for the dual part to be
    # well defined.
    others = np.abs(w - w[perron])
    others[perron] = np.inf
    if others.min() <= 1e-7 * rho:
        raise NoPositivePerronVector("dominant eigenvalue is not a simple root")

    return SpectrumReport(
        eigenvalues=w,
        spectral_radius=rho,
        perron_index=perron,
        right_vector=_positive_real_vector(right),
        left_vector=_positive_real_vector(left),
    )


def lambda_d_oracle(A: DualMatrix, report: SpectrumReport) -> float:
    """Dual part of the dominant eigenvalue: y.(A_d x) / (y.x).

    Invariant under any positive rescaling of the two eigenvectors.
    """
    x, y = report.right_vector, report.left_vector
    return float(y @ (A.dual @ x)) / float(y @ x)


def _dominant_branch(matrix: np.ndarray, anchor: float) -> float:
    """Real part of the eigenvalue closest to the unperturbed dominant root."""
    w = np.linalg.eigvals(matrix)
    return float(w[np.argmin(np.abs(w - anchor))].real)


def fd_check(A: DualMatrix, report: SpectrumReport) -> float:
    """|finite difference - eigenvector formula| for the dual part.

    The dual part equals the derivative of the dominant positive root of
    ``A_s + t*A_d`` at t = 0. The root is followed as the eigenvalue
    nearest the unperturbed one: for periodic patterns other eigenvalues
    share its modulus, so a max-modulus spectral radius would fold the
    difference. The step ``t = 1e-6 * ||A_s||_F / ||A_d||_F`` gives ``t*A_d``
    the norm ``1e-6*||A_s||`` whatever the units of ``A_d``: well above the
    eigensolver's round-off, which scales with ``||A_s||``, and small enough
    for the truncation. The norms are ``linalg._norm``'s, free of underflow.
    """
    norm_s, norm_d = _norm(A.standard), _norm(A.dual)
    # with a zero part the eigenvalues of A_s + t*A_d are linear in t: any step is exact
    t = 1e-6 * (norm_s / norm_d) if norm_s and norm_d else 1e-6
    rho_plus = _dominant_branch(A.standard + t * A.dual, report.spectral_radius)
    rho_minus = _dominant_branch(A.standard - t * A.dual, report.spectral_radius)
    fd = (rho_plus - rho_minus) / (2.0 * t)
    return abs(fd - lambda_d_oracle(A, report))


def dual_part_at(A: DualMatrix, mu_s: complex) -> complex:
    """Dual part paired with the simple eigenvalue of A_s closest to mu_s.

    Uses the bilinear left/right eigenvector quotient y^T A_d x / (y^T x)
    with plain (unconjugated) transposes, which is valid for complex
    simple roots as well. Like ``spectrum``, refused (``TooLarge``) above
    n = 200 before A_s is made dense.
    """
    *_, x, y = _eigenpair(_guarded_dense(A._parts[0]), mu_s)
    denom = y @ x  # of unit vectors, whatever the scale of A
    if abs(denom) <= 1e-12:
        raise NoPositivePerronVector(f"left/right eigenvectors at {mu_s} are orthogonal")
    return complex((y @ (A.dual @ x)) / denom)


def verify(A: DualMatrix, lam: DualNumber, delta1: float, flag: Flag = Flag.CONVERGED_FULL,
           delta2: float = SolverConfig.delta2) -> dict:
    """The verdict on a candidate dual eigenvalue ``lam`` of A, found by a
    solve with tolerances ``delta1`` and ``delta2`` that stopped at ``flag``:
    a record of the oracle's values, the distances of ``lam`` from them,
    the finite-difference discrepancy and ``"verdict"``, ``"pass"`` or
    ``"fail"``. ``spectrum``'s n <= 200 guard runs before any n x n array
    is built.

    With ``s_d = |lambda_d| + ||A_d||_F`` and ``slack = delta*||A||_FR``,
    ``lam`` passes when ``|d lambda_s| <= slack + 1e-8*rho``,
    ``|d lambda_d| <= slack + 1e-6*s_d`` and the discrepancy is at most
    ``1e-5*s_d``. The slack is what the stop promised: ``delta = delta1``
    at flag 1, where the full bound gap closed to ``delta1*||A||_FR``, and
    ``delta = max(delta1, delta2)`` at flag 2, where only the standard gap
    closed, to ``delta2*||A||_FR``. The eigenvector formula and the finite
    difference carry their own error, relative to what each bounds, so a
    rescaled A keeps its verdict. The tolerances must be ones ``solve``
    accepts: a value ``SolverConfig`` refuses (not positive and finite; at
    inf the slack would pass any answer) raises its ``ValueError`` here too.
    An A whose ``||A||_FR`` overflows is refused with ``solve``'s
    ``NonPositiveIterate``, as ``solve`` refuses it: the slack would be inf
    and pass any answer.
    """
    SolverConfig(delta1=delta1, delta2=delta2)
    report = spectrum(A._parts[0])
    lam_d_ref = lambda_d_oracle(A, report)
    fd = fd_check(A, report)
    delta_s = abs(lam.standard - report.spectral_radius)
    delta_d = abs(lam.dual - lam_d_ref)
    slack = (max(delta1, delta2) if flag == Flag.CONVERGED_STANDARD else delta1) * _input_norm(A)
    scale_d = abs(lam_d_ref) + _norm(A.dual)
    ok = (delta_s <= slack + 1e-8 * report.spectral_radius
          and delta_d <= slack + 1e-6 * scale_d and fd <= 1e-5 * scale_d)
    return {
        "solver_lambda_s": lam.standard,
        "oracle_rho": report.spectral_radius,
        "delta_lambda_s": delta_s,
        "solver_lambda_d": lam.dual,
        "oracle_lambda_d": lam_d_ref,
        "delta_lambda_d": delta_d,
        "fd_discrepancy": fd,
        "verdict": "pass" if ok else "fail",
    }
