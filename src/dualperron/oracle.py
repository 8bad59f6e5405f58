"""Small-scale independent verification of computed eigenpairs.

The iteration in :mod:`dualperron.solver` is checked against three
independent routes: a dense spectrum of the standard part, the left/right
eigenvector formula for the dual part, and a central finite difference of
the spectral radius along the dual direction. It reads dense arrays,
through ``linalg``'s shape check and norm, and finds each right/left
eigenvector pair by one routine (``_eigenpair``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositivePerronVector, TooLarge
from .linalg import DualMatrix, _norm, _square

__all__ = [
    "SpectrumReport",
    "spectrum",
    "lambda_d_oracle",
    "fd_check",
    "dual_part_at",
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
    if abs(eigenvalues[idx] - target) > 1e-6 * scale:
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


def spectrum(a_s) -> SpectrumReport:
    """Dense eigensolve of a real square matrix, n <= 200.

    Identifies the positive simple dominant eigenvalue together with
    strictly positive right and left eigenvectors; raises
    NoPositivePerronVector when the input does not have them (e.g. a
    reducible pattern).
    """
    arr = _square(a_s)
    n = arr.shape[0]
    if n > SPECTRUM_MAX_N:
        raise TooLarge(f"dense spectrum limited to n <= {SPECTRUM_MAX_N}, got {n}")

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
    simple roots as well.
    """
    *_, x, y = _eigenpair(A.standard, mu_s)
    denom = y @ x  # of unit vectors, whatever the scale of A
    if abs(denom) <= 1e-12:
        raise NoPositivePerronVector(f"left/right eigenvectors at {mu_s} are orthogonal")
    return complex((y @ (A.dual @ x)) / denom)
