"""Classification of the real standard part of a dual matrix.

Irreducibility is strong connectivity of the positivity-pattern digraph
(edge i -> j when a_ij > 0); the period is the gcd of all directed cycle
lengths; a primitive matrix is an irreducible one with period 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSquare, TooLarge

__all__ = ["StructureReport", "classify", "wielandt_check"]

WIELANDT_MAX_N = 64


@dataclass(frozen=True)
class StructureReport:
    """Pattern classification plus contraction-rate constants.

    ``period`` is defined only for irreducible input. ``beta``, ``mu_bar``
    and ``alpha`` are the per-step contraction constants of the shifted
    iteration and are defined only for weakly positive input; they satisfy
    0 < beta <= mu_bar and alpha = 1 - beta/mu_bar in [0, 1).
    """

    nonnegative: bool
    irreducible: bool
    period: int | None
    primitive: bool
    weakly_positive: bool
    positive: bool
    beta: float | None = None
    mu_bar: float | None = None
    alpha: float | None = None


def _bfs_levels(pattern: np.ndarray, start: int) -> np.ndarray:
    """BFS levels from `start` over boolean adjacency; -1 marks unreachable.

    Level-synchronous over whole frontiers, so the work is O(n) numpy ops
    per level and O(n^2) total on dense input.
    """
    n = pattern.shape[0]
    levels = np.full(n, -1, dtype=int)
    frontier = np.zeros(n, dtype=bool)
    frontier[start] = True
    levels[start] = 0
    depth = 0
    while frontier.any():
        depth += 1
        newly = pattern[frontier].any(axis=0) & (levels < 0)
        levels[newly] = depth
        frontier = newly
    return levels


def _period(pattern: np.ndarray, levels: np.ndarray) -> int:
    # gcd of l(u) + 1 - l(v) over edges u -> v; BFS guarantees the values
    # are nonnegative, and strong connectivity guarantees a positive one.
    # Grouping edges by source level needs no per-edge index arrays and
    # exits as soon as the gcd collapses to 1.
    g = 0
    for du in range(int(levels.max()) + 1):
        reached = pattern[levels == du].any(axis=0)
        if reached.any():
            g = int(np.gcd.reduce(np.append(du + 1 - levels[reached], g)))
            if g == 1:
                return 1
    return g


def classify(a_s, rho: float = 1.0) -> StructureReport:
    """Classify a real square matrix and derive shifted-rate constants.

    The rate constants describe the iteration on the shifted matrix
    ``a_s + rho*I`` and assume ``rho > 0``.
    """
    arr = np.asarray(a_s, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NotSquare(f"expected a nonempty square matrix, got shape {arr.shape}")
    rho = float(rho)
    n = arr.shape[0]

    lowest = arr.min()  # NaN if any entry is NaN, which fails both tests
    nonnegative = bool(lowest >= 0.0)
    positive = bool(lowest > 0.0)
    pattern = arr > 0.0

    if n == 1:
        irreducible = bool(pattern[0, 0])
        period = 1 if irreducible else None
        off_min = math.inf  # no off-diagonal entries
    else:
        fwd = _bfs_levels(pattern, 0)
        bwd = _bfs_levels(pattern.T, 0)
        irreducible = bool(np.all(fwd >= 0) and np.all(bwd >= 0))
        period = _period(pattern, fwd) if irreducible else None
        # Row r of this view holds the n entries that follow a_rr in
        # row-major order, that is every off-diagonal entry exactly once.
        off_min = float(arr.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].min())
    weakly_positive = off_min > 0.0
    primitive = bool(irreducible and period == 1)

    beta = mu_bar = alpha = None
    if weakly_positive:
        beta = min(off_min, float(np.min(np.diag(arr))) + rho)
        mu_bar = rho + float(np.max(arr.sum(axis=1)))
        alpha = 1.0 - beta / mu_bar

    return StructureReport(
        nonnegative=nonnegative,
        irreducible=irreducible,
        period=period,
        primitive=primitive,
        weakly_positive=weakly_positive,
        positive=positive,
        beta=beta,
        mu_bar=mu_bar,
        alpha=alpha,
    )


def _bool_matpow(pattern: np.ndarray, exponent: int) -> np.ndarray:
    result = np.eye(pattern.shape[0], dtype=bool)
    base = pattern.copy()
    e = exponent
    while e > 0:
        if e & 1:
            result = (result.astype(np.uint8) @ base.astype(np.uint8)) > 0
        base = (base.astype(np.uint8) @ base.astype(np.uint8)) > 0
        e >>= 1
    return result


def wielandt_check(a_s) -> bool:
    """Primitivity by brute force: is the ((n-1)^2 + 1)-th pattern power full?

    Runs in boolean pattern arithmetic; independent of :func:`classify`, so
    it serves as a cross-check for the graph-based flags. Guarded to
    n <= 64.
    """
    arr = np.asarray(a_s, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {arr.shape}")
    if np.any(arr < 0.0):
        raise ValueError("pattern power test requires a nonnegative matrix")
    n = arr.shape[0]
    if n > WIELANDT_MAX_N:
        raise TooLarge(f"pattern power test limited to n <= {WIELANDT_MAX_N}, got {n}")
    power = _bool_matpow(arr > 0.0, (n - 1) ** 2 + 1)
    return bool(power.all())
