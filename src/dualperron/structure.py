"""Classification of the real standard part of a dual matrix.

Irreducibility is strong connectivity of the positivity-pattern digraph
(edge i -> j when a_ij > 0); the period is the gcd of all directed cycle
lengths; a primitive matrix is an irreducible one with period 1.
``classify``, ``wielandt_check`` and ``solve``'s gate read an array or a
part as ``DualMatrix`` stores it, dense or as nonzeros, only through
``linalg``'s part helpers: ``_square`` for the shape, ``_lowest`` for
nonnegativity (a NaN entry fails it), and ``_reach``, ``_values`` and
``_dense`` for the entries. ``classify`` and the gate cost
O(nnz) on nonzeros and build no n x n array; ``wielandt_check`` builds its
n <= 64 pattern from ``_dense``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructureViolation, TooLarge
from .linalg import _dense, _lowest, _reach, _square, _values

__all__ = ["StructureReport", "classify", "wielandt_check"]

WIELANDT_MAX_N = 64


@dataclass(frozen=True)
class StructureReport:
    """Pattern classification plus contraction-rate constants.

    ``period`` is defined only for irreducible input. ``beta``, ``mu_bar``
    and ``alpha`` are the per-step contraction constants of the shifted
    iteration, defined only for weakly positive input with beta > 0 and a
    finite mu_bar; they satisfy 0 < beta <= mu_bar and alpha = 1 - beta/mu_bar,
    which lies in [0, 1] once rounded: when beta/mu_bar is below half an ulp
    of 1 (beta = 1e-20, mu_bar = 1e20), alpha rounds to 1.
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


def _bfs_levels(reach, n: int) -> np.ndarray:
    """BFS levels from vertex 0 under the one-step `reach`; -1 marks unreachable.

    Level-synchronous over whole frontiers, so the work is one `reach` per
    level; it stops once all are reached.
    """
    levels = np.full(n, -1, dtype=int)
    frontier = np.zeros(n, dtype=bool)
    frontier[0] = True
    levels[0] = 0
    depth = 0
    while frontier.any() and (levels < 0).any():
        depth += 1
        newly = reach(frontier) & (levels < 0)
        levels[newly] = depth
        frontier = newly
    return levels


def _irreducible_levels(n: int, reach, reach_back) -> np.ndarray | None:
    """BFS levels from vertex 0 when the pattern is irreducible, else None.

    Irreducible means strongly connected: every vertex is reached from 0
    along the edges (`reach`) and along the reversed edges (`reach_back`).
    A 1x1 pattern is irreducible exactly when its one entry is an edge.
    """
    if n == 1:
        return np.zeros(1, dtype=int) if reach(np.ones(1, dtype=bool))[0] else None
    fwd = _bfs_levels(reach, n)
    if (fwd < 0).any() or (_bfs_levels(reach_back, n) < 0).any():
        return None
    return fwd


def _require_irreducible_nonnegative(part) -> None:
    """Raise ``StructureViolation`` unless ``part`` is irreducible nonnegative.

    The gate ``solve`` runs in place of :func:`classify`: the minimum and
    the two BFS passes over the positive entries, and none of the period or
    rate constants. On a dense part each BFS level reads only the rows and
    columns of its frontier; on nonzeros it costs O(nnz).
    """
    if not _lowest(part) >= 0.0:
        raise StructureViolation("standard part not nonnegative")
    if _irreducible_levels(part.shape[0], _reach(part), _reach(part, back=True)) is None:
        raise StructureViolation("standard part reducible")


def _period(reach, levels: np.ndarray) -> int:
    # gcd of l(u) + 1 - l(v) over edges u -> v; BFS guarantees the values
    # are nonnegative, and strong connectivity guarantees a positive one.
    # Grouping edges by source level needs no per-edge index arrays and
    # exits as soon as the gcd collapses to 1.
    g = 0
    for du in range(int(levels.max()) + 1):
        reached = reach(levels == du)
        if reached.any():
            g = int(np.gcd.reduce(np.append(du + 1 - levels[reached], g)))
            if g == 1:
                return 1
    return g


def classify(a_s, rho: float = 1.0) -> StructureReport:
    """Classify a real square matrix and derive shifted-rate constants.

    ``a_s`` is an array or a stored part (``A._parts[0]``, module
    docstring). The rate constants describe the iteration on the shifted
    matrix ``a_s + rho*I``; ``rho`` must be positive and finite.
    """
    part = _square(a_s)
    rho = float(rho)
    if not 0.0 < rho < math.inf:
        raise ValueError(f"shift rho must be positive and finite, got {rho}")
    n = part.shape[0]

    lowest = _lowest(part)  # NaN if any entry is NaN, which fails both tests
    nonnegative = lowest >= 0.0
    positive = lowest > 0.0
    reach = _reach(part)
    levels = _irreducible_levels(n, reach, _reach(part, back=True))
    irreducible = levels is not None
    period = _period(reach, levels) if irreducible else None
    if n == 1:
        off_min = math.inf  # no off-diagonal entries
    elif _values(part).size < n * (n - 1):  # any nonzeros part: an unstored off-diagonal 0
        off_min = 0.0
    else:
        # Row r of this view holds the n entries that follow a_rr in
        # row-major order, that is every off-diagonal entry exactly once.
        off_min = float(_dense(part).reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].min())
    weakly_positive = off_min > 0.0
    primitive = bool(irreducible and period == 1)

    beta = mu_bar = alpha = None
    if weakly_positive:  # a dense part, or n = 1
        lowest_rate = min(off_min, float(np.min(np.diag(_dense(part)))) + rho)
        with np.errstate(over="ignore"):  # an overflowing row sum reports no rates
            highest_rate = rho + float(np.max(_dense(part).sum(axis=1)))
        if lowest_rate > 0.0 and math.isfinite(highest_rate):
            beta, mu_bar = lowest_rate, highest_rate
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
    it serves as a cross-check for the graph-based flags. ``a_s`` is an
    array or a stored part, read as ``classify`` reads it; a negative or
    NaN entry is refused (``ValueError``), as ``solve``'s gate refuses it.
    Guarded to n <= 64.
    """
    part = _square(a_s)
    if not _lowest(part) >= 0.0:
        raise ValueError("pattern power test requires a nonnegative matrix")
    n = part.shape[0]
    if n > WIELANDT_MAX_N:
        raise TooLarge(f"pattern power test limited to n <= {WIELANDT_MAX_N}, got {n}")
    power = _bool_matpow(_dense(part) > 0.0, (n - 1) ** 2 + 1)
    return bool(power.all())
