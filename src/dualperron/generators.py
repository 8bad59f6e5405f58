"""Built-in test-matrix families.

Six named families cover the interesting structure classes:

* ``ex1``  -- fixed 2x2 with reducible standard part (no eigenvalue exists).
* ``ex2``  -- fixed 2x2 swap pattern, period 2, parametrized dual part.
* ``ex51`` -- star pattern: irreducible, period 2, not weakly positive.
* ``ex52`` -- dense i+j off-diagonal: primitive and weakly positive.
* ``ex53`` -- sparse cycle-plus-spokes: primitive, not weakly positive.
* ``ex54`` -- random positive standard part, Gaussian dual part.

``ex51``..``ex53`` pair their standard part with a Jordan block dual part
(ones on the diagonal and superdiagonal). ``ex54`` draws from the seeded
xorshift64* stream below, so the same spec reproduces the same matrix bit
for bit on any platform.

The star and cycle-plus-spokes standard parts and every Jordan dual part
are built as their nonzeros, in row-major order, about 2n entries each.
``DualMatrix`` keeps them so only where they fill at most n^2/20 entries,
from n = 39 or 40 on, and builds the n x n array of such a part only when
``.standard`` or ``.dual`` is read; below that it holds the dense array
(see ``linalg``). The ``ex52`` standard part and ``ex54`` are dense arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec
from .linalg import DualMatrix, _Nonzeros

__all__ = ["ExampleSpec", "XorShift64Star", "generate", "EXAMPLE_IDS"]

EXAMPLE_IDS = ("ex1", "ex2", "ex51", "ex52", "ex53", "ex54")

_FIXED_SIZE = {"ex1", "ex2"}
_SEEDED = {"ex54"}  # the families whose matrix depends on ExampleSpec.seed


@dataclass(frozen=True)
class ExampleSpec:
    """Recipe for one generated matrix.

    ``params`` feeds the dual part of ``ex2``; ``seed`` selects the random
    stream of ``ex54``; both ignored elsewhere.
    """

    id: str
    n: int = 2
    params: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.id not in EXAMPLE_IDS:
            raise BadSpec(f"unknown example id {self.id!r}; expected one of {EXAMPLE_IDS}")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise BadSpec(f"{name} must be an integer, got {value!r}")
        if self.id in _FIXED_SIZE:
            if self.n != 2:
                raise BadSpec(f"{self.id} is a fixed 2x2 family, got n={self.n}")
        elif self.n < 2:
            raise BadSpec(f"{self.id} requires n >= 2, got n={self.n}")
        if len(self.params) != 4:
            raise BadSpec("params must be four reals (a, b, c, d)")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "seed", int(self.seed))


class XorShift64Star:
    """xorshift64* pseudo-random stream.

    State update: x ^= x >> 12; x ^= x << 25; x ^= x >> 27; the output is
    x * 0x2545F4914F6CDD1D mod 2**64. Uniform doubles take the top 53 bits
    of the output; normals come from those uniforms via Box-Muller (the
    cosine value is returned first, then the cached sine value). A zero
    seed is replaced by 0x9E3779B97F4A7C15 since the all-zero state is a
    fixed point.
    """

    MASK = (1 << 64) - 1
    MULTIPLIER = 0x2545F4914F6CDD1D
    ZERO_SEED = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = int(seed) & self.MASK or self.ZERO_SEED
        self._spare = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & self.MASK
        x ^= x >> 27
        self._state = x
        return (x * self.MULTIPLIER) & self.MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal double (Box-Muller)."""
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        # Shift the first uniform into (0, 1] so the log is finite.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)


def _ones_at(n: int, rows: np.ndarray, cols: np.ndarray) -> _Nonzeros:
    """The n x n 0/1 matrix with ones at the row-major positions (rows, cols)."""
    return _Nonzeros._of(n, rows, cols, np.ones(rows.size))


def _jordan_nonzeros(n: int) -> _Nonzeros:
    # entry k = 0 .. 2n-2 sits at (k // 2, (k + 1) // 2)
    k = np.arange(2 * n - 1)
    return _ones_at(n, k // 2, (k + 1) // 2)


def _pattern_pair(standard) -> DualMatrix:
    # A dense standard part is a fresh, owned float64 array; read-only,
    # DualMatrix adopts it without a copy.
    if isinstance(standard, np.ndarray):
        standard.setflags(write=False)
    return DualMatrix(standard, _jordan_nonzeros(standard.shape[0]))


def _star(n: int) -> _Nonzeros:
    # row 0 holds columns 1..n-1; every later row holds column 0
    spokes = np.arange(1, n)
    return _ones_at(n, np.concatenate([np.zeros(n - 1, dtype=np.intp), spokes]),
                    np.concatenate([spokes, np.zeros(n - 1, dtype=np.intp)]))


def _dense_index_sums(n: int) -> np.ndarray:
    # a[i, j] = (i+1) + (j+1), exact below 2^53, as one copy of a Hankel view:
    # about 3x faster than np.add.outer, which gives the same bits
    a = np.lib.stride_tricks.sliding_window_view(np.arange(2.0, 2 * n + 1), n).copy()
    np.fill_diagonal(a, 0.0)
    return a


def _cycle_spokes(n: int) -> _Nonzeros:
    # row 0 holds column n-1, rows 1..n-2 column 0, and row n-1 columns 0..n-2
    return _ones_at(n, np.concatenate([[0], np.arange(1, n - 1), np.full(n - 1, n - 1)]),
                    np.concatenate([[n - 1], np.zeros(n - 2, dtype=np.intp), np.arange(n - 1)]))


def _xorshift(x: np.ndarray, tmp: np.ndarray) -> None:
    """Apply the xorshift64 state update to every uint64 in ``x``, in place."""
    np.right_shift(x, np.uint64(12), out=tmp)
    x ^= tmp
    np.left_shift(x, np.uint64(25), out=tmp)
    x ^= tmp
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp


def _xorshift64star_draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``XorShift64Star(seed).next_u64()``.

    The stream is cut into lanes of m = isqrt(count) consecutive draws,
    which advance side by side as one uint64 array. The state update T is
    linear over GF(2)^64, so each lane starts at T^m of the previous
    lane's start: the columns of T^m are the 64 basis vectors run through
    m updates. Lane-major storage puts the draws back in stream order.
    """
    state = int(seed) & XorShift64Star.MASK or XorShift64Star.ZERO_SEED
    m = math.isqrt(count)
    lanes = -(-count // m)
    # allocated first, so that a size past memory is refused before the jumps
    draws = np.empty((lanes, m), dtype=np.uint64)
    columns = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    tmp = np.empty_like(columns)
    for _ in range(m):
        _xorshift(columns, tmp)
    columns = columns.tolist()
    starts = [state]
    for _ in range(lanes - 1):
        bits, jumped = starts[-1], 0
        for column in columns:
            if bits & 1:
                jumped ^= column
            bits >>= 1
        starts.append(jumped)
    x = np.array(starts, dtype=np.uint64)
    tmp = np.empty_like(x)
    for k in range(m):
        _xorshift(x, tmp)
        draws[:, k] = x
    draws *= np.uint64(XorShift64Star.MULTIPLIER)
    return draws.reshape(-1)[:count]


def _random_positive(n: int, seed: int) -> DualMatrix:
    # n*n uniforms, then a (u1, u2) pair per two normals; an odd n*n drops
    # the last sine value. Same arithmetic as XorShift64Star, array-wise,
    # except the log, which stays libm's: np.log rounds some arguments
    # differently.
    cells = n * n
    draws = _xorshift64star_draws(seed, cells + 2 * -(-cells // 2))
    draws >>= np.uint64(11)
    standard = draws[:cells] * 2.0**-53
    standard += 0.1
    pairs = draws[cells:].reshape(-1, 2)
    u1 = (pairs[:, 0] + np.uint64(1)) * 2.0**-53
    theta = pairs[:, 1] * 2.0**-53
    del draws, pairs
    theta *= 2.0 * math.pi
    r = np.fromiter(map(math.log, u1.tolist()), dtype=float, count=len(u1))
    del u1
    r *= -2.0
    np.sqrt(r, out=r)
    dual = np.empty((len(r), 2))
    dual[:, 0] = r * np.cos(theta)
    dual[:, 1] = r * np.sin(theta)
    del r, theta
    return DualMatrix(standard.reshape(n, n), dual.reshape(-1)[:cells].reshape(n, n))


def generate(spec: ExampleSpec) -> DualMatrix:
    """Instantiate one family member. Entries are filled row-major; the
    standard part is drawn before the dual part."""
    if spec.id == "ex1":
        return DualMatrix([[1.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
    if spec.id == "ex2":
        a, b, c, d = spec.params
        return DualMatrix([[0.0, 1.0], [1.0, 0.0]], [[a, b], [c, d]])
    if spec.id == "ex51":
        return _pattern_pair(_star(spec.n))
    if spec.id == "ex52":
        return _pattern_pair(_dense_index_sums(spec.n))
    if spec.id == "ex53":
        return _pattern_pair(_cycle_spokes(spec.n))
    if spec.id == "ex54":
        return _random_positive(spec.n, spec.seed)
    raise BadSpec(f"unknown example id {spec.id!r}")  # unreachable after validation
