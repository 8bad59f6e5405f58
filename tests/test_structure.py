import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualperron import (
    DualMatrix,
    DualPerronError,
    ExampleSpec,
    NotSquare,
    SolverConfig,
    StructureViolation,
    TooLarge,
    classify,
    generate,
    solve,
    wielandt_check,
)
from dualperron.linalg import _Nonzeros, _reach, _stored_part
from dualperron.structure import _require_irreducible_nonnegative

RNG = np.random.default_rng(11)


def random_pattern(n, density):
    return (RNG.random((n, n)) < density).astype(float)


def circulant(n, offsets):
    a = np.zeros((n, n))
    for off in offsets:
        for i in range(n):
            a[i, (i + off) % n] = 1.0
    return a


class TestClassify:
    def test_swap_pattern_has_period_two(self):
        report = classify([[0, 1], [1, 0]])
        assert report.irreducible
        assert report.period == 2
        assert not report.primitive

    def test_upper_triangular_is_reducible(self):
        report = classify([[1, 1], [0, 1]])
        assert report.nonnegative
        assert not report.irreducible
        assert report.period is None

    def test_dense_index_sum_family(self):
        A = generate(ExampleSpec("ex52", n=10))
        report = classify(A.standard)
        assert report.primitive
        assert report.weakly_positive
        assert not report.positive

    def test_not_square(self):
        with pytest.raises(NotSquare):
            classify(np.ones((2, 3)))

    def test_empty(self):
        with pytest.raises(NotSquare):
            classify(np.zeros((0, 0)))

    def test_negative_entries_reported(self):
        report = classify([[1, -1], [1, 1]])
        assert not report.nonnegative

    def test_one_by_one(self):
        assert classify([[2.0]]).primitive
        assert classify([[2.0]]).period == 1
        assert not classify([[0.0]]).irreducible


class TestRateConstants:
    def test_dense_index_sum_values(self):
        A = generate(ExampleSpec("ex52", n=10))
        report = classify(A.standard, rho=1.0)
        # off-diagonal minimum is 1+2=3, diagonal is zero, max row sum 135
        assert report.beta == pytest.approx(1.0)
        assert report.mu_bar == pytest.approx(136.0)
        assert report.alpha == pytest.approx(1.0 - 1.0 / 136.0)

    def test_defined_only_when_weakly_positive(self):
        report = classify([[0, 1], [1, 0]])
        assert report.weakly_positive
        assert report.beta is not None
        sparse = classify(generate(ExampleSpec("ex51", n=6)).standard)
        assert not sparse.weakly_positive
        assert sparse.beta is None and sparse.alpha is None

    @pytest.mark.parametrize("a, rho", [([[-1.0]], 1.0), ([[-4.0]], 3.0), ([[0, 1], [1, -2]], 1.0)])
    def test_undefined_when_the_shift_leaves_a_nonpositive_diagonal(self, a, rho):
        # weakly positive, but beta = min(off-diagonal, diagonal + rho) <= 0
        report = classify(a, rho)
        assert report.weakly_positive
        assert report.beta is report.mu_bar is report.alpha is None

    def test_undefined_when_a_row_sum_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(np.full((2, 2), 1e308))
        assert report.positive and report.primitive
        assert report.beta is report.mu_bar is report.alpha is None

    def test_invariant_range(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0.5, 2.0, (6, 6))
            np.fill_diagonal(a, rng.uniform(0.0, 1.0, 6))
            report = classify(a, rho=0.75)
            assert 0.0 < report.beta <= report.mu_bar
            assert 0.0 <= report.alpha < 1.0

    def test_alpha_rounds_to_one(self):
        # 1 - beta/mu_bar = 1 - 1e-40 rounds to 1: alpha lies in [0, 1] once rounded
        report = classify([[1e20, 1e-20], [1e-20, 1e20]])
        assert report.beta == 1e-20
        assert report.mu_bar == 1e20
        assert report.alpha == 1.0


class TestPeriod:
    def test_pure_cycle(self):
        assert classify(circulant(5, [1])).period == 5
        assert classify(circulant(6, [1])).period == 6

    def test_cycle_with_odd_offsets(self):
        # steps of 1 and 3 on six nodes: every cycle length is even
        assert classify(circulant(6, [1, 3])).period == 2

    def test_coprime_cycle_lengths(self):
        assert classify(circulant(6, [1, 2])).period == 1

    def test_period_divides_cycle_lengths(self):
        for n, offsets in [(4, [1]), (9, [3, 6]), (8, [2, 6]), (12, [4, 6])]:
            a = circulant(n, offsets)
            report = classify(a)
            if not report.irreducible:
                continue
            # every offset multiset summing to 0 mod n gives a cycle; check
            # the simplest two-offset combinations
            for off in offsets:
                cycle_len = n // np.gcd(n, off)
                assert cycle_len * off % n == 0
                assert cycle_len % report.period == 0


class TestShift:
    def test_shift_makes_irreducible_primitive(self):
        trials = 0
        while trials < 40:
            n = int(RNG.integers(2, 9))
            a = random_pattern(n, float(RNG.uniform(0.15, 0.6)))
            if not classify(a).irreducible:
                continue
            trials += 1
            for rho in (0.5, 1.0, 2.0):
                shifted = classify(a + rho * np.eye(n))
                assert shifted.primitive

    def test_positive_implies_weakly_positive(self):
        for n in (1, 2, 5):
            a = RNG.uniform(0.1, 1.0, (n, n))
            report = classify(a)
            assert report.positive
            assert report.weakly_positive
            assert report.primitive


class TestWielandt:
    def test_examples(self):
        assert not wielandt_check([[0, 1], [1, 0]])
        assert wielandt_check([[1, 1], [1, 0]])
        assert not wielandt_check([[1, 1], [0, 1]])

    def test_agrees_with_classify(self):
        for _ in range(120):
            n = int(RNG.integers(1, 9))
            a = random_pattern(n, float(RNG.uniform(0.05, 0.95)))
            assert wielandt_check(a) == classify(a).primitive

    def test_guards(self):
        with pytest.raises(TooLarge):
            wielandt_check(np.ones((65, 65)))
        with pytest.raises(ValueError):
            wielandt_check([[1, -1], [1, 1]])
        with pytest.raises(NotSquare):
            wielandt_check(np.ones((2, 3)))

    def test_empty_is_not_square(self):
        # an empty pattern has no power to be full of; it used to pass as primitive
        with pytest.raises(NotSquare, match="expected a square matrix"):
            wielandt_check(np.zeros((0, 0)))


@st.composite
def mixed_sign_matrices(draw):
    n = draw(st.integers(1, 12))
    low = -4.0 if draw(st.booleans()) else 0.0
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(low, 4.0))
    a = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(a, 0.0)
    return a


def reachability_and_cycle_lengths(pattern):
    """Walks of length 0..n-1 between each pair, and the lengths k <= n of closed walks."""
    n = pattern.shape[0]
    step = pattern.astype(np.int64)
    reach = power = np.eye(n, dtype=np.int64)
    cycles = []
    for k in range(1, n + 1):
        power = np.minimum(power @ step, 1)
        if k < n:
            reach = np.minimum(reach + power, 1)
        if np.trace(power) > 0:
            cycles.append(k)
    return reach.astype(bool), cycles


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(a=mixed_sign_matrices(), rho=st.sampled_from([0.25, 1.0, 3.0]))
    def test_every_field(self, a, rho):
        n = a.shape[0]
        eye = np.eye(n, dtype=bool)
        pattern = a > 0.0
        report = classify(a, rho)

        assert report.nonnegative == np.all(a >= 0.0)
        assert report.positive == np.all(a > 0.0)
        reach, cycles = reachability_and_cycle_lengths(pattern)
        irreducible = bool(reach.all()) and (n > 1 or bool(pattern[0, 0]))
        assert report.irreducible == irreducible
        # every closed walk is a union of simple cycles, whose lengths are <= n
        assert report.period == (math.gcd(*cycles) if irreducible else None)
        assert report.primitive == wielandt_check(np.maximum(a, 0.0))

        weakly_positive = bool((pattern | eye).all())
        assert report.weakly_positive == weakly_positive
        off_min = float(a[~eye].min()) if n > 1 else math.inf
        beta = min(off_min, float(np.diag(a).min()) + rho)
        if not (weakly_positive and beta > 0.0):
            assert report.beta is report.mu_bar is report.alpha is None
            return
        mu_bar = rho + float(a.sum(axis=1).max())
        assert (report.beta, report.mu_bar, report.alpha) == (beta, mu_bar, 1.0 - beta / mu_bar)


class TestSolveGate:
    @settings(max_examples=200, deadline=None)
    @given(a=mixed_sign_matrices())
    def test_refuses_exactly_what_classify_rules_out(self, a):
        report = classify(a)
        if not report.nonnegative:
            expected = "standard part not nonnegative"
        elif not report.irreducible:
            expected = "standard part reducible"
        else:
            expected = None
        try:
            solve(DualMatrix(a, np.zeros_like(a)), SolverConfig(k_max=1))
            refused = None
        except StructureViolation as exc:
            refused = str(exc)
        except DualPerronError:  # past the gate, the one step may still fail
            refused = None
        assert refused == expected


@st.composite
def gate_inputs(draw):
    """Mixed-sign matrices, half of them with a zero lower-left block: such a
    block (k rows by k columns, 0 < k < n) makes the pattern reducible."""
    a = draw(mixed_sign_matrices())
    n = a.shape[0]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        a[k:, :k] = 0.0
    return a


class TestGateOnNonzeros:
    @staticmethod
    def gate(part):
        try:
            return _require_irreducible_nonnegative(part)
        except StructureViolation as exc:
            return str(exc)

    @settings(max_examples=300, deadline=None)
    @given(a=gate_inputs())
    def test_decides_as_on_the_dense_array(self, a):
        # the same message, or None for both
        assert self.gate(_Nonzeros(a)) == self.gate(a)

    @pytest.mark.parametrize("a, expected", [
        ([[0.0]], "standard part reducible"),
        ([[-0.0]], "standard part reducible"),
        ([[2.0]], None),
        ([[-1.0]], "standard part not nonnegative"),
        (np.zeros((3, 3)), "standard part reducible"),
    ])
    def test_edge_cases(self, a, expected):
        assert self.gate(_Nonzeros(np.array(a))) == expected


class TestDenseReach:
    """On a dense array, ``_reach`` reads the frontier's rows (or columns) a
    row block at a time instead of building the n x n positivity pattern."""

    @pytest.mark.parametrize("n", [1, 5, 700])  # 93 rows a block at n = 700
    @pytest.mark.parametrize("back", [False, True])
    def test_matches_the_pattern_product(self, n, back):
        rng = np.random.default_rng(n)
        a = np.where(rng.random((n, n)) < 0.01, rng.standard_normal((n, n)), 0.0)
        pattern = (a > 0.0).T if back else a > 0.0
        reach = _reach(a, back=back)
        for density in (0.0, 0.01, 0.5, 1.0):
            frontier = rng.random(n) < density
            assert np.array_equal(reach(frontier), pattern[frontier].any(axis=0))

    def test_gate_and_classify_build_no_pattern(self):
        n = 1500  # the pattern alone would take n^2 bytes
        A = generate(ExampleSpec("ex52", n=n))
        tracemalloc.start()
        try:
            _require_irreducible_nonnegative(A._parts[0])
            gate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = classify(A.standard)
            classify_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.primitive
        assert gate_peak < n * n // 16 and classify_peak < n * n // 2


STORED_SIZES = list(range(2, 60)) + [99, 100, 200, 333, 1000, 2000]


def stored_reports_agree(part, rho):
    """classify reads the stored part as it reads the dense array."""
    dense = part.dense if isinstance(part, _Nonzeros) else part
    assert repr(classify(part, rho)) == repr(classify(dense, rho))


class TestClassifyOnStoredParts:
    """``classify`` takes a part as ``DualMatrix`` stores it, dense array or
    nonzeros, and reports what it reports on the dense array."""

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_families(self, ex, rho):
        forms = set()
        for n in STORED_SIZES if ex != "ex54" else [n for n in STORED_SIZES if n <= 300]:
            part = generate(ExampleSpec(ex, n=n))._parts[0]
            forms.add(type(part))
            stored_reports_agree(part, rho)
        # ex51 and ex53 are held as nonzeros from n = 39 or 40 on, ex52 and ex54 stay dense
        assert _Nonzeros in forms if ex in ("ex51", "ex53") else forms == {np.ndarray}

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    def test_random_patterns(self, rho):
        rng = np.random.default_rng(29)
        nonzeros = 0
        for case in range(300):
            n = 1 if case % 50 == 0 else int(rng.integers(2, 61))
            fill = [0.0, 0.01, 0.03, 0.05, 0.1, 0.3][case % 6]
            low = -1.0 if case % 4 == 0 else 0.0  # negative entries in a quarter
            a = np.where(rng.random((n, n)) < fill, rng.uniform(low, 2.0, (n, n)), 0.0)
            if case % 7 == 0:
                np.fill_diagonal(a, rng.uniform(0.5, 2.0, n))
            if case % 97 == 1:
                a[rng.integers(n), rng.integers(n)] = np.nan
            part = _stored_part(a)
            nonzeros += isinstance(part, _Nonzeros)
            stored_reports_agree(part, rho)
        assert nonzeros > 100

    @pytest.mark.parametrize("a", [[[0.0]], [[-0.0]], [[2.0]], [[np.nan]], np.zeros((3, 3)),
                                   -np.eye(3), np.ones((2, 2))])
    def test_nonzeros_edge_cases(self, a):
        stored_reports_agree(_Nonzeros(np.array(a)), 1.0)

    @pytest.mark.parametrize("ex, primitive", [("ex51", False), ("ex53", True)])
    def test_builds_no_dense_array_at_n_1e5(self, ex, primitive):
        part = generate(ExampleSpec(ex, n=100_000))._parts[0]
        report = classify(part)
        assert "dense" not in part.__dict__
        assert report.irreducible and report.primitive == primitive
        assert report.period == (1 if primitive else 2)
        assert not report.weakly_positive and report.beta is None
