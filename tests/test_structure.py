import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualperron import ExampleSpec, NotSquare, TooLarge, classify, generate, wielandt_check

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

    def test_invariant_range(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0.5, 2.0, (6, 6))
            np.fill_diagonal(a, rng.uniform(0.0, 1.0, 6))
            report = classify(a, rho=0.75)
            assert 0.0 < report.beta <= report.mu_bar
            assert 0.0 <= report.alpha < 1.0


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
        if not weakly_positive:
            assert report.beta is report.mu_bar is report.alpha is None
            return
        off_min = float(a[~eye].min()) if n > 1 else math.inf
        beta = min(off_min, float(np.diag(a).min()) + rho)
        mu_bar = rho + float(a.sum(axis=1).max())
        assert (report.beta, report.mu_bar, report.alpha) == (beta, mu_bar, 1.0 - beta / mu_bar)
