import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualperron import (
    DualMatrix,
    DualNumber,
    DualVector,
    ExampleSpec,
    Flag,
    NonPositiveIterate,
    NonPositiveVector,
    NotSquare,
    RankDeficient,
    SolverConfig,
    StructureViolation,
    classify,
    eigen_residual,
    frn_norm,
    generate,
    lambda_d_oracle,
    matvec,
    minimax_ratios,
    row_sum_bounds,
    solve,
    solve_dual_part,
    spectrum,
)
from dualperron import linalg, solver

RNG = np.random.default_rng(3)


def assert_monotone(result):
    for k in range(len(result.lower) - 1):
        assert result.lower[k] <= result.lower[k + 1], f"lower bound regressed at k={k}"
        assert result.upper[k + 1] <= result.upper[k], f"upper bound regressed at k={k}"
        assert result.lower[k] <= result.upper[k]
    assert result.lower[-1] <= result.upper[-1]


def unit_within(x: DualVector, tol: float) -> bool:
    """||x_s|| = 1 and x_s.x_d = 0 to tolerance, by numpy rather than vec_norm2."""
    return (abs(float(np.linalg.norm(x.standard)) - 1.0) <= tol
            and abs(float(x.standard @ x.dual)) <= tol)


def _shifted_swap():
    A = generate(ExampleSpec("ex2"))
    return DualMatrix(A.standard + np.eye(2), A.dual)


class TestCollatzStep:
    """The bounds of one Collatz step: the minimax ratios at an iterate."""

    @pytest.mark.parametrize(
        "B, x_s, lower, upper",
        [
            # every vector is a fixed point of the scaled identity
            (DualMatrix(2 * np.eye(2), np.zeros((2, 2))), [1.0, 1.0], (2.0, 0.0), (2.0, 0.0)),
            # the components of Bx are equal, so the ratios are 1.5/1 and 1.5/0.5
            (DualMatrix(np.ones((2, 2)), np.zeros((2, 2))), [1.0, 0.5], (1.5, 0.0), (3.0, 0.0)),
            # ex2 shifted by I is stationary at the uniform vector
            (_shifted_swap(), [1.0, 1.0], (2.0, 2.0), (2.0, 2.0)),
        ],
        ids=["scaled_identity", "hand_computed_ratios", "shifted_swap_stationary"],
    )
    def test_hand_computed_bounds(self, B, x_s, lower, upper):
        x_s = np.asarray(x_s) / np.linalg.norm(x_s)
        lo, hi = minimax_ratios(B, DualVector(x_s, np.zeros(2)))
        assert (lo.standard, lo.dual) == pytest.approx(lower)
        assert (hi.standard, hi.dual) == pytest.approx(upper)
        assert (lo == hi) == (lower == upper)

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_bounds_match_solve_at_k0(self, ex):
        # solve starts from the all-ones vector: its k = 0 bounds are A's
        # own minimax ratios there, bit for bit; at n=100 the ex51/ex53 and
        # Jordan parts are held as nonzeros, and both go through that product
        for n in (16, 100):
            A = generate(ExampleSpec(ex, n=n))
            lower, upper = minimax_ratios(A, DualVector(np.ones(n), np.zeros(n)))
            result = solve(A)
            assert lower == result.lower[0]
            assert upper == result.upper[0]


class TestSolve:
    def test_swap_family_closed_form(self):
        result = solve(generate(ExampleSpec("ex2")))
        assert result.flag == Flag.CONVERGED_FULL
        assert result.eigenvalue.standard == pytest.approx(1.0, abs=1e-12)
        assert result.eigenvalue.dual == pytest.approx(2.0, abs=1e-12)
        assert unit_within(result.eigenvector, tol=1e-12)
        assert result.residual <= 1e-12

    def test_star_family(self):
        A = generate(ExampleSpec("ex51", n=10))
        result = solve(A)
        assert result.flag == Flag.CONVERGED_FULL
        assert result.eigenvalue.standard == pytest.approx(3.0, abs=1e-6)
        # dominant eigenvector (3,1,...,1)/sqrt(18) against the Jordan dual part
        assert result.eigenvalue.dual == pytest.approx(29.0 / 18.0, abs=1e-6)
        assert result.eigenvalue > DualNumber(0, 0)
        assert_monotone(result)

    def test_refuses_reducible(self):
        with pytest.raises(StructureViolation, match="reducible"):
            solve(generate(ExampleSpec("ex1")))

    def test_refuses_negative_entries(self):
        A = DualMatrix([[0, 1], [-1, 0]], np.zeros((2, 2)))
        with pytest.raises(StructureViolation, match="nonnegative"):
            solve(A)

    def test_iteration_budget(self):
        result = solve(generate(ExampleSpec("ex51", n=10)), SolverConfig(k_max=3))
        assert result.flag == Flag.NOT_CONVERGED
        assert result.eigenvalue is None
        assert result.eigenvector is None
        assert result.residual is None
        assert result.iterations == 3
        assert len(result.lower) == 4  # k = 0..3

    def test_residual_contract(self):
        for ex, n in [("ex51", 10), ("ex52", 10), ("ex53", 10), ("ex54", 10)]:
            A = generate(ExampleSpec(ex, n=n))
            result = solve(A)
            assert result.flag != Flag.NOT_CONVERGED
            assert result.residual <= 10 * 1e-8 * frn_norm(A)
            assert result.residual == pytest.approx(
                eigen_residual(A, result.eigenvalue, result.eigenvector)
            )

    def test_eigenvector_is_unit(self):
        for ex, n in [("ex51", 10), ("ex52", 10), ("ex53", 10)]:
            result = solve(generate(ExampleSpec(ex, n=n)))
            assert unit_within(result.eigenvector, tol=1e-10)

    def test_trace_matches_bounds(self):
        result = solve(generate(ExampleSpec("ex52", n=8)))
        assert len(result.trace) == len(result.lower) == result.iterations + 1
        for k, rec in enumerate(result.trace):
            assert rec.k == k
            assert rec.lower_s == result.lower[k].standard
            assert rec.upper_d == result.upper[k].dual
            assert rec.gap_frn >= 0.0
            assert rec.residual_frn >= 0.0
        assert result.trace[-1].gap_frn <= 1e-8 * frn_norm(generate(ExampleSpec("ex52", n=8)))

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_trace_row_zero_holds_the_unit_start_residual(self, ex):
        # every row, k = 0 included, holds the residual of the unit iterate
        A = generate(ExampleSpec(ex, n=16))
        result = solve(A)
        start = DualVector(np.ones(16) / 4.0, np.zeros(16))
        assert result.trace[0].residual_frn == pytest.approx(
            eigen_residual(A, result.lower[0], start)
        )


class TestOracleAgreement:
    @pytest.mark.parametrize("ex,n", [("ex52", 10), ("ex53", 25), ("ex54", 40)])
    def test_standard_part_matches_dense_spectrum(self, ex, n):
        A = generate(ExampleSpec(ex, n=n))
        result = solve(A)
        rho = spectrum(A.standard).spectral_radius
        assert abs(result.eigenvalue.standard - rho) <= 1e-8 * rho
        # the dominant value is also an upper bound over the whole spectrum
        assert result.eigenvalue.standard <= rho + 1e-8


class TestShiftInvariance:
    def test_deshifted_results_agree(self):
        A = generate(ExampleSpec("ex52", n=10))
        results = [
            solve(A, SolverConfig(delta1=1e-13, delta2=1e-30, rho=rho, k_max=500))
            for rho in (0.5, 1.0, 2.0)
        ]
        for r in results:
            assert r.flag == Flag.CONVERGED_FULL
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                ri, rj = results[i], results[j]
                assert abs(ri.eigenvalue.standard - rj.eigenvalue.standard) <= 1e-10
                assert abs(ri.eigenvalue.dual - rj.eigenvalue.dual) <= 1e-10
                assert np.max(np.abs(ri.eigenvector.standard - rj.eigenvector.standard)) <= 1e-10
                assert np.max(np.abs(ri.eigenvector.dual - rj.eigenvector.dual)) <= 1e-10


class TestScaleEquivariance:
    @pytest.mark.parametrize("s", [1e100, 2.0**350])
    def test_scaled_input_scales_the_eigenpair(self, s):
        # rho scales with A, so the shifted matrix is s times the unscaled
        # one and the iteration takes the same steps; at these scales the
        # dual-part normalisation used to overflow through ns**3.
        A = generate(ExampleSpec("ex52", n=16))
        ref = solve(A, SolverConfig(rho=1.0))
        got = solve(DualMatrix(s * A.standard, s * A.dual), SolverConfig(rho=s))
        assert got.flag == ref.flag == Flag.CONVERGED_FULL
        assert got.iterations == ref.iterations
        assert got.eigenvalue.standard == pytest.approx(s * ref.eigenvalue.standard, rel=1e-12)
        assert got.eigenvalue.dual == pytest.approx(s * ref.eigenvalue.dual, rel=1e-12)
        for part in ("standard", "dual"):
            want = getattr(ref.eigenvector, part)
            diff = np.max(np.abs(getattr(got.eigenvector, part) - want))
            assert diff <= 1e-12 * np.max(np.abs(want))


class TestOverflow:
    def test_iterate_norm_overflow_is_named(self):
        # entries near 1e153: the input norm and A*y are finite, but ||y||
        # squares before it sums and overflows
        A = generate(ExampleSpec("ex51", n=16))
        big = DualMatrix(1e153 * A.standard, 1e153 * A.dual)
        assert np.isfinite(frn_norm(big))
        with pytest.raises(NonPositiveIterate, match="iterate norm overflowed"):
            solve(big, SolverConfig(rho=1e153))

    def test_iterate_norm_underflow_is_named(self):
        # the shift scales with A, so y = A x + rho*x is as small as A: its
        # squares underflow, and the norm would be 0
        A = generate(ExampleSpec("ex51", n=16))
        with pytest.raises(NonPositiveIterate, match="iterate norm underflowed"):
            solve(DualMatrix(1e-200 * A.standard, 1e-200 * A.dual))

    def test_input_norm_overflow_is_named(self):
        # the stopping tolerance would be inf, and the solve would report
        # flag 1 with an infinite residual after one step
        A = generate(ExampleSpec("ex52", n=10))
        with pytest.raises(NonPositiveIterate, match="input F\\^R-norm is not finite"):
            solve(DualMatrix(A.standard, 1e155 * A.dual))


# A finite input whose row sums and products leave the double range.
_HUGE = DualMatrix([[1e308, 1e308], [1.0, 1.0]], np.zeros((2, 2)))
_ONES = DualVector(np.ones(2), np.zeros(2))


class TestPublicHelpersOnOverflow:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: row_sum_bounds(_HUGE), NonPositiveIterate, "overflows the double range"),
        (lambda: minimax_ratios(_HUGE, _ONES), NonPositiveIterate, "overflows the double range"),
        (lambda: matvec(_HUGE, _ONES), NonPositiveIterate, "overflows the double range"),
        (lambda: eigen_residual(_HUGE, DualNumber(1.0), _ONES), NonPositiveIterate,
         "overflows the double range"),
        (lambda: frn_norm(_HUGE), None, None),
        (lambda: spectrum(np.ones((2, 3))), NotSquare, "expected a square matrix"),
    ], ids=["row_sum_bounds", "minimax_ratios", "matvec", "eigen_residual", "frn_norm",
            "spectrum"])
    def test_typed_error_and_no_warning(self, call, error, match):
        # numpy's warnings are errors here whatever the command line says
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is None:
                assert call() == math.inf
            else:
                with pytest.raises(error, match=match):
                    call()

    def test_quotient_that_overflows_is_named(self):
        # A y is finite, but 1 / 5e-324 is not: the quotient guard, not matvec's, refuses
        A = DualMatrix(np.ones((2, 2)), np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveIterate, match=r"product A\*y is not finite"):
                minimax_ratios(A, DualVector([5e-324, 1.0], [0.0, 0.0]))

    @pytest.mark.parametrize("z_s, y_s", [(math.inf, 1.0), (math.nan, 1.0), (1e308, 1e-10)])
    @pytest.mark.parametrize("y_d", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("z_d", [0.0, math.inf, -math.inf, math.nan])
    def test_bounds_refuse_a_standard_quotient_that_is_not_finite(self, z_s, y_s, y_d, z_d):
        # _bounds checks only the dual quotients: a standard quotient that is
        # not finite must make its dual quotient NaN or infinite, and raise
        z = np.array([2.0, z_s]), np.array([1.0, z_d])
        y = np.array([1.0, y_s]), np.array([0.0, y_d])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonPositiveIterate, match=r"product A\*y is not finite"):
                solver._bounds(*z, *y)


class TestNonzeroProduct:
    @pytest.mark.parametrize("fill", [0.0, 0.02, 0.2, 1.0])
    def test_matches_dense_product(self, fill):
        for n in (1, 7, 40):
            m = np.where(RNG.random((n, n)) < fill, RNG.standard_normal((n, n)), 0.0)
            m[n // 2] = 0.0
            # bincount sums in this order, so it sets the output bits: it must
            # be np.nonzero's, where -0.0 is no nonzero and a subnormal is one
            rng = np.random.default_rng(n)
            edge = np.where(rng.random((n, n)) < 0.3, -0.0, m)
            edge[rng.random((n, n)) < 0.3] *= 1e-310
            for a in (m, edge):
                op = linalg._Nonzeros(a)
                rows, cols = np.nonzero(a)
                assert np.array_equal(op.rows, rows) and np.array_equal(op.cols, cols)
                assert op.vals.tobytes() == a[rows, cols].tobytes()
            y = RNG.standard_normal(n)
            got = linalg._Nonzeros(m) @ y
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.all(np.abs(got - m @ y) <= 1e-15 * (np.abs(m) @ np.abs(y)))
            # the reflected product, which the left iterate uses
            got = y @ linalg._Nonzeros(m)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.all(np.abs(got - y @ m) <= 1e-15 * (np.abs(y) @ np.abs(m)))

    @staticmethod
    def solve_both(monkeypatch, A, cfg=None):
        fast = solve(A, cfg)
        with monkeypatch.context() as mp:
            # no fill is at most -1 of n^2: both parts are held dense
            mp.setattr(linalg, "_SPARSE_MAX_FILL", -1.0)
            dense = solve(DualMatrix(A.standard, A.dual), cfg)
        return fast, dense

    @pytest.mark.parametrize("ex", ["ex51", "ex53"])
    @pytest.mark.parametrize("n", [100, 300])
    @pytest.mark.parametrize("delta1", [1e-8, 1e-14])
    def test_sparse_families_match_the_dense_run(self, monkeypatch, ex, n, delta1):
        A = generate(ExampleSpec(ex, n=n))
        fast, dense = self.solve_both(monkeypatch, A, SolverConfig(delta1=delta1))
        assert (fast.flag, fast.iterations) == (dense.flag, dense.iterations)
        lam, ref = fast.eigenvalue, dense.eigenvalue
        assert abs(lam.standard - ref.standard) <= 1e-12 * abs(ref.standard)
        assert abs(lam.dual - ref.dual) <= 1e-12 * (1.0 + abs(ref.dual))

    @pytest.mark.parametrize("ex", ["ex2", "ex52", "ex54"])
    def test_dense_families_are_bit_identical(self, monkeypatch, ex):
        # ex52's dual part goes through the nonzeros, but its rows hold at
        # most two unit entries, which sum exactly in any order
        A = generate(ExampleSpec(ex) if ex == "ex2" else ExampleSpec(ex, n=120))
        fast, dense = self.solve_both(monkeypatch, A)
        assert (fast.flag, fast.iterations) == (dense.flag, dense.iterations)
        assert fast.eigenvalue == dense.eigenvalue
        for part in ("standard", "dual"):
            got = getattr(fast.eigenvector, part)
            assert got.tobytes() == getattr(dense.eigenvector, part).tobytes()
        assert fast.trace == dense.trace


class TestStoredNonzeros:
    """``DualMatrix`` holds a part as its nonzeros when they fill at most
    n^2/20 entries, else as its dense array: the generated ex51/ex53 and
    Jordan parts from n = 39 or 40 on, and a dense array that sparse.
    ``solve``, ``matvec``, ``minimax_ratios`` and ``eigen_residual`` apply
    the part as stored."""

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53"])
    @pytest.mark.parametrize("n", [2, 3, 10, 38, 39, 40, 41, 157, 1000])
    def test_same_answers_as_a_dense_built_copy(self, ex, n):
        for delta1 in (1e-8, 1e-14):
            for rho in (None, 1.0):
                cfg = SolverConfig(delta1=delta1, rho=rho)
                A = generate(ExampleSpec(ex, n=n))
                got = solve(A, cfg)
                dense = DualMatrix(np.array(A.standard), np.array(A.dual))
                ref = solve(dense, cfg)
                assert (got.flag, got.iterations) == (ref.flag, ref.iterations)
                assert got.residual == ref.residual
                assert got.eigenvalue == ref.eigenvalue
                for part in ("standard", "dual"):
                    assert (getattr(got.eigenvector, part).tobytes()
                            == getattr(ref.eigenvector, part).tobytes())
                assert got.trace == ref.trace
                assert got.shifts == ref.shifts
                assert frn_norm(A) == frn_norm(dense)
                assert row_sum_bounds(A) == row_sum_bounds(dense)
                assert A.standard is A.standard and A.dual is A.dual

    @staticmethod
    def traced_peak(ex, n):
        """The result of generate -> solve, and the peak memory it traced."""
        tracemalloc.start()
        try:
            result = solve(generate(ExampleSpec(ex, n=n)))
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("ex", ["ex51", "ex53"])
    def test_no_n_by_n_array_at_n5000(self, ex):
        # one 5000 x 5000 float array alone takes 200 MB
        result, peak = self.traced_peak(ex, 5000)
        assert result.flag == Flag.CONVERGED_FULL
        assert peak < 16 * 2**20

    @pytest.mark.slow
    @pytest.mark.parametrize("ex", ["ex51", "ex53"])
    def test_no_n_by_n_array_at_n100000(self, ex):
        # dense storage would take 160 GB
        result, peak = self.traced_peak(ex, 100_000)
        assert result.flag == Flag.CONVERGED_FULL
        assert peak < 200 * 2**20

    @pytest.mark.parametrize("ex", ["ex51", "ex53"])
    def test_products_build_no_n_by_n_array_at_n5000(self, ex):
        n = 5000
        A = generate(ExampleSpec(ex, n=n))
        x = DualVector(np.linspace(1.0, 2.0, n), np.linspace(-1.0, 1.0, n))
        tracemalloc.start()
        try:
            y = matvec(A, x)
            lower, upper = minimax_ratios(A, x)
            residual = eigen_residual(A, lower, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert all("dense" not in vars(part) for part in A._parts)
        assert y.n == n and lower <= upper and math.isfinite(residual)

    def test_repr_names_the_stored_form(self):
        A = generate(ExampleSpec("ex53", n=10**4))
        assert repr(A) == ("DualMatrix(standard=_Nonzeros(n=10000, nnz=19998), "
                           "dual=_Nonzeros(n=10000, nnz=19999))")
        assert all("dense" not in vars(part) for part in A._parts)

    def test_form_is_decided_at_the_fill(self):
        n = 20  # the fill n^2/20 allows 20 nonzeros
        a = np.zeros((n, n))
        a.flat[:: n + 1] = 1.0
        a.setflags(write=False)
        A = DualMatrix(a, a)
        assert all(isinstance(part, linalg._Nonzeros) for part in A._parts)
        assert A.standard is a and A.dual is a
        b = a.copy()
        b[0, 1] = 1.0
        assert isinstance(DualMatrix(b, a)._parts[0], np.ndarray)
        # nonzeros above the fill are held as their dense array
        A = generate(ExampleSpec("ex51", n=38))
        assert all(isinstance(part, np.ndarray) for part in A._parts)
        assert all(isinstance(part, linalg._Nonzeros)
                   for part in generate(ExampleSpec("ex51", n=40))._parts)

    def test_all_zero_part(self):
        A = DualMatrix(np.zeros((3, 3)), np.zeros((3, 3)))
        assert all(isinstance(part, linalg._Nonzeros) for part in A._parts)
        y = matvec(A, DualVector([1.0, 2.0, 3.0], [0.5, 0.0, -1.0]))
        for part in (y.standard, y.dual):
            assert part.dtype == np.float64 and np.array_equal(part, np.zeros(3))


@pytest.fixture(scope="module")
def unscaled():
    """(A, solve at rho = 1, solve at the default shift) per family."""
    examples = {}
    for ex in ("ex51", "ex52", "ex53", "ex54"):
        A = generate(ExampleSpec(ex, n=16))
        examples[ex] = (A, solve(A, SolverConfig(rho=1.0)), solve(A))
    return examples


def assert_scaled_exactly(got, ref, s):
    assert got.flag == ref.flag
    assert got.iterations == ref.iterations
    assert len(got.trace) == len(ref.trace)
    for g, r in zip(got.trace, ref.trace):
        for field in ("lower_s", "lower_d", "upper_s", "upper_d"):
            assert getattr(g, field) == s * getattr(r, field), (g.k, field)
    assert got.eigenvalue.standard == s * ref.eigenvalue.standard
    assert got.eigenvalue.dual == s * ref.eigenvalue.dual
    assert got.eigenvector.standard.tobytes() == ref.eigenvector.standard.tobytes()
    assert got.eigenvector.dual.tobytes() == ref.eigenvector.dual.tobytes()


class TestPowerOfTwoScaling:
    @settings(max_examples=60, deadline=None)
    @given(ex=st.sampled_from(("ex51", "ex52", "ex53", "ex54")), k=st.integers(-300, 300))
    def test_scaling_by_two_to_the_k_is_exact(self, unscaled, ex, k):
        # s*A with rho = s is exactly s times the unscaled run at rho = 1,
        # so every product, quotient and norm scales exactly: same steps,
        # and bounds and eigenvalue exactly s times the unscaled ones
        s = 2.0**k
        A, ref, _ = unscaled[ex]
        got = solve(DualMatrix(s * A.standard, s * A.dual), SolverConfig(rho=s))
        assert_scaled_exactly(got, ref, s)

    @settings(max_examples=60, deadline=None)
    @given(ex=st.sampled_from(("ex51", "ex52", "ex53", "ex54")), k=st.integers(-300, 300))
    def test_default_shift_scales_exactly(self, unscaled, ex, k):
        # the default shift is a power of two set by the lower bound's
        # binary exponent, so it scales with A exactly as well
        s = 2.0**k
        A, _, ref = unscaled[ex]
        got = solve(DualMatrix(s * A.standard, s * A.dual))
        assert_scaled_exactly(got, ref, s)
        assert got.shifts == [s * rho for rho in ref.shifts]


def assert_within_verify_tolerances(got, ref, A, s, delta1=1e-8):
    # the CLI's verify tolerances around s times the unscaled answer
    lam, want = got.eigenvalue, ref.eigenvalue
    norm = frn_norm(A)
    assert abs(lam.standard - s * want.standard) <= s * (delta1 * norm + 1e-8 * (1.0 + want.standard))
    assert abs(lam.dual - s * want.dual) <= s * (delta1 * norm + 1e-6 * (1.0 + abs(want.dual)))


class TestDecimalScaling:
    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    @pytest.mark.parametrize("k", [-100, -50, -20, -10, 10, 20, 50, 100])
    def test_default_shift_answers_scaled_inputs(self, unscaled, ex, k):
        # 10^k is no power of two, so the path may differ by rounding; the
        # answer must still be s times the unscaled one, within tolerance
        s = 10.0**k
        A, _, ref = unscaled[ex]
        scaled = DualMatrix(s * A.standard, s * A.dual)
        got = solve(scaled)
        assert got.flag == Flag.CONVERGED_FULL
        assert got.residual <= 1e-7 * frn_norm(scaled)
        assert_within_verify_tolerances(got, ref, A, s)


class TestContractionRate:
    def test_weakly_positive_gap_contracts(self):
        A = generate(ExampleSpec("ex52", n=10))
        alpha = classify(A.standard, rho=1.0).alpha
        result = solve(A, SolverConfig(delta1=1e-300, delta2=1e-301, rho=1.0, k_max=120))
        gaps = [u.standard - l.standard for l, u in zip(result.lower, result.upper)]
        for k in range(len(gaps) - 1):
            if gaps[k] <= 1e-13:
                break
            assert gaps[k + 1] <= alpha * gaps[k], f"contraction failed at k={k}"


class TestDualPartRecovery:
    def test_zero_dual_matrix(self):
        A = DualMatrix([[0, 1], [1, 0]], np.zeros((2, 2)))
        lam_d, x_d = solve_dual_part(A, 1.0, np.full(2, np.sqrt(0.5)))
        assert lam_d == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(x_d, 0.0, atol=1e-14)

    def test_swap_family_symmetric_params(self):
        A = generate(ExampleSpec("ex2"))
        lam_d, x_d = solve_dual_part(A, 1.0, np.full(2, np.sqrt(0.5)))
        assert lam_d == pytest.approx(2.0, abs=1e-13)
        assert np.allclose(x_d, 0.0, atol=1e-13)
        assert eigen_residual(
            A, DualNumber(1.0, lam_d), DualVector(np.full(2, np.sqrt(0.5)), x_d)
        ) <= 1e-12

    def test_matches_left_eigenvector_formula(self):
        for n in (3, 5, 9):
            A = DualMatrix(RNG.uniform(0.1, 1.1, (n, n)), RNG.standard_normal((n, n)))
            report = spectrum(A.standard)
            lam_d, x_d = solve_dual_part(A, report.spectral_radius, report.right_vector)
            assert lam_d == pytest.approx(lambda_d_oracle(A, report), abs=1e-10)
            assert abs(report.right_vector @ x_d) <= 1e-10

    def test_rank_deficient_on_multiple_eigenvalue(self):
        A = DualMatrix(np.eye(3), np.ones((3, 3)))
        with pytest.raises(RankDeficient):
            solve_dual_part(A, 1.0, np.full(3, np.sqrt(1 / 3)))

    @pytest.mark.parametrize("rotate", [False, True])
    def test_singularity_threshold(self, rotate):
        # A_s has eigenvalues 2 and 2 - t, so the bordered system's smallest QR pivot is
        # about t against a norm of sqrt(2): the threshold 1e-12 * ||m||_F refuses
        # t = 1e-13 and accepts t = 1e-11, where lambda_d is (A_d x_s) . x_s = 1
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        R = np.array([[c, -s], [s, c]]) if rotate else np.eye(2)
        A_d = R @ np.diag([1.0, 0.0]) @ R.T
        with pytest.raises(RankDeficient, match="smallest pivot"):
            solve_dual_part(DualMatrix(R @ np.diag([2.0, 2.0 - 1e-13]) @ R.T, A_d), 2.0, R[:, 0])
        lam_d, x_d = solve_dual_part(
            DualMatrix(R @ np.diag([2.0, 2.0 - 1e-11]) @ R.T, A_d), 2.0, R[:, 0])
        assert lam_d == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(x_d, 0.0, rtol=0.0, atol=1e-4)

    def test_flag2_recovery_matches_oracle(self):
        A = generate(ExampleSpec("ex52", n=10))
        result = solve(A, SolverConfig(delta1=1e-300, delta2=1e-12, k_max=400))
        assert result.flag == Flag.CONVERGED_STANDARD
        report = spectrum(A.standard)
        assert result.eigenvalue.dual == pytest.approx(lambda_d_oracle(A, report), abs=1e-9)
        assert unit_within(result.eigenvector, tol=1e-10)
        assert result.residual <= 1e-7 * frn_norm(A)


# ex54 inputs whose flag-1 lambda_d, when it was the lower bound's dual part,
# missed the oracle bound; they are also the benchmark's defect-probe inputs
EX54_LAMBDA_D_MISSES = ((159, 1240500437), (167, 1183933067), (175, 154843974),
                        (192, 1784340824), (195, 3844007680))


class TestLeftVectorDualPart:
    def test_flag1_lambda_d_meets_the_oracle_bound(self):
        rng = np.random.default_rng(2024)
        cases = [(int(rng.integers(100, 201)), int(rng.integers(2**32))) for _ in range(40)]
        for n, seed in cases + list(EX54_LAMBDA_D_MISSES):
            A = generate(ExampleSpec("ex54", n=n, seed=seed))
            result = solve(A)
            assert result.flag == Flag.CONVERGED_FULL
            ref = lambda_d_oracle(A, spectrum(A.standard))
            # C5's own bound
            assert abs(result.eigenvalue.dual - ref) <= 1e-6 * (1.0 + abs(ref)), (n, seed)

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53"])
    @pytest.mark.parametrize("n", [150, 300])
    def test_flag2_matches_the_bordered_solve(self, ex, n):
        A = generate(ExampleSpec(ex, n=n))
        result = solve(A, SolverConfig(delta1=1e-14))
        assert result.flag == Flag.CONVERGED_STANDARD
        lam = result.eigenvalue
        lam_d, _ = solve_dual_part(A, lam.standard, result.eigenvector.standard)
        assert abs(lam.dual - lam_d) <= 1e-9 * (1.0 + abs(lam_d))
        assert result.residual <= 1e-7 * frn_norm(A)

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53"])
    @pytest.mark.parametrize("k", [-22, -20, -18, -17])
    def test_input_swamped_by_the_shift_is_refused(self, ex, k):
        # A fixed rho = 1 rounds A away in y = A x + x, so A's own bounds
        # never close: no answer. The default shift scales with A and
        # answers s times the unscaled eigenvalue.
        A = generate(ExampleSpec(ex, n=16))
        s = 10.0**k
        scaled = DualMatrix(s * A.standard, s * A.dual)
        assert solve(scaled, SolverConfig(rho=1.0)).flag == Flag.NOT_CONVERGED
        got = solve(scaled)
        assert got.flag == Flag.CONVERGED_FULL
        assert_within_verify_tolerances(got, solve(A), A, s)


class _CountingPart:
    """A stored part that counts the left products ``w @ part`` made with it."""
    __array_ufunc__ = None

    def __init__(self, part):
        self.part, self.products = part, 0

    def __rmatmul__(self, w):
        self.products += 1
        return w @ self.part


class TestCertifiedLeftVector:
    """``solver._left_vector``: lambda_d's left Perron vector, certified at the stop."""

    @staticmethod
    def count_left_products(monkeypatch, A, cfg):
        # the left products of each stop, made through the part each call gets
        parts, left = [], solver._left_vector
        def counted(A_s, *args):
            parts.append(_CountingPart(A_s))
            return left(parts[-1], *args)
        monkeypatch.setattr(solver, "_left_vector", counted)
        return solve(A, cfg), [p.products for p in parts]

    @pytest.mark.parametrize("ex", ["ex51", "ex52"])
    @pytest.mark.parametrize("n", [2, 3, 16, 100, 333])
    @pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(delta1=1e-14), SolverConfig(rho=1.0)])
    def test_symmetric_standard_part_takes_one_left_product(self, monkeypatch, ex, n, cfg):
        # A_s = A_s^T, so x_s approximates its left Perron vector as closely as
        # its right one: it certifies at once, at every stop
        A = generate(ExampleSpec(ex, n=n))
        assert np.array_equal(A.standard, A.standard.T)
        result, products = self.count_left_products(monkeypatch, A, cfg)
        assert result.flag != Flag.NOT_CONVERGED
        assert products and products == [1] * len(products)

    def test_other_parts_take_more(self, monkeypatch):
        result, products = self.count_left_products(
            monkeypatch, generate(ExampleSpec("ex53", n=100)), SolverConfig())
        assert result.flag == Flag.CONVERGED_FULL and products[0] > 1

    @pytest.mark.parametrize("ex,n,seed", [("ex53", 10, 0), ("ex53", 100, 0), ("ex53", 200, 0),
                                           ("ex54", 12, 3), ("ex54", 100, 0), ("ex54", 200, 7),
                                           ("ex54", *EX54_LAMBDA_D_MISSES[0])])
    @pytest.mark.parametrize("delta1,flag", [(1e-8, Flag.CONVERGED_FULL),
                                             (1e-14, Flag.CONVERGED_STANDARD)])
    def test_lambda_d_meets_the_oracle_at_both_flags(self, ex, n, seed, delta1, flag):
        A = generate(ExampleSpec(ex, n=n, seed=seed))
        result = solve(A, SolverConfig(delta1=delta1))
        assert result.flag == flag
        ref = lambda_d_oracle(A, spectrum(A.standard))
        # verify's tolerance on lambda_d
        tol = delta1 * frn_norm(A) + 1e-6 * (abs(ref) + float(np.linalg.norm(A.dual)))
        assert abs(result.eigenvalue.dual - ref) <= tol

    def test_a_left_vector_that_does_not_certify_is_refused(self, monkeypatch):
        # equal row sums: the all-ones start is A_s's right Perron vector, so
        # the loop stops at k = 1, but its left Perron vector is (1, 5)/6
        A = DualMatrix([[0.5, 0.5], [0.1, 0.9]], [[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(RankDeficient, match="left Perron vector not certified within k_max=20"):
            solve(A, SolverConfig(k_max=20))
        result, products = self.count_left_products(monkeypatch, A, SolverConfig())
        assert result.eigenvalue.dual == pytest.approx(11 / 6, rel=1e-12)
        assert min(products) > 20


class TestStopThatFailsTheResidualGuard:
    """A stop whose eigenpair misses C3's residual limit keeps iterating."""

    def test_index_sums_at_n2(self):
        # all-ones is A_s's Perron vector: the standard gap closes at k=1,
        # long before x_d has converged
        A = generate(ExampleSpec("ex52", n=2))
        result = solve(A, SolverConfig(rho=1.0))
        assert (result.flag, result.iterations) == (Flag.CONVERGED_STANDARD, 21)
        assert result.eigenvalue == DualNumber(3.0, 1.5)
        assert result.eigenvalue.dual == pytest.approx(lambda_d_oracle(A, spectrum(A.standard)))
        assert result.residual <= 1e-7 * frn_norm(A)

    def test_refused_only_when_the_budget_runs_out(self):
        A = generate(ExampleSpec("ex52", n=2))
        with pytest.raises(RankDeficient, match="numerically singular"):
            solve(A, SolverConfig(k_max=20, rho=1.0))
        assert solve(A, SolverConfig(k_max=21, rho=1.0)).flag == Flag.CONVERGED_STANDARD

    @pytest.mark.parametrize("ex,n,cfg,k", [
        ("ex51", 10, SolverConfig(delta2=1e-8, rho=1.0), 28),
        ("ex53", 100, SolverConfig(delta2=1e-8, rho=1.0), 60),
        ("ex53", 10, SolverConfig(delta1=1e-6, rho=1.0), 27),
    ])
    def test_loosened_tolerances_are_answered(self, ex, n, cfg, k):
        A = generate(ExampleSpec(ex, n=n))
        result = solve(A, cfg)
        assert result.iterations == k
        assert result.residual <= 1e-7 * frn_norm(A)
        ref = lambda_d_oracle(A, spectrum(A.standard))
        assert abs(result.eigenvalue.dual - ref) <= 1e-6 * (1.0 + abs(ref))


class TestBounds:
    def test_row_sums_of_identity(self):
        lo, hi = row_sum_bounds(DualMatrix(np.eye(2), np.zeros((2, 2))))
        assert lo == hi == DualNumber(1, 0)

    def test_swap_family_row_sums_equal_eigenvalue(self):
        A = generate(ExampleSpec("ex2"))
        lo, hi = row_sum_bounds(A)
        assert lo == hi == DualNumber(1, 2)
        assert lo == solve(A).eigenvalue

    @pytest.mark.parametrize("ex,n,seed", [("ex2", 2, 0)] + [
        (ex, n, 0) for ex in ("ex51", "ex52", "ex53") for n in (3, 16, 200, 1000)
    ] + [("ex54", n, seed) for n in (2, 16, 200, 1000) for seed in (1, 2, 3)])
    def test_row_sums_are_the_first_trace_bounds(self, ex, n, seed):
        # one Collatz routine at x = 1: the bracket is solve's k = 0 record, bit for bit
        A = generate(ExampleSpec(ex, n=n, seed=seed))
        r = solve(A)
        bits = lambda lo, hi: np.array([lo.standard, lo.dual, hi.standard, hi.dual]).tobytes()
        assert bits(*row_sum_bounds(A)) == bits(r.lower[0], r.upper[0])

    def test_star_family_bracket(self):
        A = generate(ExampleSpec("ex51", n=10))
        lo, hi = row_sum_bounds(A)
        assert lo.standard == pytest.approx(1.0)
        assert hi.standard == pytest.approx(9.0)
        lam = solve(A).eigenvalue
        assert lo <= lam <= hi

    def test_minimax_at_the_eigenvector(self):
        A = generate(ExampleSpec("ex2"))
        result = solve(A)
        lo, hi = minimax_ratios(A, result.eigenvector)
        assert lo.standard == pytest.approx(1.0, abs=1e-10)
        assert hi.standard == pytest.approx(1.0, abs=1e-10)
        assert lo.dual == pytest.approx(2.0, abs=1e-9)
        assert hi.dual == pytest.approx(2.0, abs=1e-9)

    def test_minimax_all_ones_on_swap_family(self):
        A = generate(ExampleSpec("ex2"))
        lo, hi = minimax_ratios(A, DualVector(np.ones(2), np.zeros(2)))
        assert lo == hi == DualNumber(1, 2)

    def test_minimax_sandwich_random_vectors(self):
        A = generate(ExampleSpec("ex52", n=7))
        lam = solve(A).eigenvalue
        for _ in range(20):
            x = DualVector(RNG.uniform(0.2, 3.0, 7), RNG.standard_normal(7))
            lo, hi = minimax_ratios(A, x)
            assert lo <= lam <= hi

    def test_minimax_requires_positive_vector(self):
        A = generate(ExampleSpec("ex52", n=4))
        with pytest.raises(NonPositiveVector):
            minimax_ratios(A, DualVector([1, 1, 0, 1], np.zeros(4)))


def _monotone_cases():
    # ex51-ex53 at both tolerances, then ex54 and ex2; each under the
    # default per-step shift and under a fixed rho = 1
    rng = np.random.default_rng(7)
    cases = [(ExampleSpec(ex, n=n), f"{ex}-{n}", delta1)
             for ex in ("ex51", "ex52", "ex53") for n in (2, 3, 10, 37, 100, 157)
             for delta1 in (1e-8, 1e-14)]
    cases += [(ExampleSpec("ex54", n=n), f"ex54-{n}", 1e-8) for n in range(3, 21)]
    cases += [(ExampleSpec("ex2", params=tuple(rng.standard_normal(4))), f"ex2-{i}", 1e-8)
              for i in range(20)]
    for spec, name, delta1 in cases:
        for rho in (None, 1.0):
            tag = name + ("" if delta1 == 1e-8 else f"-{delta1:g}") + ("" if rho is None else "-rho1")
            yield pytest.param(spec, delta1, rho, id=tag)


def every_row_search(rhos, x_s, x_d, a_s, a_d, b_s, b_d):
    """The default-shift search as it was before the prune: the full bounds
    of every candidate row, then the first row of least full gap."""
    r = rhos[:, None]
    y_s, y_d = a_s + r * x_s, a_d + r * x_d
    z_s, z_d = b_s + r * a_s, b_d + r * a_d
    std = z_s / y_s
    dl = z_d / y_s - std * y_d / y_s
    lo_s, hi_s = std.min(axis=1, keepdims=True), std.max(axis=1, keepdims=True)
    lo_d = np.where(std == lo_s, dl, np.inf).min(axis=1)
    hi_d = np.where(std == hi_s, dl, -np.inf).max(axis=1)
    lo_s, hi_s = lo_s[:, 0], hi_s[:, 0]
    row = int(np.argmin(np.hypot(hi_s - lo_s, hi_d - lo_d)))
    return (row, y_s[row], y_d[row], z_s[row], z_d[row],
            (float(lo_s[row]), float(lo_d[row])), (float(hi_s[row]), float(hi_d[row])))


def _search_input(ex, n):
    """A family's matrix, or one of the harder inputs for the search:
    ex53's pattern with A_d = A_s ("ex53-dual-is-standard"), and ex53 under
    the diagonal similarity d_i = 2^(k_i), k_i seeded in [-10, 10], exact in
    binary ("ex53-dyadic")."""
    if ex == "ex53-dual-is-standard":
        A_s = generate(ExampleSpec("ex53", n=n)).standard
        return DualMatrix(A_s, A_s)
    if ex == "ex53-dyadic":
        A = generate(ExampleSpec("ex53", n=n))
        d = np.ldexp(1.0, np.random.default_rng(n).integers(-10, 11, n))
        return DualMatrix(d[:, None] * A.standard / d, d[:, None] * A.dual / d)
    return generate(ExampleSpec(ex, n=n, seed=n))


@st.composite
def _search_states(draw):
    """A positive state ``(rhos, x_s, x_d, a_s, a_d, b_s, b_d)`` of small
    integers, so that quotients and gaps tie often. With no dual part, a
    full gap is the standard gap, and those tie across rows. In some,
    ``x_s`` is an exact eigenvector of the standard part, so every row's
    standard gap is 0; in some of those the dual quotients are ``w/x_s`` at
    every shift, so every row has the same full gap, and the first row must
    win."""
    n = draw(st.integers(2, 9))
    ints = lambda lo, hi: np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), float)
    x_s, a_s, b_s = ints(1, 4), ints(1, 4), ints(1, 4)
    x_d, a_d, b_d = ints(-3, 3), ints(-3, 3), ints(-3, 3)
    ties = draw(st.sampled_from(["none", "no dual part", "standard", "every row"]))
    if ties == "no dual part":
        x_d = a_d = b_d = np.zeros(n)
    if ties != "none":
        lam = draw(st.sampled_from([0.5, 1.0, 3.0]))
        a_s, b_s = lam * x_s, lam * lam * x_s
    if ties == "every row":
        w = ints(-3, 3)
        a_d = lam * x_d + w
        b_d = lam * a_d + lam * w
    rhos = np.ldexp(1.0, draw(st.integers(-4, 4)) + solver._SHIFT_GRID)
    return rhos, x_s, x_d, a_s, a_d, b_s, b_d


# each family at a small and a large n, the smallest inputs, and the harder
# inputs of _search_input; ex51 at n = 2000 leaves the most rows to the probe
# bounds; ex51 and ex54 on either side of the probe threshold
SEARCH_INPUTS = [("ex51", 37), ("ex51", 1000), ("ex52", 37), ("ex52", 600), ("ex53", 100),
                 ("ex53", 1000), ("ex54", 10), ("ex54", 600), ("ex2", 2), ("ex54", 2),
                 ("ex53-dual-is-standard", 200), ("ex53-dyadic", 100), ("ex51", 2000)]
SEARCH_INPUTS += [(ex, n) for ex in ("ex51", "ex54")
                  for n in (solver._PROBE_MIN_N - 1, solver._PROBE_MIN_N)]


class TestShiftSearch:
    """``solver._shift_search`` evaluates only the rows that can win; it must
    pick what evaluating every row picks, bit for bit, by either path: the
    probe bounds (from ``_PROBE_MIN_N`` on) or one batch of every row."""

    @staticmethod
    def assert_same(args):
        got, ref = solver._shift_search(*args), every_row_search(*args)
        assert got[0] == ref[0] and got[5:] == ref[5:]
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got[1:5], ref[1:5]))

    @staticmethod
    def recorded_states(monkeypatch, A, cfg):
        states = []
        search = solver._shift_search

        def record(*args):
            states.append(args)
            return search(*args)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_shift_search", record)
            solve(A, cfg)
        return states

    @pytest.mark.parametrize("ex, n", SEARCH_INPUTS)
    @pytest.mark.parametrize("delta1", [1e-8, 1e-14])
    @pytest.mark.parametrize("rho", [None, 1.0])
    def test_solve_states(self, monkeypatch, ex, n, delta1, rho):
        A = _search_input(ex, n)
        states = self.recorded_states(monkeypatch, A, SolverConfig(delta1=delta1, rho=rho))
        assert states and all(len(args[0]) == (14 if rho is None else 1) for args in states)
        for args in states:
            self.assert_same(args)

    @pytest.mark.parametrize("ex, n", SEARCH_INPUTS)
    @pytest.mark.parametrize("delta1", [1e-8, 1e-14])
    def test_solve_states_by_either_path(self, monkeypatch, ex, n, delta1):
        states = self.recorded_states(monkeypatch, _search_input(ex, n), SolverConfig(delta1=delta1))
        for min_n in (0, math.inf):
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_PROBE_MIN_N", min_n)
                for args in states:
                    self.assert_same(args)

    # no dual part, so a full gap is the standard gap: rows tie in full gap
    # with probe bounds that differ, so the probe path must evaluate a row
    # whose bound equals the least gap so far, and give the tie to the
    # lower row though it comes later in the order of the bounds
    @pytest.mark.parametrize("e, x_s, a_s, b_s", [(2, [3, 4, 1, 1, 2], [1, 2, 2, 4, 4], [3, 1, 4, 2, 4]),
                                                  (0, [4, 2, 1], [2, 1, 4], [3, 1, 1])])
    def test_tied_rows_of_unequal_bounds(self, monkeypatch, e, x_s, a_s, b_s):
        zero = np.zeros(len(x_s))
        args = (np.ldexp(1.0, e + solver._SHIFT_GRID), np.array(x_s, float), zero,
                np.array(a_s, float), zero, np.array(b_s, float), zero)
        for min_n in (0, math.inf):
            monkeypatch.setattr(solver, "_PROBE_MIN_N", min_n)
            self.assert_same(args)

    @settings(max_examples=300, deadline=None)
    @given(_search_states())
    def test_random_states_by_either_path(self, args):
        for min_n in (0, math.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_PROBE_MIN_N", min_n)
                self.assert_same(args)

    @pytest.mark.parametrize("ex", ["ex53", "ex51"])
    def test_rows_evaluated_per_step(self, monkeypatch, ex):
        # rows given standard quotients per step of a default solve at
        # n = 2000: 14 for a scan of the whole grid, 1.74 on ex53 and 1.83
        # on ex51 after the probe bounds (a count that repeats exactly)
        n, rows = 2000, []
        candidates = solver._candidates

        def count(r, x_s, a_s, b_s):
            y_s, z_s = candidates(r, x_s, a_s, b_s)
            if z_s.shape[-1] == n:  # not the probe entries
                rows.append(z_s.size // n)
            return y_s, z_s
        monkeypatch.setattr(solver, "_candidates", count)
        result = solve(generate(ExampleSpec(ex, n=n)), SolverConfig(delta1=1e-14))
        assert sum(rows) / len(result.shifts) <= 3

    @pytest.mark.parametrize("ex", ["ex51", "ex54"])
    def test_one_batch_of_every_row_below_the_threshold(self, monkeypatch, ex):
        # below _PROBE_MIN_N each default step evaluates all 14 rows in full,
        # in one call, and nothing else
        calls = []
        full_gaps = solver._full_gaps

        def count(r, *args):
            calls.append(np.shape(r))
            return full_gaps(r, *args)
        monkeypatch.setattr(solver, "_full_gaps", count)
        result = solve(generate(ExampleSpec(ex, n=solver._PROBE_MIN_N - 1)))
        assert calls == [(14, 1)] * len(result.shifts)

    @pytest.mark.parametrize("n", [6, 600])
    def test_exact_eigenvector_ties_every_row(self, n):
        # constant row sums: x = 1 is an exact eigenvector, so every shift
        # leaves a zero gap and the first row, the smallest shift, wins
        A_s, A_d = np.full((n, n), 0.5), np.eye(n)[::-1] * 3.0
        x_s, x_d = np.ones(n), np.zeros(n)
        a_s, a_d = A_s @ x_s, A_d @ x_s
        b_s, b_d = A_s @ a_s, A_s @ a_d + A_d @ a_s
        args = (np.ldexp(1.0, 2 + solver._SHIFT_GRID), x_s, x_d, a_s, a_d, b_s, b_d)
        got = solver._shift_search(*args)
        assert got[0] == 0 and got[5] == got[6] and got[5][0] == 0.5 * n
        self.assert_same(args)


class TestMonotonicity:
    @pytest.mark.parametrize("spec,delta1,rho", _monotone_cases())
    def test_bound_sequences(self, spec, delta1, rho):
        result = solve(generate(spec), SolverConfig(delta1=delta1, rho=rho))
        assert result.flag != Flag.NOT_CONVERGED
        assert_monotone(result)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(k_max=0)
        with pytest.raises(ValueError):
            SolverConfig(delta1=0.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=-1.0)
        for rho in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                SolverConfig(rho=rho)

    @pytest.mark.parametrize("field", ["delta1", "delta2"])
    def test_tolerances_must_be_positive_and_finite(self, field):
        # an infinite tolerance passes any answer
        for delta in (float("inf"), float("nan"), -1e-8):
            with pytest.raises(ValueError, match="delta1 and delta2 must be positive and finite"):
                SolverConfig(**{field: delta})

    def test_budget_must_be_an_integer(self):
        for k_max in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                SolverConfig(k_max=k_max)
        result = solve(generate(ExampleSpec("ex51", n=10)), SolverConfig(k_max=np.int64(3)))
        assert result.iterations == 3

    def test_shifts_are_reported(self):
        # the default shift of step k is 2^(e+j), with j on the grid [-12, 1]
        # and e the exponent of the lower bound at k - 1
        specs = [ExampleSpec(ex, n=50) for ex in ("ex51", "ex52", "ex53", "ex54")] + [ExampleSpec("ex2")]
        for spec in specs:
            result = solve(generate(spec))
            assert len(result.shifts) == result.iterations
            for rec, rho in zip(result.trace, result.shifts):
                j = math.log2(rho) - math.frexp(rec.lower_s)[1]
                assert j.is_integer() and -12 <= j <= 1, (spec.id, rec.k, rho, rec.lower_s)
        A = generate(ExampleSpec("ex51", n=10))
        assert solve(A, SolverConfig(rho=0.75, k_max=5)).shifts == [0.75] * 5


@pytest.mark.slow
def test_default_shift_step_totals():
    # Total steps of the default shift on ex51-ex53 over the shift-comparison
    # set of ROADMAP.md's Baseline stay at the totals measured at 1 and 2
    # BLAS threads, so one step more on any family shows here.
    measured = {"ex51": 164, "ex52": 98, "ex53": 591}
    totals = {ex: sum(solve(generate(ExampleSpec(ex, n=n)), SolverConfig(delta1=delta1)).iterations
                      for n in (5, 16, 37, 100, 333, 1000, 2000) for delta1 in (1e-8, 1e-14))
              for ex in measured}
    assert all(totals[ex] <= measured[ex] for ex in measured), totals
