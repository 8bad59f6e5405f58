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
    RankDeficient,
    SolverConfig,
    StructureViolation,
    classify,
    collatz_step,
    eigen_residual,
    frn_norm,
    generate,
    is_unit,
    lambda_d_oracle,
    minimax_ratios,
    row_sum_bounds,
    solve,
    solve_dual_part,
    spectrum,
)
from dualperron import solver

RNG = np.random.default_rng(3)


def assert_monotone(result):
    for k in range(len(result.lower) - 1):
        assert result.lower[k] <= result.lower[k + 1], f"lower bound regressed at k={k}"
        assert result.upper[k + 1] <= result.upper[k], f"upper bound regressed at k={k}"
        assert result.lower[k] <= result.upper[k]
    assert result.lower[-1] <= result.upper[-1]


class TestCollatzStep:
    def test_fixed_point_of_scaled_identity(self):
        B = DualMatrix(2 * np.eye(2), np.zeros((2, 2)))
        x = DualVector(np.full(2, np.sqrt(0.5)), np.zeros(2))
        x_next, lower, upper = collatz_step(B, x)
        assert lower == upper == DualNumber(2, 0)
        assert np.allclose(x_next.standard, x.standard)
        assert np.allclose(x_next.dual, 0.0)

    def test_hand_computed_ratios(self):
        B = DualMatrix(np.ones((2, 2)), np.zeros((2, 2)))
        xs = np.array([1.0, 0.5])
        x = DualVector(xs / np.linalg.norm(xs), np.zeros(2))
        _, lower, upper = collatz_step(B, x)
        # components of Bx are equal, so the ratios are 1.5/1 and 1.5/0.5
        assert lower.standard == pytest.approx(1.5)
        assert upper.standard == pytest.approx(3.0)
        assert lower.dual == upper.dual == 0.0

    def test_shifted_swap_family_is_stationary(self):
        A = generate(ExampleSpec("ex2"))
        B = DualMatrix(A.standard + np.eye(2), A.dual)
        x = DualVector(np.full(2, np.sqrt(0.5)), np.zeros(2))
        _, lower, upper = collatz_step(B, x)
        assert lower == upper
        assert lower.standard == pytest.approx(2.0)
        assert lower.dual == pytest.approx(2.0)

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_bounds_match_solve_at_k0(self, ex):
        # solve starts from the all-ones vector: its k = 0 bounds are this
        # step's bounds on B = A + rho*I, de-shifted, bit for bit
        A = generate(ExampleSpec(ex, n=16))
        rho = 0.75
        B = DualMatrix(A.standard + rho * np.eye(16), A.dual)
        _, lower, upper = collatz_step(B, DualVector(np.ones(16), np.zeros(16)))
        result = solve(A, SolverConfig(rho=rho))
        assert DualNumber(lower.standard - rho, lower.dual) == result.lower[0]
        assert DualNumber(upper.standard - rho, upper.dual) == result.upper[0]

    def test_rejects_nonpositive_iterate(self):
        B = DualMatrix(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NonPositiveIterate):
            collatz_step(B, DualVector([1.0, 0.0], [0, 0]))


class TestSolve:
    def test_swap_family_closed_form(self):
        result = solve(generate(ExampleSpec("ex2")))
        assert result.flag == Flag.CONVERGED_FULL
        assert result.eigenvalue.standard == pytest.approx(1.0, abs=1e-12)
        assert result.eigenvalue.dual == pytest.approx(2.0, abs=1e-12)
        assert is_unit(result.eigenvector, tol=1e-12)
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

    def test_custom_start_must_be_positive(self):
        A = generate(ExampleSpec("ex52", n=4))
        bad = DualVector([1.0, 1.0, -1.0, 1.0], np.zeros(4))
        with pytest.raises(NonPositiveIterate):
            solve(A, SolverConfig(x0=bad))

    def test_custom_start_converges_to_same_pair(self):
        A = generate(ExampleSpec("ex52", n=6))
        base = solve(A)
        seeded = solve(A, SolverConfig(x0=DualVector(RNG.uniform(0.5, 2.0, 6), RNG.standard_normal(6))))
        assert seeded.eigenvalue.standard == pytest.approx(base.eigenvalue.standard, abs=1e-6)
        assert seeded.eigenvalue.dual == pytest.approx(base.eigenvalue.dual, abs=1e-5)

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
            assert is_unit(result.eigenvector, tol=1e-10)

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
        ref = solve(A)
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
        # entries near 1e153: the input norm and B*y are finite, but ||y||
        # squares before it sums and overflows
        A = generate(ExampleSpec("ex51", n=16))
        big = DualMatrix(1e153 * A.standard, 1e153 * A.dual)
        assert np.isfinite(frn_norm(big))
        with pytest.raises(NonPositiveIterate, match="iterate norm overflowed"):
            solve(big, SolverConfig(rho=1e153))

    def test_input_norm_overflow_is_named(self):
        # the stopping tolerance would be inf, and the solve would report
        # flag 1 with an infinite residual after one step
        A = generate(ExampleSpec("ex52", n=10))
        with pytest.raises(NonPositiveIterate, match="input F\\^R-norm is not finite"):
            solve(DualMatrix(A.standard, 1e155 * A.dual))


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
                op = solver._Nonzeros(a)
                rows, cols = np.nonzero(a)
                assert np.array_equal(op.rows, rows) and np.array_equal(op.cols, cols)
                assert op.vals.tobytes() == a[rows, cols].tobytes()
            y = RNG.standard_normal(n)
            got = solver._Nonzeros(m) @ y
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.all(np.abs(got - m @ y) <= 1e-15 * (np.abs(m) @ np.abs(y)))
            # the reflected product, which the left iterate uses
            got = y @ solver._Nonzeros(m)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.all(np.abs(got - y @ m) <= 1e-15 * (np.abs(y) @ np.abs(m)))

    @staticmethod
    def solve_both(monkeypatch, A, cfg=None):
        fast = solve(A, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_operator", lambda m: m)
            dense = solve(A, cfg)
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


@pytest.fixture(scope="module")
def unscaled():
    examples = {}
    for ex in ("ex51", "ex52", "ex53", "ex54"):
        A = generate(ExampleSpec(ex, n=16))
        examples[ex] = (A, solve(A))
    return examples


class TestPowerOfTwoScaling:
    @settings(max_examples=60, deadline=None)
    @given(ex=st.sampled_from(("ex51", "ex52", "ex53", "ex54")), k=st.integers(-300, 300))
    def test_scaling_by_two_to_the_k_is_exact(self, unscaled, ex, k):
        # B = s*A + s*I is exactly s times the unscaled shifted matrix, so
        # every product, quotient and norm scales exactly: same steps, and
        # bounds and eigenvalue exactly s times the unscaled ones
        s = 2.0**k
        A, ref = unscaled[ex]
        got = solve(DualMatrix(s * A.standard, s * A.dual), SolverConfig(rho=s))
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


class TestContractionRate:
    def test_weakly_positive_gap_contracts(self):
        A = generate(ExampleSpec("ex52", n=10))
        alpha = classify(A.standard, rho=1.0).alpha
        result = solve(A, SolverConfig(delta1=1e-300, delta2=1e-301, k_max=120))
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

    def test_flag2_recovery_matches_oracle(self):
        A = generate(ExampleSpec("ex52", n=10))
        result = solve(A, SolverConfig(delta1=1e-300, delta2=1e-12, k_max=400))
        assert result.flag == Flag.CONVERGED_STANDARD
        report = spectrum(A.standard)
        assert result.eigenvalue.dual == pytest.approx(lambda_d_oracle(A, report), abs=1e-9)
        assert is_unit(result.eigenvector, tol=1e-10)
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
        # B = A + I rounds A away: the bounds close within two steps on
        # lambda_s = 0 (or eps), and the eigenpair misses C3's residual limit
        A = generate(ExampleSpec(ex, n=16))
        scaled = DualMatrix(10.0**k * A.standard, 10.0**k * A.dual)
        if (ex, k) == ("ex52", -17):
            # its largest entries pass rho's rounding: the bounds never close
            assert solve(scaled).flag == Flag.NOT_CONVERGED
            return
        with pytest.raises(RankDeficient, match="numerically singular"):
            solve(scaled)


class TestBounds:
    def test_row_sums_of_identity(self):
        lo, hi = row_sum_bounds(DualMatrix(np.eye(2), np.zeros((2, 2))))
        assert lo == hi == DualNumber(1, 0)

    def test_swap_family_row_sums_equal_eigenvalue(self):
        A = generate(ExampleSpec("ex2"))
        lo, hi = row_sum_bounds(A)
        assert lo == hi == DualNumber(1, 2)
        assert lo == solve(A).eigenvalue

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


class TestMonotonicity:
    @pytest.mark.parametrize("ex,n", [("ex51", 10), ("ex52", 10), ("ex53", 10), ("ex54", 12)])
    def test_bound_sequences(self, ex, n):
        result = solve(generate(ExampleSpec(ex, n=n)))
        assert_monotone(result)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(k_max=0)
        with pytest.raises(ValueError):
            SolverConfig(delta1=0.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=-1.0)
