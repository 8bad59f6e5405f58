import json
import math

import numpy as np
import pytest

from dualperron import (
    DualMatrix,
    DualNumber,
    ExampleSpec,
    Flag,
    NonPositiveIterate,
    NoPositivePerronVector,
    NotSquare,
    SolverConfig,
    TooLarge,
    cli,
    dual_part_at,
    fd_check,
    frn_norm,
    generate,
    lambda_d_oracle,
    solve,
    spectrum,
    verify,
)

RNG = np.random.default_rng(23)


def random_positive_matrix(n):
    return DualMatrix(RNG.uniform(0.1, 1.1, (n, n)), RNG.standard_normal((n, n)))


class TestSpectrum:
    def test_swap_pattern(self):
        report = spectrum([[0, 1], [1, 0]])
        assert sorted(np.round(report.eigenvalues.real, 12)) == [-1.0, 1.0]
        assert report.spectral_radius == pytest.approx(1.0)
        assert np.allclose(report.right_vector, [np.sqrt(0.5)] * 2)
        assert np.allclose(report.left_vector, [np.sqrt(0.5)] * 2)

    def test_scalar(self):
        report = spectrum([[2.0]])
        assert report.spectral_radius == pytest.approx(2.0)

    def test_star_pattern(self):
        A = generate(ExampleSpec("ex51", n=10))
        report = spectrum(A.standard)
        assert report.spectral_radius == pytest.approx(3.0, abs=1e-10)
        assert report.right_vector.min() > 0

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            spectrum(np.eye(201))

    def test_empty_is_not_square(self):
        # not numpy's untyped "zero-size array to reduction operation" error
        with pytest.raises(NotSquare, match="expected a square matrix"):
            spectrum(np.zeros((0, 0)))

    def test_reducible_input_rejected(self):
        # double eigenvalue at the spectral radius, no positive eigenvector
        with pytest.raises(NoPositivePerronVector):
            spectrum([[1, 1], [0, 1]])

    def test_complex_dominant_eigenvector_rejected(self):
        # 1 +- 1e-7i: both within 1e-6 of the modulus, and 2e-7 apart, so
        # the pair passes the simple-root test and its vector is complex
        with pytest.raises(NoPositivePerronVector, match="dominant eigenvector is not real"):
            spectrum(np.array([[1.0, -1e-7], [1e-7, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # as DualMatrix refuses them, not numpy's LinAlgError
        with pytest.raises(ValueError, match="entries must be finite"):
            spectrum([[bad, 1], [1, 1]])

    def test_size_guard_runs_before_the_part_is_made_dense(self):
        part = generate(ExampleSpec("ex53", n=100_000))._parts[0]  # a dense view needs 74.5 GiB
        with pytest.raises(TooLarge, match="dense spectrum limited to n <= 200, got 100000"):
            spectrum(part)
        assert "dense" not in vars(part)

    def test_stored_part(self):
        # ex53 at n=60 is held as its nonzeros; its dense array gives the same bits
        A = generate(ExampleSpec("ex53", n=60))
        rho = spectrum(A._parts[0]).spectral_radius
        assert rho == spectrum(A.standard).spectral_radius


class TestDualPartFormula:
    def test_swap_family_closed_form(self):
        for _ in range(10):
            a, b, c, d = RNG.standard_normal(4)
            A = generate(ExampleSpec("ex2", params=(a, b, c, d)))
            report = spectrum(A.standard)
            assert lambda_d_oracle(A, report) == pytest.approx((a + b + c + d) / 2, abs=1e-12)

    def test_zero_dual_part(self):
        A = DualMatrix(RNG.uniform(0.1, 1.0, (4, 4)), np.zeros((4, 4)))
        assert lambda_d_oracle(A, spectrum(A.standard)) == 0.0

    def test_dual_equal_standard(self):
        base = RNG.uniform(0.1, 1.0, (5, 5))
        A = DualMatrix(base, base)
        report = spectrum(A.standard)
        assert lambda_d_oracle(A, report) == pytest.approx(report.spectral_radius, rel=1e-10)

    def test_scaling_invariance(self):
        A = random_positive_matrix(6)
        report = spectrum(A.standard)
        reference = lambda_d_oracle(A, report)
        report.right_vector = 17.5 * report.right_vector
        report.left_vector = 0.003 * report.left_vector
        assert lambda_d_oracle(A, report) == pytest.approx(reference, abs=1e-12)

    def test_nan_target_matches_no_eigenvalue(self):
        # every comparison with NaN is False: a test for "too far" matched w[0]
        with pytest.raises(NoPositivePerronVector, match="no eigenvalue near nan"):
            dual_part_at(generate(ExampleSpec("ex52", n=5)), np.nan)

    def test_size_guard(self):
        A = DualMatrix(np.eye(201), np.eye(201))
        with pytest.raises(TooLarge, match="dense spectrum limited to n <= 200, got 201"):
            dual_part_at(A, 1.0)

    def test_size_guard_runs_before_the_part_is_made_dense(self):
        A = generate(ExampleSpec("ex53", n=100_000))
        with pytest.raises(TooLarge, match="dense spectrum limited to n <= 200, got 100000"):
            dual_part_at(A, 1.0)
        assert "dense" not in vars(A._parts[0])

    def test_defective_root_has_no_dual_part(self):
        # ex1's standard part [[1, 1], [0, 1]] has one eigenvector on each side, and they are orthogonal
        with pytest.raises(NoPositivePerronVector, match="eigenvectors at 1.0 are orthogonal"):
            dual_part_at(generate(ExampleSpec("ex1")), 1.0)

    def test_second_eigenpair_of_swap_family(self):
        for _ in range(10):
            a, b, c, d = RNG.standard_normal(4)
            A = generate(ExampleSpec("ex2", params=(a, b, c, d)))
            value = dual_part_at(A, -1.0)
            assert value.real == pytest.approx((a - b - c + d) / 2, abs=1e-10)
            assert abs(value.imag) <= 1e-10


SCALES = (1e-100, 1e13, 1e150)


class TestScaledInputs:
    # The oracle's thresholds are in the units of what they test, so s*A
    # gives s times the answers for A at any scale s.
    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_spectrum(self, ex):
        A_s = generate(ExampleSpec(ex, n=16, seed=16)).standard
        ref = spectrum(A_s)
        for s in SCALES:
            report = spectrum(s * A_s)
            assert report.spectral_radius == pytest.approx(s * ref.spectral_radius, rel=1e-13)
            perron = report.eigenvalues[report.perron_index]
            assert perron == pytest.approx(s * ref.eigenvalues[ref.perron_index], rel=1e-13)
            assert np.allclose(report.right_vector, ref.right_vector, rtol=1e-12, atol=0.0)
            assert np.allclose(report.left_vector, ref.left_vector, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_dual_part_at(self, ex):
        A = generate(ExampleSpec(ex, n=16, seed=16))
        w = spectrum(A.standard).eigenvalues
        targets = (w[np.argmax(w.real)], w[np.argmin(w.real)])
        ref = [dual_part_at(A, mu) for mu in targets]
        for s in SCALES:
            got = [dual_part_at(A * s, s * mu) for mu in targets]
            for g, r in zip(got, ref):
                assert abs(g - s * r) <= 1e-13 * abs(s * r)


class TestFiniteDifference:
    def test_swap_family_is_exact_to_roundoff(self):
        A = generate(ExampleSpec("ex2"))
        report = spectrum(A.standard)
        assert fd_check(A, report) <= 1e-6

    def test_zero_dual_part(self):
        A = DualMatrix(RNG.uniform(0.1, 1.0, (4, 4)), np.zeros((4, 4)))
        assert fd_check(A, spectrum(A.standard)) <= 1e-12

    def test_zero_standard_part(self):
        # 1x1 [[0]] is the one zero A_s the spectrum accepts; its step cannot scale with ||A_s||
        A = DualMatrix([[0.0]], [[3.0]])
        assert fd_check(A, spectrum(A.standard)) <= 1e-12

    def test_random_positive(self):
        for n in (3, 5, 8):
            A = random_positive_matrix(n)
            assert fd_check(A, spectrum(A.standard)) <= 1e-5

    def test_step_scales_with_the_standard_part(self):
        # Perron root 2.6e4 against a dual part of norm ~1: an absolute step
        # of 1e-6 left eigvals round-off / 2t at 3.5e-5, above the verify
        # tolerance 1e-5 * (1 + |lambda_d|) = 3.0e-5
        A = generate(ExampleSpec("ex52", n=157))
        report = spectrum(A.standard)
        assert fd_check(A, report) <= 1e-7

    @staticmethod
    def verify_tolerance(A, report):
        # cli verify's tol_fd
        return 1e-5 * (abs(lambda_d_oracle(A, report)) + np.linalg.norm(A.dual))

    def test_tiny_dual_part(self):
        # ||A_d||_F = 1e-200: its squares underflow in numpy's norm, which
        # once made the step 1e-6 and the discrepancy lambda_d itself
        A = generate(ExampleSpec("ex2", params=(1e-200, 0.0, 0.0, 0.0)))
        report = spectrum(A.standard)
        assert fd_check(A, report) <= 1e-10 * abs(lambda_d_oracle(A, report))

    def test_dual_part_in_large_units(self):
        # with the step floored at 1e-6, t*A_d swamped A_s: 1.9e4 against lambda_d = 1.9e6
        A = generate(ExampleSpec("ex54", n=12, seed=3))
        A = DualMatrix(A.standard, 1e6 * A.dual)
        report = spectrum(A.standard)
        assert fd_check(A, report) <= 1e-3 * self.verify_tolerance(A, report)

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_follows_the_units_of_the_dual_part(self, ex):
        A = generate(ExampleSpec(ex, n=12, seed=3))
        report = spectrum(A.standard)
        ref = fd_check(A, report)
        # a power of two rescales t*A_d by nothing and the discrepancy exactly
        for k in (-996, -300, 20, 40):
            assert fd_check(DualMatrix(A.standard, 2.0**k * A.dual), report) == 2.0**k * ref
        tol = self.verify_tolerance(A, report)  # numpy's norm of 1e-300 * A_d underflows
        for s in (1e-300, 1e-100, 1e6, 1e12):
            assert fd_check(DualMatrix(A.standard, s * A.dual), report) <= 1e-4 * s * tol


def tolerances(A, record, delta1):
    """The documented tolerances on lambda_s and lambda_d, from a record's oracle values."""
    slack = delta1 * frn_norm(A)
    s_d = abs(record["oracle_lambda_d"]) + np.linalg.norm(A.dual)
    return slack + 1e-8 * record["oracle_rho"], slack + 1e-6 * s_d


class TestVerify:
    DELTA1 = SolverConfig.delta1

    @pytest.mark.parametrize("n", [10, 100, 200])
    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_is_the_record_the_cli_prints(self, ex, n, capsys):
        code = cli.main(["verify", "--example", ex, "--n", str(n), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert (code, doc.pop("source"), doc.pop("n")) == (0, ex, n)
        assert doc.pop("flag") in (1, 2)
        A = generate(ExampleSpec(ex, n=n))
        assert verify(A, solve(A).eigenvalue, self.DELTA1) == doc

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_an_answer_moved_past_its_tolerance_fails(self, ex):
        A = generate(ExampleSpec(ex, n=12, seed=3))
        lam = solve(A).eigenvalue
        record = verify(A, lam, self.DELTA1)
        assert record["verdict"] == "pass"
        tol_s, tol_d = tolerances(A, record, self.DELTA1)
        for moved in (lam + 10 * tol_s, lam - 10 * tol_s,
                      lam + DualNumber(0.0, 10 * tol_d), lam - DualNumber(0.0, 10 * tol_d)):
            assert verify(A, moved, self.DELTA1)["verdict"] == "fail"

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_power_of_two_scaling_keeps_the_verdict(self, ex):
        A = generate(ExampleSpec(ex, n=12, seed=3))
        lam = solve(A).eigenvalue
        tol_s, _ = tolerances(A, verify(A, lam, self.DELTA1), self.DELTA1)
        wrong = lam + 10 * tol_s
        for k in (-300, -30, 30, 300):
            s = math.ldexp(1.0, k)
            B = DualMatrix(s * A.standard, s * A.dual)
            assert verify(B, s * lam, self.DELTA1)["verdict"] == "pass"
            assert verify(B, s * wrong, self.DELTA1)["verdict"] == "fail"

    def test_a_flag_2_answer_is_judged_at_the_tolerance_its_stop_met(self):
        # delta2 = 1 stops ex52 at n=10 with lambda_s 2.8e-6 off: within the
        # delta2*||A||_FR that stop promises, beyond delta1*||A||_FR
        A = generate(ExampleSpec("ex52", n=10))
        result = solve(A, SolverConfig(delta2=1.0))
        lam = result.eigenvalue
        assert result.flag == Flag.CONVERGED_STANDARD
        assert verify(A, lam, self.DELTA1, result.flag, 1.0)["verdict"] == "pass"
        assert verify(A, lam, self.DELTA1, Flag.CONVERGED_FULL, 1.0)["verdict"] == "fail"
        # below delta1, delta2 leaves the slack at delta1's
        for delta2 in (SolverConfig.delta2, self.DELTA1):
            assert verify(A, lam, self.DELTA1, result.flag, delta2) == verify(A, lam, self.DELTA1)
        with pytest.raises(ValueError, match="delta1 and delta2 must be positive and finite"):
            verify(A, lam, self.DELTA1, result.flag, math.inf)

    def test_size_guard(self):
        with pytest.raises(TooLarge, match="dense spectrum limited to n <= 200, got 201"):
            verify(DualMatrix(np.eye(201), np.eye(201)), DualNumber(1.0), self.DELTA1)
        A = generate(ExampleSpec("ex53", n=100_000))
        with pytest.raises(TooLarge, match="got 100000"):
            verify(A, DualNumber(1.0), self.DELTA1)
        assert "dense" not in vars(A._parts[0])

    @pytest.mark.parametrize("delta1", [math.inf, math.nan, 0.0, -1.0])
    def test_unusable_delta1_is_refused_as_the_solver_refuses_it(self, delta1):
        # at delta1 = inf the slack passed any answer, here 0 for ex51's 2
        A = generate(ExampleSpec("ex51", n=16))
        with pytest.raises(ValueError, match="delta1 and delta2 must be positive and finite"):
            verify(A, DualNumber(0.0, 0.0), delta1)

    def test_overflowing_norm_is_refused_as_the_solver_refuses_it(self):
        # ||A||_FR is inf, so the slack would pass any answer, here 0
        A = 2.0**600 * generate(ExampleSpec("ex51", n=16))
        message = r"input F\^R-norm is not finite: it overflows the double range"
        with pytest.raises(NonPositiveIterate, match=message):
            solve(A)
        with pytest.raises(NonPositiveIterate, match=message):
            verify(A, DualNumber(0.0, 0.0), self.DELTA1)
