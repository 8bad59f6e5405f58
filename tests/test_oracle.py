import numpy as np
import pytest

from dualperron import (
    DualMatrix,
    ExampleSpec,
    NoPositivePerronVector,
    NotSquare,
    TooLarge,
    dual_part_at,
    fd_check,
    generate,
    lambda_d_oracle,
    spectrum,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # as DualMatrix refuses them, not numpy's LinAlgError
        with pytest.raises(ValueError, match="entries must be finite"):
            spectrum([[bad, 1], [1, 1]])

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
