import json

import numpy as np
import pytest

from dualperron import (
    DimensionMismatch,
    DualMatrix,
    DualNumber,
    DualVector,
    SingularStandardPart,
    ZeroVector,
    frn_norm,
    inverse,
    is_unit,
    load_matrix,
    matmul,
    matvec,
    normalize,
    save_matrix,
    vec_norm2,
)

RNG = np.random.default_rng(7)


def random_vector(n):
    return DualVector(RNG.standard_normal(n), RNG.standard_normal(n))


def random_matrix(n, diag_boost=0.0):
    return DualMatrix(
        RNG.standard_normal((n, n)) + diag_boost * np.eye(n), RNG.standard_normal((n, n))
    )


class TestNorm:
    def test_real_two_norm(self):
        assert vec_norm2(DualVector([3, 4], [0, 0])) == DualNumber(5, 0)

    def test_dual_part_projection(self):
        assert vec_norm2(DualVector([1, 0], [2, 0])) == DualNumber(1, 2)

    def test_infinitesimal_vector(self):
        assert vec_norm2(DualVector([0, 0], [0, 3])) == DualNumber(0, 3)


class TestNormalize:
    def test_orthogonal_dual_part_scales(self):
        y = normalize(DualVector([2, 0], [0, 2]))
        assert np.allclose(y.standard, [1, 0])
        assert np.allclose(y.dual, [0, 1])

    def test_parallel_dual_part_vanishes(self):
        y = normalize(DualVector([1, 0], [3, 0]))
        assert np.allclose(y.standard, [1, 0])
        assert np.allclose(y.dual, [0, 0])
        assert abs(y.standard @ y.dual) <= 1e-12

    def test_infinitesimal_vector(self):
        y = normalize(DualVector([0, 0], [0, 5]))
        assert np.allclose(y.standard, [0, 1])
        assert np.allclose(y.dual, [0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize(DualVector([0, 0], [0, 0]))

    def test_unit_characterization(self):
        for n in (1, 2, 5, 40):
            for scale in (1.0, 1e-6, 1e6):
                x = random_vector(n) * scale
                y = normalize(x)
                assert is_unit(y, tol=1e-12)
                norm = vec_norm2(y)
                assert abs(norm.standard - 1.0) <= 1e-12
                assert abs(norm.dual) <= 1e-12


class TestMatvec:
    def test_identity(self):
        A = DualMatrix(np.eye(2), np.zeros((2, 2)))
        x = DualVector([1.5, -2], [0.25, 3])
        y = matvec(A, x)
        assert np.array_equal(y.standard, x.standard)
        assert np.array_equal(y.dual, x.dual)

    def test_permutation(self):
        A = DualMatrix([[0, 1], [1, 0]], np.zeros((2, 2)))
        y = matvec(A, DualVector([1, 2], [0, 0]))
        assert np.array_equal(y.standard, [2, 1])
        assert np.array_equal(y.dual, [0, 0])

    def test_infinitesimal_matrix_kills_dual_input(self):
        A = DualMatrix(np.zeros((2, 2)), np.eye(2))
        y = matvec(A, DualVector([1, 2], [9, 9]))
        assert np.array_equal(y.standard, [0, 0])
        assert np.array_equal(y.dual, [1, 2])

    def test_dimension_mismatch(self):
        A = DualMatrix(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            matvec(A, DualVector([1, 2], [0, 0]))

    def test_dual_linearity(self):
        for n in (2, 6, 17):
            A = random_matrix(n)
            x, y = random_vector(n), random_vector(n)
            alpha, beta = DualNumber(0.7, -1.3), DualNumber(-2.1, 0.4)
            left = matvec(A, alpha * x + beta * y)
            right = alpha * matvec(A, x) + beta * matvec(A, y)
            assert np.allclose(left.standard, right.standard, atol=1e-10)
            assert np.allclose(left.dual, right.dual, atol=1e-10)


class TestInverse:
    def test_identity_with_dual_part(self):
        D = RNG.standard_normal((3, 3))
        inv = inverse(DualMatrix(np.eye(3), D))
        assert np.allclose(inv.standard, np.eye(3))
        assert np.allclose(inv.dual, -D)

    def test_diagonal_case(self):
        A = DualMatrix([[2, 0], [0, 4]], np.eye(2))
        inv = inverse(A)
        assert np.allclose(inv.standard, [[0.5, 0], [0, 0.25]])
        assert np.allclose(inv.dual, [[-0.25, 0], [0, -0.0625]])
        prod = matmul(A, inv)
        assert np.allclose(prod.standard, np.eye(2), atol=1e-14)
        assert np.allclose(prod.dual, 0.0, atol=1e-14)

    def test_round_trip(self):
        for n in (2, 5, 12):
            A = random_matrix(n, diag_boost=n)
            inv = inverse(A)
            x = random_vector(n)
            back = matvec(A, matvec(inv, x))
            assert np.allclose(back.standard, x.standard, atol=1e-9)
            assert np.allclose(back.dual, x.dual, atol=1e-9)

    def test_singular_standard_part(self):
        with pytest.raises(SingularStandardPart):
            inverse(DualMatrix([[1, 1], [1, 1]], np.zeros((2, 2))))


class TestFrnNorm:
    def test_examples(self):
        assert frn_norm(DualMatrix(np.eye(2), np.zeros((2, 2)))) == pytest.approx(np.sqrt(2))
        assert frn_norm(DualMatrix(np.zeros((2, 2)), np.eye(2))) == pytest.approx(np.sqrt(2))
        assert frn_norm(DualMatrix([[3.0]], [[4.0]])) == pytest.approx(5.0)

    def test_scalar_and_vector_cases(self):
        assert frn_norm(DualNumber(3, 4)) == pytest.approx(5.0)
        assert frn_norm(DualVector([3, 0], [0, 4])) == pytest.approx(5.0)

    def test_zero_iff_zero(self):
        assert frn_norm(DualMatrix(np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0
        assert frn_norm(DualMatrix([[0, 0], [1e-3, 0]], np.zeros((2, 2)))) > 0.0

    def test_homogeneous_and_triangle(self):
        for n in (2, 4, 9):
            A, B = random_matrix(n), random_matrix(n)
            for c in (-3.5, 0.0, 0.25):
                assert frn_norm(c * A) == pytest.approx(abs(c) * frn_norm(A))
            assert frn_norm(A + B) <= frn_norm(A) + frn_norm(B) + 1e-12


class TestValidation:
    def test_vector_parts_must_match(self):
        with pytest.raises(DimensionMismatch):
            DualVector([1, 2], [1, 2, 3])

    def test_matrix_must_be_square(self):
        with pytest.raises(DimensionMismatch):
            DualMatrix(np.ones((2, 3)), np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DualVector([1, np.nan], [0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["standard", "dual"])
    @pytest.mark.parametrize("kind", [DualVector, DualMatrix])
    def test_each_nonfinite_entry_rejected(self, bad, part, kind):
        parts = {"standard": np.ones((4, 4)), "dual": np.ones((4, 4))}
        parts[part][2, 1] = bad
        if kind is DualVector:
            parts = {key: value[2] for key, value in parts.items()}
        with pytest.raises(ValueError, match="entries must be finite"):
            kind(**parts)

    def test_finite_entries_whose_sum_overflows_are_kept(self):
        big = np.full((2, 2), 1.5e308)
        assert DualMatrix(big, -big).standard[1, 1] == 1.5e308
        assert DualVector(big[0], big[1]).dual[1] == 1.5e308

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            DualVector([], [])
        with pytest.raises(DimensionMismatch):
            DualMatrix(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_storage_is_immutable(self):
        x = DualVector([1, 2], [3, 4])
        with pytest.raises(ValueError):
            x.standard[0] = 9.0


class TestFileFormat:
    def test_matrix_round_trip_is_bitwise(self, tmp_path):
        A = random_matrix(6)
        path = tmp_path / "m.json"
        save_matrix(path, A)
        back = load_matrix(path)
        assert np.array_equal(back.standard, A.standard)
        assert np.array_equal(back.dual, A.dual)

    def test_document_fields(self, tmp_path):
        A = DualMatrix([[1, 2], [3, 4]], [[0, 0], [0, 0]])
        path = tmp_path / "m.json"
        save_matrix(path, A)
        doc = json.loads(path.read_text())
        assert doc["n"] == 2
        assert doc["standard"] == [[1.0, 2.0], [3.0, 4.0]]

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "standard": [[1]], "dual": [[1]]}')
        with pytest.raises(ValueError):
            load_matrix(path)
