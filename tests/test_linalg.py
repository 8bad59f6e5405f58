import json
import math
import warnings

import numpy as np
import pytest

from dualperron import (
    DimensionMismatch,
    DualMatrix,
    DualNumber,
    DualVector,
    ExampleSpec,
    ZeroVector,
    frn_norm,
    generate,
    load_matrix,
    matvec,
    normalize,
    save_matrix,
    vec_norm2,
)
from dualperron import linalg

RNG = np.random.default_rng(7)


def unit_within(x: DualVector, tol: float) -> bool:
    """||x_s|| = 1 and x_s.x_d = 0 to tolerance, by numpy rather than vec_norm2."""
    return (abs(float(np.linalg.norm(x.standard)) - 1.0) <= tol
            and abs(float(x.standard @ x.dual)) <= tol)


def random_vector(n):
    return DualVector(RNG.standard_normal(n), RNG.standard_normal(n))


def random_matrix(n):
    return DualMatrix(RNG.standard_normal((n, n)), RNG.standard_normal((n, n)))


class TestNorm:
    def test_real_two_norm(self):
        assert vec_norm2(DualVector([3, 4], [0, 0])) == DualNumber(5, 0)

    def test_dual_part_projection(self):
        assert vec_norm2(DualVector([1, 0], [2, 0])) == DualNumber(1, 2)

    def test_infinitesimal_vector(self):
        assert vec_norm2(DualVector([0, 0], [0, 3])) == DualNumber(0, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_dual_part_is_refused_without_a_warning(self):
        # x_s.x_d is 4e308: DualNumber refuses it, and numpy prints nothing first
        with pytest.raises(ValueError, match="must be finite"):
            vec_norm2(DualVector([1.0] * 4, [1e308] * 4))


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_quotient_is_refused_without_a_warning(self):
        # x_d/||x_s|| is about 7e319: DualVector refuses it, and numpy prints nothing first
        with pytest.raises(ValueError, match="entries must be finite"):
            normalize(DualVector([1e-320, 1e-320], [1.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_far_scales(self, scale):
        # ||x_s||^2 leaves the double range, but ||x_s|| and the answer do not
        x = DualVector([3 * scale, 4 * scale], [scale, 0.0])
        y = normalize(x)
        assert np.all(np.abs(y.standard - [0.6, 0.8]) <= np.spacing([0.6, 0.8]))
        assert unit_within(y, tol=1e-12)
        norm = vec_norm2(x)
        assert norm.standard == pytest.approx(5 * scale, rel=1e-15)
        assert norm.dual == pytest.approx(0.6 * scale, rel=1e-15)
        assert vec_norm2(DualVector([0.0, 0.0], x.standard)) == DualNumber(0.0, norm.standard)

    def test_unit_characterization(self):
        for n in (1, 2, 5, 40):
            for scale in (1.0, 1e-6, 1e6):
                x = random_vector(n) * scale
                y = normalize(x)
                assert unit_within(y, tol=1e-12)
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

    def test_vector_sub_and_neg(self):
        x, y = DualVector([1, 2], [3, 4]), DualVector([0.5, -1], [1, 1])
        d, m = x - y, -x
        assert np.array_equal(d.standard, [0.5, 3]) and np.array_equal(d.dual, [2, 3])
        assert np.array_equal(m.standard, [-1, -2]) and np.array_equal(m.dual, [-3, -4])

    def test_dual_linearity(self):
        for n in (2, 6, 17):
            A = random_matrix(n)
            x, y = random_vector(n), random_vector(n)
            alpha, beta = DualNumber(0.7, -1.3), DualNumber(-2.1, 0.4)
            left = matvec(A, alpha * x + beta * y)
            right = alpha * matvec(A, x) + beta * matvec(A, y)
            assert np.allclose(left.standard, right.standard, atol=1e-10)
            assert np.allclose(left.dual, right.dual, atol=1e-10)


class TestDualProduct:
    """``linalg._dual_product``, the one kernel of every matrix-vector product,
    against the separate products it replaces; and the solver's left product
    ``w @ part``, on both stored forms."""

    @pytest.mark.parametrize("order", ["C", "F"])
    # one block, and several blocks with tails of 3, 26 and 14 rows, and none (1024)
    @pytest.mark.parametrize("n", [1, 2, 7, 65, 993, 1001, 1024, 1337])
    def test_dense_matches_separate_products(self, n, order):
        rng = np.random.default_rng(n)
        M_s = np.array(rng.standard_normal((n, n)), order=order)
        M_d = rng.standard_normal((n, n))
        y_s, y_d, w = rng.standard_normal((3, n))
        z_s, z_d = linalg._dual_product(M_s, M_d, y_s, y_d)
        # a sum of n products in any order errs by at most n*eps*(|M||y|), twice over here
        tol = 2 * n * np.finfo(float).eps
        assert np.all(np.abs(z_s - M_s @ y_s) <= tol * (np.abs(M_s) @ np.abs(y_s)))
        assert np.all(np.abs(z_d - (M_s @ y_d + M_d @ y_s))
                      <= tol * (np.abs(M_s) @ np.abs(y_d) + np.abs(M_d) @ np.abs(y_s)))
        c = w @ linalg._stored_part(M_s)
        assert np.all(np.abs(c - (w[:, None] * M_s).sum(axis=0)) <= tol * (np.abs(w) @ np.abs(M_s)))
        assert all(v.shape == (n,) and v.dtype == np.float64 for v in (z_s, z_d, c))

    @pytest.mark.parametrize("n", [1, 7, 65, 1001])
    def test_nonzeros_keep_their_own_products(self, n):
        # bit for bit the products the part's ``@`` makes, one vector at a time
        rng = np.random.default_rng(n)
        m = np.where(rng.random((n, n)) < 3 / n, rng.standard_normal((n, n)), 0.0)
        M_s, M_d = linalg._Nonzeros(m), linalg._Nonzeros(m.T.copy())
        y_s, y_d, w = rng.standard_normal((3, n))
        z_s, z_d = linalg._dual_product(M_s, M_d, y_s, y_d)
        assert z_s.tobytes() == (M_s @ y_s).tobytes()
        assert z_d.tobytes() == (M_s @ y_d + M_d @ y_s).tobytes()
        # the left product adds each column's terms in row order
        c = np.zeros(n)
        for i, j, v in zip(M_s.rows, M_s.cols, M_s.vals):
            c[j] += w[i] * v
        assert (w @ M_s).tobytes() == c.tobytes()


class TestFrnNorm:
    def test_examples(self):
        assert frn_norm(DualMatrix(np.eye(2), np.zeros((2, 2)))) == pytest.approx(np.sqrt(2))
        assert frn_norm(DualMatrix(np.zeros((2, 2)), np.eye(2))) == pytest.approx(np.sqrt(2))
        assert frn_norm(DualMatrix([[3.0]], [[4.0]])) == pytest.approx(5.0)

    def test_scalar_and_vector_cases(self):
        assert frn_norm(DualNumber(3, 4)) == pytest.approx(5.0)
        assert frn_norm(DualVector([3, 0], [0, 4])) == pytest.approx(5.0)
        with pytest.raises(TypeError):
            frn_norm("x")

    def test_zero_iff_zero(self):
        assert frn_norm(DualMatrix(np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0
        assert frn_norm(DualMatrix([[0, 0], [1e-3, 0]], np.zeros((2, 2)))) > 0.0

    def test_homogeneous_and_triangle(self):
        for n in (2, 4, 9):
            A, B = random_matrix(n), random_matrix(n)
            for c in (-3.5, 0.0, 0.25):
                assert frn_norm(c * A) == pytest.approx(abs(c) * frn_norm(A))
            assert frn_norm(A + B) <= frn_norm(A) + frn_norm(B) + 1e-12

    @pytest.mark.parametrize("n", [2, 39, 40, 300])
    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53", "ex54"])
    def test_kept_norm_is_the_norm_of_the_stored_values(self, ex, n, tmp_path):
        # the norms of the values as stored (dense array or nonzeros), bit for bit
        def reference(A):
            s, d = (float(np.linalg.norm(linalg._values(p))) for p in A._parts)
            return math.hypot(s, d)

        A = generate(ExampleSpec(ex, n=n, seed=3))
        path = tmp_path / "m.json"
        save_matrix(path, A)
        for B in (A, 2.0 * A, A + A, load_matrix(path)):
            assert frn_norm(B) == reference(B)

    def test_matrix_norm_reads_no_part(self, monkeypatch):
        A = generate(ExampleSpec("ex52", n=50))
        calls, norm = [], np.linalg.norm

        def counted(*args, **kwargs):
            calls.append(args)
            return norm(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", counted)
        assert frn_norm(A) > 0.0
        assert calls == []


class TestValidation:
    def test_vector_parts_must_match(self):
        with pytest.raises(DimensionMismatch):
            DualVector([1, 2], [1, 2, 3])
        with pytest.raises(DimensionMismatch, match="vector parts must be one-dimensional"):
            DualVector(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("call", [
        lambda: DualVector([1, 2], [0, 0]) - DualVector([1], [0]),
        lambda: DualMatrix(np.eye(2), np.eye(2)) + DualMatrix(np.eye(3), np.eye(3)),
    ], ids=["vector_sub", "matrix_add"])
    def test_operand_sizes_must_match(self, call):
        with pytest.raises(DimensionMismatch):
            call()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "sparse_array", "nonzeros"])
    def test_nonfinite_rejected_in_every_stored_form(self, bad, form):
        n = 40  # 41 nonzeros fill less than n^2/20: the sparse array is held as nonzeros
        if form == "dense":
            part = np.ones((n, n))
            part[7, 3] = bad
        elif form == "sparse_array":
            part = np.eye(n)
            part[7, 3] = bad
        else:
            vals = np.ones(n)
            vals[7] = bad
            part = linalg._Nonzeros._of(n, np.arange(n), np.arange(n), vals)
        with pytest.raises(ValueError, match="entries must be finite"):
            DualMatrix(part, np.eye(n))
        with pytest.raises(ValueError, match="entries must be finite"):
            DualMatrix(np.eye(n), part)

    def test_nonfinite_non_square_part_rejected_as_nonfinite(self):
        part = np.ones((2, 3))
        part[1, 2] = np.nan
        with pytest.raises(ValueError, match="entries must be finite"):
            DualMatrix(part, part)

    def test_finite_entries_whose_norm_overflows_are_kept(self):
        big = np.full((10, 10), 1e200)
        A = DualMatrix(big, np.eye(10))
        assert A.standard[9, 9] == 1e200
        assert frn_norm(A) == math.inf

    def test_finite_entries_whose_sum_overflows_are_kept(self):
        big = np.full((2, 2), 1.5e308)
        assert DualMatrix(big, -big).standard[1, 1] == 1.5e308
        assert DualVector(big[0], big[1]).dual[1] == 1.5e308

    @pytest.mark.parametrize("call", [
        lambda A: 2.0 * A,
        lambda A: A + A,
    ], ids=["scale", "add"])
    def test_overflowing_result_is_refused_without_a_warning(self, call):
        # the constructor's ValueError is the only signal: numpy prints nothing first
        A = DualMatrix([[1e308, 1], [1, 1]], [[1, 0], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="entries must be finite"):
                call(A)

    @pytest.mark.parametrize("call", [
        lambda x: x + x,
        lambda x: x - (-x),
        lambda x: 10.0 * x,
        lambda x: x * DualNumber(10.0, 0.0),
        lambda x: DualNumber(10.0, 1.0) * x,
    ], ids=["add", "sub", "scale", "dual_scale", "dual_rscale"])
    def test_overflowing_vector_result_is_refused_without_a_warning(self, call):
        # DualVector shares DualMatrix's guard: the constructor's ValueError is the only signal
        x = DualVector([1e308], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="entries must be finite"):
                call(x)

    @pytest.mark.parametrize("call", [
        lambda: DualVector([1.0], [0.0]) + DualMatrix([[1.0]], [[0.0]]),
        lambda: DualMatrix([[1.0]], [[0.0]]) + DualVector([1.0], [0.0]),
        lambda: DualMatrix(np.eye(2), np.eye(2)) * DualNumber(2.0),
        lambda: DualNumber(2.0) * DualMatrix(np.eye(2), np.eye(2)),
        lambda: DualVector([1.0], [0.0]) * "a",
        lambda: DualVector([1.0], [0.0]) - DualMatrix([[1.0]], [[0.0]]),
        lambda: DualMatrix(np.eye(2), np.eye(2)) * 1j,
    ], ids=["vector_plus_matrix", "matrix_plus_vector", "matrix_times_dual",
            "dual_times_matrix", "vector_times_str", "vector_minus_matrix", "matrix_times_complex"])
    def test_operand_of_another_kind_is_refused(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("kind", [DualVector, DualMatrix])
    def test_sum_of_unequal_sizes_is_refused(self, kind):
        def of(n):
            return DualVector(np.ones(n), np.ones(n)) if kind is DualVector else kind(np.eye(n), np.eye(n))
        with pytest.raises(DimensionMismatch, match=f"{kind.__name__} sizes differ: 2 and 3"):
            of(2) + of(3)

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            DualVector([], [])
        with pytest.raises(DimensionMismatch):
            DualMatrix(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_storage_is_immutable(self):
        x = DualVector([1, 2], [3, 4])
        with pytest.raises(ValueError):
            x.standard[0] = 9.0


def frozen(a):
    a.setflags(write=False)
    return a


class TestAdoption:
    """A read-only float64 array that owns its data is kept; anything else is copied."""

    rng = np.random.default_rng(19)  # local, so RNG's stream stays as the other tests draw it

    @pytest.mark.parametrize("kind", [DualVector, DualMatrix])
    def test_frozen_owned_float64_is_adopted(self, kind):
        shape = (3,) if kind is DualVector else (3, 3)
        s, d = frozen(self.rng.standard_normal(shape)), frozen(self.rng.standard_normal(shape))
        value = kind(s, d)
        assert np.shares_memory(value.standard, s)
        assert np.shares_memory(value.dual, d)

    def test_writable_array_is_copied(self):
        s = self.rng.standard_normal((3, 3))
        kept = s.copy()
        A = DualMatrix(s, np.zeros((3, 3)))
        assert not np.shares_memory(A.standard, s)
        s[1, 2] = 99.0
        assert np.array_equal(A.standard, kept)
        assert not A.standard.flags.writeable

    def test_frozen_view_of_a_writable_base_is_copied(self):
        base = self.rng.standard_normal((3, 3))
        kept = base.copy()
        view = frozen(base.view())
        A = DualMatrix(view, view)
        assert not np.shares_memory(A.standard, base)
        base[0, 0] = 99.0
        assert np.array_equal(A.standard, kept)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes_are_copied(self, dtype):
        s = frozen(np.arange(9, dtype=dtype).reshape(3, 3).copy())
        A = DualMatrix(s, s)
        assert A.standard.dtype == np.float64
        assert not np.shares_memory(A.standard, s)
        assert np.array_equal(A.standard, s)

    def test_list_is_copied(self):
        A = DualMatrix([[1, 2], [3, 4]], [[0, 0], [0, 0]])
        assert A.standard.dtype == np.float64
        assert not A.standard.flags.writeable

    def test_fortran_ordered_is_stored_c_ordered(self):
        # the dense product walks a part in row blocks, which C order keeps contiguous
        s = self.rng.standard_normal((4, 4))
        for source in (np.asfortranarray(s), frozen(np.asfortranarray(s))):
            A = DualMatrix(source, source)
            for part in (A.standard, A.dual):
                assert part.flags.c_contiguous and not part.flags.writeable
                assert not np.shares_memory(part, source)
                assert np.array_equal(part, s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_frozen_owned_nonfinite_is_rejected(self, bad):
        s = np.ones((3, 3))
        s[1, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            DualMatrix(frozen(s), np.zeros((3, 3)))


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
