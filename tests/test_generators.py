import hashlib

import numpy as np
import pytest

from dualperron import BadSpec, ExampleSpec, XorShift64Star, classify, generate, jordan_block


class TestFixedFamilies:
    def test_ex1(self):
        A = generate(ExampleSpec("ex1"))
        assert np.array_equal(A.standard, [[1, 1], [0, 1]])
        assert np.array_equal(A.dual, [[0, 0], [1, 0]])

    def test_ex2_unit_params(self):
        A = generate(ExampleSpec("ex2"))
        assert np.array_equal(A.standard, [[0, 1], [1, 0]])
        assert np.array_equal(A.dual, np.ones((2, 2)))

    def test_ex2_params(self):
        A = generate(ExampleSpec("ex2", params=(1, 2, 3, 4)))
        assert np.array_equal(A.dual, [[1, 2], [3, 4]])


class TestPatternFamilies:
    def test_star_at_n3(self):
        A = generate(ExampleSpec("ex51", n=3))
        assert np.array_equal(A.standard, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert np.array_equal(A.dual, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_jordan_block(self):
        assert np.array_equal(jordan_block(3), [[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_index_sums_at_n4(self):
        A = generate(ExampleSpec("ex52", n=4))
        expected = [[0, 3, 4, 5], [3, 0, 5, 6], [4, 5, 0, 7], [5, 6, 7, 0]]
        assert np.array_equal(A.standard, expected)

    def test_cycle_spokes_at_n4(self):
        A = generate(ExampleSpec("ex53", n=4))
        expected = [[0, 0, 0, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]]
        assert np.array_equal(A.standard, expected)


class TestClassificationGates:
    def test_star_family(self):
        report = classify(generate(ExampleSpec("ex51", n=10)).standard)
        assert report.irreducible
        assert not report.primitive
        assert report.period == 2
        assert not report.weakly_positive

    def test_index_sum_family(self):
        report = classify(generate(ExampleSpec("ex52", n=10)).standard)
        assert report.primitive
        assert report.weakly_positive
        assert not report.positive

    def test_cycle_spokes_family(self):
        report = classify(generate(ExampleSpec("ex53", n=10)).standard)
        assert report.primitive
        assert not report.weakly_positive

    def test_random_family_is_positive(self):
        for seed in range(10):
            report = classify(generate(ExampleSpec("ex54", n=10, seed=seed)).standard)
            assert report.positive


def _ex54_sha256(n, seed):
    # little-endian float64 bytes of the standard part, then the dual part
    A = generate(ExampleSpec("ex54", n=n, seed=seed))
    return hashlib.sha256(
        A.standard.astype("<f8").tobytes() + A.dual.astype("<f8").tobytes()
    ).hexdigest()


class TestRandomFamily:
    def test_entry_ranges(self):
        A = generate(ExampleSpec("ex54", n=30, seed=5))
        assert A.standard.min() >= 0.1
        assert A.standard.max() < 1.1

    def test_reproducible_bitwise(self):
        a = generate(ExampleSpec("ex54", n=12, seed=123))
        b = generate(ExampleSpec("ex54", n=12, seed=123))
        assert np.array_equal(a.standard, b.standard)
        assert np.array_equal(a.dual, b.dual)

    def test_known_answer_n8_seed7(self):
        assert _ex54_sha256(8, 7) == (
            "6cca1e72f61a378ec5d49c993165c607667ff1eae745baa7dfff604e00cc2b69"
        )

    def test_known_answer_n33_seed11(self):
        # odd n*n drops the last sine value
        assert _ex54_sha256(33, 11) == (
            "5974396adb4cd7ca9591d6662e7522f0dbd9fc38fd93b4974e3d8ae41e9d320f"
        )

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63 + 5, 2**64])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 257])
    def test_matches_scalar_stream(self, n, seed):
        # entry by entry from the documented stream: row-major, standard part first
        # (np.log in place of math.log changes entries at n=64 and n=257)
        rng = XorShift64Star(seed)
        standard = [0.1 + rng.uniform() for _ in range(n * n)]
        dual = [rng.normal() for _ in range(n * n)]
        A = generate(ExampleSpec("ex54", n=n, seed=seed))
        assert np.array_equal(A.standard, np.reshape(standard, (n, n)))
        assert np.array_equal(A.dual, np.reshape(dual, (n, n)))

    def test_seeds_differ(self):
        a = generate(ExampleSpec("ex54", n=8, seed=0))
        b = generate(ExampleSpec("ex54", n=8, seed=1))
        assert not np.array_equal(a.standard, b.standard)

    def test_dual_part_looks_standard_normal(self):
        A = generate(ExampleSpec("ex54", n=60, seed=2))
        flat = A.dual.ravel()
        assert abs(flat.mean()) < 0.1
        assert abs(flat.std() - 1.0) < 0.1


class TestStream:
    def test_deterministic(self):
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_uniform_range(self):
        rng = XorShift64Star(9)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < np.mean(values) < 0.6

    def test_zero_seed_is_usable(self):
        rng = XorShift64Star(0)
        assert rng.next_u64() != 0


class TestValidation:
    def test_unknown_id(self):
        with pytest.raises(BadSpec):
            ExampleSpec("ex99")

    def test_fixed_size_families(self):
        with pytest.raises(BadSpec):
            ExampleSpec("ex1", n=5)
        with pytest.raises(BadSpec):
            ExampleSpec("ex2", n=3)

    def test_minimum_size(self):
        with pytest.raises(BadSpec):
            ExampleSpec("ex52", n=1)

    def test_params_length(self):
        with pytest.raises(BadSpec):
            ExampleSpec("ex2", params=(1.0, 2.0))
