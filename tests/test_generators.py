import hashlib

import numpy as np
import pytest

from dualperron import BadSpec, ExampleSpec, XorShift64Star, classify, generate, generators


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
        for ex in ("ex51", "ex52", "ex53"):
            assert np.array_equal(generate(ExampleSpec(ex, n=3)).dual,
                                  [[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    @pytest.mark.parametrize("n", [2, 3, 39, 40, 100])
    def test_jordan_block_is_the_generated_dual_part(self, n):
        # both sides of the nonzeros threshold
        for ex in ("ex51", "ex52", "ex53"):
            assert np.array_equal(generate(ExampleSpec(ex, n=n)).dual, np.eye(n) + np.eye(n, k=1))

    def test_index_sums_at_n4(self):
        A = generate(ExampleSpec("ex52", n=4))
        expected = [[0, 3, 4, 5], [3, 0, 5, 6], [4, 5, 0, 7], [5, 6, 7, 0]]
        assert np.array_equal(A.standard, expected)

    def test_cycle_spokes_at_n4(self):
        A = generate(ExampleSpec("ex53", n=4))
        expected = [[0, 0, 0, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]]
        assert np.array_equal(A.standard, expected)


# sha256 of the little-endian float64 bytes of each part, (standard, dual)
PATTERN_FAMILY_SHA256 = {
    ("ex51", 2): ("c9a2fb79c96caefae3797082eb0820d925a5170c74bcba2446db9484124acb82",
                  "56c2a41bfc79a0ef26462fb62872e01850f628c4cd6486a4071b03a3a4c7267e"),
    ("ex51", 3): ("2a196f22e5927a9e606dc1200f8edab0bef8254a6c2135cc1ca6eabc7d8697c7",
                  "710963ebaacd2bbcb220b798f0147b62cd115df3dd93d25ad6b541610576e8dc"),
    ("ex51", 16): ("016dfbce6c252cfd8a2d9eaee9a107ca55105eb840aedf225a05e5435822069b",
                   "b3251875d237f0b1a2bc0f66430bb50fce1d7585b1cc746c0313dac5e986aec1"),
    ("ex51", 1000): ("693ac19c71ada43d501587fe676ef76bb04ebeaf04f444e1a50953c3e593294f",
                     "9c032f27926cc12dbc0b457a3a185764a12d68eeb9f856d52f09f3c0ad23bb61"),
    ("ex52", 2): ("e948faad31d4c72258f7f8a1a96abb060ec1aa564a8ec1c977cec060bc7a4c8c",
                  "56c2a41bfc79a0ef26462fb62872e01850f628c4cd6486a4071b03a3a4c7267e"),
    ("ex52", 3): ("0af64c2246289060148e7bd83931704970b871263f6fea3f82a5947510d0557c",
                  "710963ebaacd2bbcb220b798f0147b62cd115df3dd93d25ad6b541610576e8dc"),
    ("ex52", 16): ("d541bdcba699b4fc1252a5c396bf5048e915d4efa9d8a809a86516a612b083ea",
                   "b3251875d237f0b1a2bc0f66430bb50fce1d7585b1cc746c0313dac5e986aec1"),
    ("ex52", 1000): ("02e273275fcb2a5773b1365d680cb0316b92c44e0c6202c986d79f7902d1aba6",
                     "9c032f27926cc12dbc0b457a3a185764a12d68eeb9f856d52f09f3c0ad23bb61"),
    ("ex53", 2): ("c9a2fb79c96caefae3797082eb0820d925a5170c74bcba2446db9484124acb82",
                  "56c2a41bfc79a0ef26462fb62872e01850f628c4cd6486a4071b03a3a4c7267e"),
    ("ex53", 3): ("41f1cf9dd09699c54c18124e6db9ee244d678498f0ffbc039b43c1e7f2242800",
                  "710963ebaacd2bbcb220b798f0147b62cd115df3dd93d25ad6b541610576e8dc"),
    ("ex53", 16): ("3f3f8b484fda9b76c96e461f34f9a7a781f450b017d4e91a0c2d3fc918d235da",
                   "b3251875d237f0b1a2bc0f66430bb50fce1d7585b1cc746c0313dac5e986aec1"),
    ("ex53", 1000): ("71d1006fc3fc1ff382f5097d1e8c0ec730fd579c80e68f70f8e392a0fa689f41",
                     "9c032f27926cc12dbc0b457a3a185764a12d68eeb9f856d52f09f3c0ad23bb61"),
}


class TestPatternFamilyKnownAnswers:
    @pytest.mark.parametrize("ex,n", sorted(PATTERN_FAMILY_SHA256))
    def test_part_digests(self, ex, n):
        A = generate(ExampleSpec(ex, n=n))
        digests = tuple(hashlib.sha256(part.astype("<f8").tobytes()).hexdigest()
                        for part in (A.standard, A.dual))
        assert digests == PATTERN_FAMILY_SHA256[ex, n]

    @pytest.mark.parametrize("n", [2, 3, 39, 40, 1000, 1337])
    def test_index_sums_match_the_outer_sum(self, n, monkeypatch):
        idx = np.arange(1, n + 1, dtype=float)
        reference = np.add.outer(idx, idx)
        np.fill_diagonal(reference, 0.0)
        built, make = [], generators._dense_index_sums

        def recorded(n):
            built.append(make(n))
            return built[-1]
        monkeypatch.setattr(generators, "_dense_index_sums", recorded)
        standard = generate(ExampleSpec("ex52", n=n)).standard
        assert standard.dtype == reference.dtype and standard.shape == reference.shape
        assert standard.tobytes() == reference.tobytes()
        # adopted without a copy
        assert standard is built[0]
        assert standard.flags.owndata and standard.flags.c_contiguous
        assert not standard.flags.writeable

    @pytest.mark.parametrize("ex", ["ex51", "ex52", "ex53"])
    def test_parts_are_frozen_float64_c_arrays(self, ex):
        A = generate(ExampleSpec(ex, n=5))
        for part in (A.standard, A.dual):
            assert part.dtype == np.float64
            assert part.flags.c_contiguous
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 7.0


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

    def test_size_past_memory_is_refused_before_the_stream_runs(self, monkeypatch):
        # 2*10^14 draws (1.6 PB): the allocation fails before any jump-ahead step
        steps = []
        monkeypatch.setattr(generators, "_xorshift", lambda x, tmp: steps.append(1))
        with pytest.raises(MemoryError):
            generate(ExampleSpec("ex54", n=10**7))
        assert steps == []


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

    @pytest.mark.parametrize("field", ["n", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_size_and_seed_must_be_integers(self, field, value):
        with pytest.raises(BadSpec, match=f"{field} must be an integer"):
            ExampleSpec("ex54", **{field: value})

    def test_numpy_integers_accepted(self):
        spec = ExampleSpec("ex54", n=np.int64(5), seed=np.uint32(7))
        ref = generate(ExampleSpec("ex54", n=5, seed=7))
        assert np.array_equal(generate(spec).standard, ref.standard)
