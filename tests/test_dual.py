import math
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualperron import DivisionUndefined, DualNumber, format_dual, magnitude

FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
NONZERO = FINITE.filter(lambda v: abs(v) > 1e-2)
PARTS = [0, 0.0, -0.0, 1, 1.0, -2.5, 3]


def duals(parts=FINITE):
    return st.builds(DualNumber, parts, parts)


def close(a: DualNumber, b: DualNumber, tol=1e-9):
    scale = 1.0 + max(abs(a.standard), abs(b.standard), abs(a.dual), abs(b.dual))
    return abs(a.standard - b.standard) <= tol * scale and abs(a.dual - b.dual) <= tol * scale


class TestArithmetic:
    def test_add(self):
        assert DualNumber(1, 2) + DualNumber(3, 4) == DualNumber(4, 6)
        assert DualNumber(0, 0) + DualNumber(5, -1) == DualNumber(5, -1)
        assert DualNumber(2, 3) + DualNumber(-2, -3) == DualNumber(0, 0)
        assert -DualNumber(1, 2) == DualNumber(-1, -2)

    def test_mul(self):
        assert DualNumber(1, 2) * DualNumber(3, 4) == DualNumber(3, 10)
        assert DualNumber(0, 1) * DualNumber(0, 1) == DualNumber(0, 0)
        assert DualNumber(1, 0) * DualNumber(-7.5, 0.25) == DualNumber(-7.5, 0.25)

    def test_div(self):
        assert DualNumber(3, 10) / DualNumber(3, 4) == DualNumber(1, 2)
        assert DualNumber(0, 2) / DualNumber(0, 4) == DualNumber(0.5, 0)
        with pytest.raises(DivisionUndefined):
            DualNumber(1, 0) / DualNumber(0, 5)
        with pytest.raises(DivisionUndefined):
            DualNumber(0, 2) / DualNumber(0, 0)

    def test_scalar_coercion(self):
        assert DualNumber(1, 2) + 1 == DualNumber(2, 2)
        assert 2 * DualNumber(1, 2) == DualNumber(2, 4)
        assert DualNumber(4, 2) / 2 == DualNumber(2, 1)
        assert 1 - DualNumber(0, 3) == DualNumber(1, -3)
        assert 2 / DualNumber(4, 1) == DualNumber(0.5, -0.125)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                    operator.lt, operator.le, operator.gt, operator.ge])
    @pytest.mark.parametrize("other", ["a", None, 1j])
    def test_an_operand_that_is_not_real_is_refused(self, op, other):
        with pytest.raises(TypeError):
            op(DualNumber(1.0), other)
        with pytest.raises(TypeError):
            op(other, DualNumber(1.0))

    @pytest.mark.parametrize("other", ["a", None, 1j])
    def test_an_operand_that_is_not_real_is_unequal(self, other):
        assert DualNumber(1.0) != other and not DualNumber(1.0) == other

    def test_appreciable(self):
        assert DualNumber(-2, 0).appreciable
        assert not DualNumber(0, 3).appreciable

    def test_nonfinite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                DualNumber(bad, 0)
            with pytest.raises(ValueError):
                DualNumber(0, bad)


class TestOrder:
    def test_standard_part_dominates(self):
        assert not DualNumber(1, -9) < DualNumber(0, 100)
        assert DualNumber(1, -9) > DualNumber(0, 100)

    def test_dual_part_breaks_ties(self):
        assert DualNumber(2, 1) < DualNumber(2, 3)
        assert not DualNumber(2, 1) > DualNumber(2, 3)
        assert not DualNumber(2, 3) < DualNumber(2, 3)
        assert not DualNumber(2, 3) > DualNumber(2, 3)

    def test_magnitude(self):
        assert magnitude(DualNumber(-2, 3)) == DualNumber(2, -3)
        assert magnitude(DualNumber(0, -4)) == DualNumber(0, 4)
        assert magnitude(DualNumber(5, 0)) == DualNumber(5, 0)
        assert abs(DualNumber(-2, 3)) == DualNumber(2, -3)


class TestProperties:
    @given(duals(), duals())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(duals(), duals(), duals())
    def test_mul_associative(self, a, b, c):
        assert close((a * b) * c, a * (b * c))

    @given(duals(), duals(), duals())
    def test_distributive(self, a, b, c):
        assert close(a * (b + c), a * b + a * c)

    @given(FINITE, FINITE)
    def test_eps_nilpotent(self, x, y):
        assert DualNumber(0, x) * DualNumber(0, y) == DualNumber(0, 0)

    @given(duals(), st.builds(DualNumber, NONZERO, FINITE))
    def test_div_inverts_mul(self, a, b):
        assert close((a * b) / b, a)

    @given(duals(), duals())
    def test_order_antisymmetric_and_total(self, a, b):
        assert (a <= b) or (b <= a)
        if a <= b and b <= a:
            assert a == b

    @given(duals(), duals(), duals())
    def test_order_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(duals())
    def test_magnitude_nonnegative(self, a):
        assert magnitude(a) >= DualNumber(0, 0)

    # few distinct parts, so that equal pairs are drawn often
    @given(*[st.one_of(duals(st.sampled_from(PARTS)), st.sampled_from(PARTS))] * 2)
    def test_equal_values_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_real_valued_dual_meets_its_real_in_sets(self):
        assert len({DualNumber(1, 0), 1}) == 1
        assert DualNumber(1, 0) in {1.0}
        assert DualNumber(-2.5, -0.0) in {-2.5}


class TestText:
    def test_format(self):
        assert format_dual(DualNumber(3.0, 1.61)) == "3.00+1.61e"
        assert format_dual(DualNumber(5999.84, -0.33)) == "5999.84-0.33e"
        assert format_dual(DualNumber(1.07e7, 2.0)) == "1.07e+07+2.00e"
        assert format_dual(DualNumber(0.1, -2.0), digits=None) == "0.10000000000000001-2e"
        assert repr(DualNumber(1.5, -2.0)) == "DualNumber(1.5, -2.0)"
