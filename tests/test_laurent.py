from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from wgraphs.laurent import LaurentPoly, v


def poly(coeffs):
    return LaurentPoly(coeffs)


polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (v(1) + 1) * (v(1) - 1) == poly({2: 1, 0: -1})

    def test_additive_identity(self):
        f = poly({-1: 3, 2: -1})
        assert f + LaurentPoly.zero() == f

    def test_exponent_addition(self):
        assert v(2) * v(-2) == LaurentPoly.one()

    def test_no_stored_zeros(self):
        f = poly({1: 1}) + poly({1: -1})
        assert f.is_zero() and f.coeffs == {}

    def test_int_coercion(self):
        assert 2 + v(1) == poly({0: 2, 1: 1})
        assert 3 * v(1) == poly({1: 3})
        assert 1 - v(1) == poly({0: 1, 1: -1})

    def test_pow(self):
        f = v(1) + 1
        assert f * f == poly({0: 1, 1: 2, 2: 1})
        assert f * f * f == poly({0: 1, 1: 3, 2: 3, 3: 1})

    def test_fraction_coefficients(self):
        f = poly({1: Fraction(1, 2)})
        assert f + f == v(1)


class TestBar:
    def test_bar_of_v(self):
        assert v(1).bar() == v(-1)

    def test_constants_fixed(self):
        assert poly({0: 3}).bar() == poly({0: 3})

    def test_symmetric_support_fixed(self):
        f = poly({-2: 1, 0: 5, 2: 1})
        assert f.bar() == f and f.is_bar_symmetric()

    @given(polys, polys)
    def test_bar_is_ring_automorphism(self, f, g):
        assert (f * g).bar() == f.bar() * g.bar()
        assert (f + g).bar() == f.bar() + g.bar()

    @given(polys)
    def test_bar_involutive(self, f):
        assert f.bar().bar() == f


class TestSplit:
    def test_direct_partition(self):
        f = poly({-1: 1, 0: -2, 3: 1})
        neg, zero, pos = f.split()
        assert neg == v(-1) and zero == poly({0: -2}) and pos == v(3)

    def test_zero(self):
        assert all(part.is_zero() for part in LaurentPoly.zero().split())

    def test_worked_value(self):
        neg, zero, pos = poly({2: -1, 0: -1}).split()
        assert neg.is_zero() and zero == poly({0: -1}) and pos == poly({2: -1})

    @given(polys)
    def test_parts_recombine(self, f):
        neg, zero, pos = f.split()
        assert neg + zero + pos == f
        assert all(g < 0 for g in neg.support())
        assert all(g > 0 for g in pos.support())
        assert set(zero.support()) <= {0}

    @given(polys)
    def test_pos_of_bar_is_bar_of_neg(self, f):
        assert f.bar().split()[2] == f.split()[0].bar()

    @given(polys)
    def test_positive_symmetric_is_zero(self, f):
        pos = f.split()[2]
        if not pos.is_zero():
            assert pos.bar() != pos


class TestHash:
    def test_constant_hashes_like_its_scalar(self):
        two = LaurentPoly.const(2)
        assert two == 2 and hash(two) == hash(2)
        assert {two: 1}.get(2) == 1 and {2: 1}.get(two) == 1
        assert LaurentPoly.zero() == 0 and hash(LaurentPoly.zero()) == hash(0)

    @given(polys, polys)
    def test_equal_polys_hash_equal(self, f, g):
        assert hash((f + g) - g) == hash(f)
