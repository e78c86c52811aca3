"""LMat against the entrywise Laurent-matrix reference in ``oracles``."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgraphs.laurent import LaurentPoly, v
from wgraphs.matrix import (
    _UNITS,
    LMat,
    _abs_row_sums,
    _dot,
    _evaluate,
    imat,
    imat_identity,
    imat_zero,
)

from oracles import (
    dense,
    dense_mul,
    ent_add,
    ent_bar,
    ent_coeff,
    ent_exponents,
    ent_from_blocks,
    ent_is_bar_symmetric,
    ent_matmul,
    ent_neg,
    ent_scale,
    ent_split,
    ent_sub,
    imat_mul,
    sparse,
)

# small supports and coefficients, so that sums and products cancel often
polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2, max_value=2),
    max_size=3,
).map(LaurentPoly)
sizes = st.integers(min_value=1, max_value=3)
fewer = settings(max_examples=50)  # half the default: each example builds several matrices


def grid(n, m):
    return st.tuples(*[st.tuples(*[polys] * m)] * n)


@st.composite
def grids(draw, n=None, m=None):
    return draw(grid(draw(sizes) if n is None else n, draw(sizes) if m is None else m))


@st.composite
def same_shape(draw):
    n, m = draw(sizes), draw(sizes)
    return draw(grid(n, m)), draw(grid(n, m))


@st.composite
def chained(draw):
    """Operands of a product: 1x1 by 1x1 half of the time, else rectangular."""
    if draw(st.booleans()):
        n = k = m = 1
    else:
        n, k, m = draw(sizes), draw(sizes), draw(sizes)
    return draw(grid(n, k)), draw(grid(k, m))


def entries(mat):
    return tuple(tuple(mat[i, j] for j in range(mat.ncols)) for i in range(mat.nrows))


def check(mat, ref):
    """``mat`` has the reference's shape and entries, and every block is a
    nonzero matrix in canonical sparse form (equal 1x1 blocks are one object)."""
    assert mat.shape == (len(ref), len(ref[0]))
    assert entries(mat) == ref
    for b in mat.blocks.values():
        assert any(b) and len(b) == mat.nrows and b == sparse(dense(b, mat.ncols))
    rebuilt = LMat(ref)
    assert mat == rebuilt and hash(mat) == hash(rebuilt)
    if mat.shape == (1, 1):
        assert all(b is rebuilt.blocks[g] for g, b in mat.blocks.items())


class TestConverter:
    @fewer
    @given(grids())
    def test_round_trip(self, a):
        check(LMat(a), a)

    def test_int_entries(self):
        assert LMat([[1, 0], [0, 1]]) == LMat.identity(2)
        assert LMat([[0, 0]]) == LMat.zeros(1, 2)
        assert LMat([[0, 0]]).blocks == {}

    def test_ragged(self):
        with pytest.raises(ValueError):
            LMat([[1, 2], [3]])

    def test_from_coeffs_drops_zero_blocks(self):
        mat = LMat.from_coeffs((2, 2), {-1: sparse(((0, 0), (0, 0))), 2: sparse(((0, 1), (0, 0)))})
        assert mat.blocks == {2: sparse(((0, 1), (0, 0)))}
        assert mat == LMat([[0, v(2)], [0, 0]])


class TestArithmetic:
    @fewer
    @given(same_shape())
    def test_add(self, ab):
        a, b = ab
        check(LMat(a) + LMat(b), ent_add(a, b))

    @fewer
    @given(same_shape())
    def test_sub(self, ab):
        a, b = ab
        check(LMat(a) - LMat(b), ent_sub(a, b))

    @fewer
    @given(grids())
    def test_neg(self, a):
        check(-LMat(a), ent_neg(a))

    @fewer
    @given(grids())
    def test_difference_with_itself_is_zero(self, a):
        n, m = len(a), len(a[0])
        diff = LMat(a) - LMat(a)
        assert diff == LMat.zeros(n, m) and diff.blocks == {} and diff.is_zero()
        assert hash(diff) == hash(LMat.zeros(n, m))

    @fewer
    @given(chained())
    def test_matmul(self, ab):
        a, b = ab
        check(LMat(a) @ LMat(b), ent_matmul(a, b, LaurentPoly.zero()))

    def test_unit_product_collects_terms(self):
        product = LMat([[v(1) + 1]]) @ LMat([[v(1) - 1]])
        assert product == LMat([[v(2) - 1]]) and product.blocks == {0: sparse(((-1,),)), 2: sparse(((1,),))}

    @fewer
    @given(grids(), polys)
    def test_scale(self, a, f):
        check(LMat(a).scale(f), ent_scale(a, f))

    @fewer
    @given(grids(), st.integers(min_value=-3, max_value=3), st.integers(min_value=-2, max_value=2))
    def test_scale_by_monomial_or_int(self, a, g, c):
        check(LMat(a).scale(v(g, c)), ent_scale(a, v(g, c)))
        check(LMat(a).scale(c), ent_scale(a, LaurentPoly.const(c)))

    @fewer
    @given(grids(), polys)
    @example(((LaurentPoly({0: 1, 2: 1}),),), LaurentPoly({0: 1, -2: -1}))  # 1x1, v^0 cancels
    @example(((v(0), v(2)), (v(2), v(0))), LaurentPoly({1: 1, -1: -1}))  # n x n
    @example(((v(0), v(2)), (v(2), v(0))), LaurentPoly({0: 1, 2: -1}))  # v^2 block cancels
    @example(((v(1),),), LaurentPoly.zero())
    @example(((LaurentPoly.zero(),) * 2,) * 2, LaurentPoly({1: 1, -1: 1}))
    def test_scale_is_product_by_scalar_matrix(self, a, f):
        """Scaling by any factor is the product by the scalar matrix f * 1."""
        mat = LMat(a)
        n = mat.nrows
        scalar = LMat.from_coeffs((n, n), {h: tuple(((i, c),) for i in range(n))
                                           for h, c in f.coeffs.items()})
        assert mat.scale(f) == scalar @ mat
        check(mat.scale(f), ent_scale(a, f))

    @fewer
    @given(same_shape(), same_shape())
    def test_equal_by_different_routes(self, ab, cd):
        a, b = ab
        left, right = LMat(a) + LMat(b), LMat(b) + LMat(a)
        assert left == right and hash(left) == hash(right)
        back = (LMat(a) + LMat(b)) - LMat(b)
        assert back == LMat(a) and hash(back) == hash(LMat(a))
        twice = LMat(a).bar().bar()
        assert twice == LMat(a) and hash(twice) == hash(LMat(a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LMat.zeros(1, 2) + LMat.zeros(2, 1)
        with pytest.raises(ValueError):
            LMat.zeros(1, 2) @ LMat.zeros(1, 2)


class TestLaurentStructure:
    @fewer
    @given(grids())
    def test_bar(self, a):
        check(LMat(a).bar(), ent_bar(a))

    @fewer
    @given(grids())
    def test_split(self, a):
        parts = LMat(a).split()
        for part, ref in zip(parts, ent_split(a)):
            check(part, ref)
        assert parts[0] + parts[1] + parts[2] == LMat(a)

    @fewer
    @given(grids())
    def test_coeff_and_exponents(self, a):
        mat = LMat(a)
        assert mat.exponents() == ent_exponents(a)
        for g in range(-4, 5):
            assert dense(mat.coeff(g), mat.ncols) == ent_coeff(a, g)
        assert mat.coeff(99) == imat_zero(len(a))

    @fewer
    @given(grids())
    def test_is_bar_symmetric(self, a):
        mat = LMat(a)
        assert mat.is_bar_symmetric() == ent_is_bar_symmetric(a)
        assert (mat + mat.bar()).is_bar_symmetric()

    @fewer
    @given(st.data())
    def test_from_blocks(self, data):
        """A grid of blocks, some of them left out, given in any order."""
        heights = data.draw(st.lists(sizes, min_size=1, max_size=3))
        widths = data.draw(st.lists(sizes, min_size=1, max_size=3))
        placed = data.draw(st.permutations([
            (sum(heights[:a]), sum(widths[:b]), data.draw(grids(h, w)))
            for a, h in enumerate(heights)
            for b, w in enumerate(widths)
            if data.draw(st.booleans())
        ]))
        shape = (sum(heights), sum(widths))
        assembled = LMat.from_blocks(shape, [(i, j, LMat(b)) for i, j, b in placed])
        check(assembled, ent_from_blocks(shape, placed, LaurentPoly.zero()))

    def test_from_blocks_sizes_checked(self):
        for top, left in [(1, 0), (0, 1), (-1, 0)]:
            with pytest.raises(ValueError):
                LMat.from_blocks((2, 2), [(top, left, LMat.zeros(2))])


# shapes 1x1 to 4x4, with a third of the rows zero
dims = st.integers(min_value=1, max_value=4)


@st.composite
def sparse_grids(draw, n, m):
    zero_row = (LaurentPoly.zero(),) * m
    return tuple(zero_row if draw(st.integers(0, 2)) == 0 else draw(st.tuples(*[polys] * m))
                 for _ in range(n))


class TestSparseForm:
    """Every operation on the sparse rows against the dense references."""

    @settings(max_examples=200)
    @given(st.data())
    def test_every_operation(self, data):
        # 1x1 (coefficient arithmetic on shared blocks) half of the time
        n, k, m = (1, 1, 1) if data.draw(st.booleans()) else (data.draw(dims) for _ in "nkm")
        a, b = data.draw(sparse_grids(n, k)), data.draw(sparse_grids(n, k))
        c = data.draw(sparse_grids(k, m))
        la, lb, lc = LMat(a), LMat(b), LMat(c)
        check(la, a)
        check(la + lb, ent_add(a, b))
        check(la - lb, ent_sub(a, b))
        check(-la, ent_neg(a))
        check(la @ lc, ent_matmul(a, c, LaurentPoly.zero()))
        g, coeff = data.draw(st.integers(-3, 3)), data.draw(st.integers(-2, 2))
        check(la.scale(v(g, coeff)), ent_scale(a, v(g, coeff)))
        f = data.draw(polys)
        check(la.scale(f), ent_scale(a, f))
        check(la.bar(), ent_bar(a))
        for part, ref in zip(la.split(), ent_split(a)):
            check(part, ref)
        for g in range(-4, 5):
            assert dense(la.coeff(g), k) == ent_coeff(a, g)
        assert all(la[i, j] == a[i][j] for i in range(n) for j in range(k))
        with pytest.raises(IndexError):
            la[n, 0]
        assert (la == lb) == (a == b) and (la + lb) - lb == la
        assert hash(la + lb) == hash(lb + la)
        # b to the right of a and c below both, leaving the rest of the grid
        # empty; the blocks come in any order
        shape = (n + k, 2 * k + m)
        placed = data.draw(st.permutations([(0, 0, a), (0, k, b), (n, 2 * k, c)]))
        check(LMat.from_blocks(shape, [(i, j, LMat(x)) for i, j, x in placed]),
              ent_from_blocks(shape, placed, LaurentPoly.zero()))
        # the integer blocks themselves
        ia, ic = la.coeff(0), lc.coeff(0)
        assert imat(ia, (n, k)) == ia and imat(imat_zero(n), (n, k)) == imat_zero(n)
        assert dense(imat_mul(ia, ic), m) == dense_mul(dense(ia, k), dense(ic, m), m)
        assert imat_mul(ia, imat_identity(k)) == ia == imat_mul(imat_identity(n), ia)


class TestDot:
    """The fused kernel against the folded ``+``/``@`` and entrywise references."""

    @settings(max_examples=100)
    @given(st.data())
    def test_sum_of_products(self, data):
        # 1x1 products (coefficient arithmetic) half of the time, else up to
        # 4x3 times 3x4 with the inner size drawn per pair
        unit = data.draw(st.booleans())
        n, m = (1, 1) if unit else (data.draw(st.integers(1, 4)) for _ in "nm")
        pairs, ref = [], (((LaurentPoly.zero(),) * m),) * n
        for _ in range(data.draw(st.integers(0, 5))):
            k = 1 if unit else data.draw(sizes)
            a, b = data.draw(sparse_grids(n, k)), data.draw(sparse_grids(k, m))
            pairs.append((LMat(a), LMat(b)))
            ref = ent_add(ref, ent_matmul(a, b, LaurentPoly.zero()))
        total = _dot((n, m), pairs)
        check(total, ref)
        folded = LMat.zeros(n, m)
        for a, b in pairs:
            folded = folded + a @ b
        assert total == folded
        if unit:
            assert all(b is _UNITS[b[0][0][1]] for b in total.blocks.values())
        k = data.draw(sizes)
        for bad in ((LMat.zeros(n, k), LMat.zeros(k + 1, m)),
                    (LMat.zeros(n + 1, k), LMat.zeros(k, m))):
            with pytest.raises(ValueError):
                _dot((n, m), [*pairs, bad])

    @pytest.mark.parametrize("top", [-2, 0, 1])
    @fewer
    @given(st.data())
    def test_window(self, top, data):
        """``_dot(shape, pairs, top)`` is the full sum without its blocks above top."""
        unit = data.draw(st.booleans())
        n, m = (1, 1) if unit else (data.draw(st.integers(1, 4)) for _ in "nm")
        pairs, ref = [], (((LaurentPoly.zero(),) * m),) * n
        for _ in range(data.draw(st.integers(0, 4))):
            k = 1 if unit else data.draw(sizes)
            a, b = data.draw(sparse_grids(n, k)), data.draw(sparse_grids(k, m))
            pairs.append((LMat(a), LMat(b)))
            ref = ent_add(ref, ent_matmul(a, b, LaurentPoly.zero()))
        full = LMat(ref).blocks
        got = _dot((n, m), pairs, top)
        assert got == LMat.from_coeffs((n, m), {g: b for g, b in full.items() if g <= top})
        assert _dot((n, m), [], top) == LMat.zeros(n, m)
        if unit:
            assert all(b is _UNITS[b[0][0][1]] for b in got.blocks.values())
        k = data.draw(sizes)
        for bad in ((LMat.zeros(n, k), LMat.zeros(k + 1, m)),
                    (LMat.zeros(n + 1, k), LMat.zeros(k, m))):
            with pytest.raises(ValueError):
                _dot((n, m), [*pairs, bad], top)


class TestEvaluate:
    """Kronecker substitution: the integer matrix of v^shift mat at v = 2^bits."""

    @fewer
    @given(st.data())
    def test_against_entrywise_values(self, data):
        n, m = data.draw(sizes), data.draw(sizes)
        rows = data.draw(grid(n, m))
        mat = LMat(rows)
        bits = data.draw(st.integers(1, 8))
        # every exponent is in -3..3, so v^3 makes each value an integer
        expect = tuple(tuple(sum(c << bits * (g + 3) for g, c in x.coeffs.items()) for x in row)
                       for row in rows)
        assert dense(_evaluate(mat, bits, 3), m) == expect
        # v^E bar(mat) at 2^B is v^-E mat at 2^-B
        assert _evaluate(mat, -bits, -3) == _evaluate(mat.bar(), bits, 3)
        assert _abs_row_sums(mat) == [sum(abs(c) for x in row for c in x.coeffs.values())
                                      for row in rows]

    def test_separates_a_difference_below_two_to_the_bits(self):
        """Two matrices that differ by 2^B - 1 in one coefficient have distinct
        values at 2^B; a difference of 2^B is where the bound stops."""
        bits = 5
        a = LMat([[v(-1) + 3, 0], [v(2), -v(1)]])
        for g in (-1, 0, 2):
            b = a + LMat([[0, v(g, 2 ** bits - 1)], [0, 0]])
            assert _evaluate(a, bits, 1) != _evaluate(b, bits, 1)
        # 2^B v^0 and v^1 take the same value: the coefficients must stay below 2^B
        assert _evaluate(LMat([[v(0, 2 ** bits)]]), bits, 0) == _evaluate(LMat([[v(1)]]), bits, 0)

    def test_negative_exponent_left_over(self):
        with pytest.raises(ValueError):
            _evaluate(LMat([[v(-2)]]), 4, 1)
        with pytest.raises(ValueError):
            _evaluate(LMat([[v(-2), 0], [0, 1]]), 4, 1)
