"""Sparse integer matrices, and Laurent matrices by exponent.

An ``IMat`` is a tuple of rows, each a tuple of ``(column, value)`` pairs
with strictly increasing columns and no zero value (the edge data of a
W-graph has about one nonzero per row).  The form is canonical, so equal
matrices are equal tuples; the shape is carried by the module or LMat.
A Laurent matrix :class:`LMat` is the sum ``sum_g v^g A_g`` stored as its
shape and the dict ``{g: A_g}`` of IMat blocks, with no all-zero block.
The bar involution negates the keys, the support split partitions them,
``coeff(g)`` looks one up and scaling by a monomial shifts them.  A sum
touches only the rows that its second term stores, so only nonzero
entries are touched.  1x1 matrices, the whole of every regular table, are
coefficient arithmetic on ``{g: c}``, and their blocks come from one table
keyed by c: equal ones are one object.

Products have one kernel, ``_dot(shape, pairs)``: the sum of ``a @ b``
over the pairs, added into one accumulator (``{exponent: coefficient}``
for 1x1 factors, else ``{exponent: {row: {column: value}}}``) from which
one LMat is built; ``a @ b`` is ``_dot`` of one pair, ``scale`` by a
factor f that is not a monomial is ``_dot`` against the scalar matrix
f * 1, and the triangular sums of the p/mu recursion call it once per
sum.  A private bound ``top`` skips every pair of blocks whose exponents
add up to more, so the mu-step forms only the exponents <= 0 it reads.

Identities between Laurent matrices are checked by products of integers
(Kronecker substitution): ``_evaluate`` gives the integer matrix of
``v^shift mat`` at ``v = 2^bits``, which decides the matrix when its
coefficients are small (the lemma in its docstring); ``_abs_row_sums``
bounds them, ``_placed_rows`` evaluates the blocks of a block matrix into
rows, and ``_mul_into`` is the integer product.  The oracle's sums, the
intertwining defect and all relations of a module are checked so.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import add, itemgetter, lt, sub
from sys import maxsize
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .laurent import LaurentPoly

IMat = Tuple[Tuple[Tuple[int, int], ...], ...]  # rows of (column, value) pairs


class _Units(dict):
    """The 1x1 blocks ``(((0, c),),)``, one per coefficient c."""

    def __missing__(self, c) -> IMat:
        block = self[c] = (((0, c),),)
        return block


_UNITS = _Units()


# -- k-matrix helpers -----------------------------------------------------

def imat(rows: Iterable[Iterable[Tuple[int, int]]], shape: Tuple[int, int]) -> IMat:
    """The matrix with these rows of ``(column, value)`` pairs; ``ValueError``
    unless there are ``shape[0]`` rows, each row's columns strictly increase
    in ``range(shape[1])`` and no value is zero.  Canonical tuple rows are
    kept as they are; other input is normalised and checked row by row."""
    nrows, ncols = shape
    try:
        out = tuple(rows)
        if len(out) == nrows and _canonical(out, ncols):
            return out
        out = tuple(tuple((j, c) for j, c in row) for row in out)
    except TypeError:
        raise ValueError("a sparse row holds (column, value) pairs") from None
    if len(out) != nrows:
        raise ValueError(f"matrix has {len(out)} rows, not {nrows}")
    for i, row in enumerate(out):
        cols = [j for j, _ in row]
        if not all(type(j) is int and 0 <= j < ncols for j in cols) or cols != sorted(set(cols)):
            raise ValueError(f"row {i} needs strictly increasing columns in 0..{ncols - 1}")
        if not all(c for _, c in row):
            raise ValueError(f"row {i} holds an explicit zero")
    return out


def _canonical(rows: tuple, ncols: int) -> bool:
    """Whether ``rows`` is an IMat with ``ncols`` columns, in whole-matrix passes:
    tuples of (int, nonzero) pairs whose keys i * ncols + j strictly increase."""
    if not set(map(type, rows)) <= {tuple}:
        return False
    flat = list(chain.from_iterable(rows))
    if not (set(map(type, flat)) <= {tuple} and set(map(len, flat)) <= {2}):
        return False
    cols = list(map(itemgetter(0), flat))
    if not (set(map(type, cols)) <= {int} and all(map(itemgetter(1), flat))):
        return False
    starts = range(0, len(rows) * ncols, ncols or 1)  # i * ncols, once per entry of row i
    keys = list(map(add, chain.from_iterable(map(repeat, starts, map(len, rows))), cols))
    return not cols or 0 <= min(cols) and max(cols) < ncols and all(map(lt, keys, keys[1:]))


def imat_zero(n: int) -> IMat:
    return ((),) * n


def imat_identity(n: int) -> IMat:
    return tuple(((i, 1),) for i in range(n))


def _block(acc: dict, n: int) -> IMat:
    """The n-row matrix of a ``{row: {column: value}}`` accumulator, its zero
    values dropped; absent rows are zero."""
    rows = [()] * n
    for i, r in acc.items():  # a one-entry row needs no sort
        rows[i] = tuple([e for e in (sorted(r.items()) if len(r) > 1 else r.items()) if e[1]])
    return tuple(rows)


def _scaled(a: IMat, c) -> IMat:
    return tuple(tuple([(j, c * x) for j, x in row]) for row in a)


def _mul_into(acc: dict, a: IMat, b: IMat) -> dict:
    """Add the product of two matrices to ``acc``, ``{row: {column: value}}``
    over the rows of ``a`` that hold an entry, and return ``acc``."""
    for i, arow in enumerate(a):
        if arow:
            orow = acc.get(i)
            if orow is None:
                orow = acc[i] = {}
            for t, x in arow:
                for j, y in b[t]:
                    orow[j] = orow.get(j, 0) + x * y
    return acc


# -- Laurent matrices -----------------------------------------------------

class LMat:
    """An immutable Laurent matrix: ``shape`` and the blocks ``{exponent: IMat}``.

    No exponent maps to an all-zero block, so equal matrices have equal
    block dicts and the zero matrix has none.
    """

    __slots__ = ("shape", "blocks")

    def __init__(self, rows: Iterable[Iterable]):
        """Convert rows of :class:`LaurentPoly` (or scalar) entries."""
        rows = [[LaurentPoly.coerce(x) for x in row] for row in rows]
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged matrix")
        self.shape: Tuple[int, int] = (len(rows), len(rows[0]) if rows else 0)
        exps = sorted({g for row in rows for x in row for g in x.support()})
        self.blocks: Dict[int, IMat] = _shared(self.shape, {g: tuple(
            tuple((j, x.coeff(g)) for j, x in enumerate(row) if x.coeff(g)) for row in rows
        ) for g in exps})

    # -- constructors --

    @classmethod
    def _new(cls, shape: Tuple[int, int], blocks: Dict[int, IMat]) -> "LMat":
        out = cls.__new__(cls)
        out.shape = shape
        out.blocks = blocks
        return out

    @classmethod
    def from_coeffs(cls, shape: Tuple[int, int], coeffs: Mapping[int, IMat]) -> "LMat":
        """The matrix ``sum_g v^g coeffs[g]``; all-zero blocks are dropped."""
        shape = tuple(shape)
        return cls._new(shape, _shared(shape, {g: b for g, b in coeffs.items() if any(b)}))

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "LMat":
        return cls._new((n, n if m is None else m), {})

    @classmethod
    def identity(cls, n: int) -> "LMat":
        return cls.from_coeffs((n, n), {0: imat_identity(n)})

    @classmethod
    def from_blocks(cls, shape: Tuple[int, int], placed: Iterable[tuple]) -> "LMat":
        """The matrix that holds each ``(top, left, block)`` with its upper left
        corner at (top, left) and is zero elsewhere; blocks must not overlap.
        Stored rows are shifted by ``left``; absent blocks cost nothing."""
        n, m = shape
        acc: Dict[int, list] = {}  # the rows of each exponent, as lists of pairs
        for top, left, block in placed:
            if min(top, left) < 0 or top + block.nrows > n or left + block.ncols > m:
                raise ValueError(f"a {block.nrows}x{block.ncols} block at ({top}, {left}) "
                                 f"does not fit a {n}x{m} matrix")
            for g, b in block.blocks.items():
                rows = acc.get(g)
                if rows is None:
                    rows = acc[g] = [[] for _ in range(n)]
                for i, row in enumerate(b, top):
                    rows[i].extend([(j + left, c) for j, c in row])
        return cls.from_coeffs(shape, {g: tuple(tuple(sorted(r)) for r in rows)
                                       for g, rows in acc.items()})

    # -- shape / access --

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def __getitem__(self, key) -> LaurentPoly:
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {key} outside a {self.nrows}x{self.ncols} matrix")
        return LaurentPoly({g: c for g, b in self.blocks.items() for col, c in b[i] if col == j})

    # -- arithmetic --

    def _merge(self, other: "LMat", op) -> "LMat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if not other.blocks:
            return self
        unit = self.shape == (1, 1)
        blocks = dict(self.blocks)
        for g, b in other.blocks.items():
            a = blocks.get(g)
            if unit:  # coefficient arithmetic
                c = op(a[0][0][1] if a else 0, b[0][0][1])
                c = _UNITS[c] if c else ()
            elif a is None:
                c = b if op is add else _scaled(b, -1)
            else:  # entrywise, on the rows that b stores
                c = list(a)
                for i in compress(count(), b):
                    row = dict(c[i])
                    for j, y in b[i]:
                        row[j] = op(row.get(j, 0), y)
                    c[i] = tuple([e for e in sorted(row.items()) if e[1]])
                c = tuple(c)
            if any(c):
                blocks[g] = c
            else:
                del blocks[g]
        return LMat._new(self.shape, blocks)

    def __add__(self, other: "LMat") -> "LMat":
        return self._merge(other, add)

    def __sub__(self, other: "LMat") -> "LMat":
        return self._merge(other, sub)

    def __neg__(self) -> "LMat":
        return self.scale(-1)

    def __matmul__(self, other: "LMat") -> "LMat":
        return _dot((self.shape[0], other.shape[1]), [(self, other)])

    def scale(self, factor) -> "LMat":
        """The matrix times the Laurent polynomial ``factor``.  A monomial
        c v^h shifts the keys by h (and scales each block when c != 1); any
        other factor f is the product ``_dot`` with the scalar matrix f * 1."""
        coeffs = LaurentPoly.coerce(factor).coeffs
        if len(coeffs) != 1:
            n = self.ncols
            scalar = {h: tuple(((i, c),) for i in range(n)) for h, c in coeffs.items()}
            return _dot(self.shape, [(self, LMat.from_coeffs((n, n), scalar))])
        (h, c), = coeffs.items()
        blocks = self.blocks.items()
        if c == 1:
            return LMat._new(self.shape, {g + h: b for g, b in blocks})
        if self.shape == (1, 1):  # coefficient arithmetic
            return LMat._new((1, 1), {g + h: _UNITS[c * b[0][0][1]] for g, b in blocks})
        return LMat._new(self.shape, {g + h: _scaled(b, c) for g, b in blocks})

    # -- Laurent structure, by exponent --

    def bar(self) -> "LMat":
        return LMat._new(self.shape, {-g: b for g, b in self.blocks.items()})

    def split(self) -> Tuple["LMat", "LMat", "LMat"]:
        """The (negative, constant, positive) exponent parts; they sum to the matrix."""
        parts: Tuple[dict, dict, dict] = ({}, {}, {})
        for g, b in self.blocks.items():
            parts[(g > 0) - (g < 0) + 1][g] = b
        return tuple(LMat._new(self.shape, part) for part in parts)

    def coeff(self, exponent: int) -> IMat:
        """The k-matrix of coefficients of ``v^exponent``."""
        block = self.blocks.get(exponent)
        return imat_zero(self.nrows) if block is None else block

    def exponents(self) -> tuple:
        return tuple(sorted(self.blocks))

    def is_zero(self) -> bool:
        return not self.blocks

    def is_bar_symmetric(self) -> bool:
        return all(self.blocks.get(-g) == b for g, b in self.blocks.items())

    # -- misc --

    def __eq__(self, other) -> bool:
        if not isinstance(other, LMat):
            return NotImplemented
        return self.shape == other.shape and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.shape, frozenset(self.blocks.items())))

    def __repr__(self) -> str:
        n, m = self.shape
        body = "; ".join(", ".join(str(self[i, j]) for j in range(m)) for i in range(n))
        return f"LMat[{body}]"


def _shared(shape: Tuple[int, int], blocks: Dict[int, IMat]) -> Dict[int, IMat]:
    """``blocks`` with each 1x1 block taken from the shared table."""
    return {g: _UNITS[b[0][0][1]] for g, b in blocks.items()} if shape == (1, 1) else blocks


def _dot(shape: Tuple[int, int], pairs: Iterable[Tuple[LMat, LMat]],
         top: int = maxsize) -> LMat:
    """The n x m matrix ``sum a @ b`` over the pairs, built once from one
    accumulator; ``ValueError`` unless every a is n x k and every b k x m.
    Only the exponents up to ``top`` are formed: every pair of blocks whose
    exponents add up to more is skipped."""
    n, m = shape
    unit = n == m == 1
    coeffs: Dict[int, int] = {}  # the 1x1 products, by exponent
    acc: Dict[int, dict] = {}  # every other product, by exponent
    for a, b in pairs:
        (na, k), (kb, mb) = a.shape, b.shape
        if k != kb or na != n or mb != m:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape} in a {n}x{m} sum")
        if unit and k == 1:  # a product of two Laurent polynomials
            terms = [(g2, y[0][0][1]) for g2, y in b.blocks.items()]
            for g1, x in a.blocks.items():
                c, room = x[0][0][1], top - g1
                for g2, d in terms:
                    if g2 <= room:
                        coeffs[g1 + g2] = coeffs.get(g1 + g2, 0) + c * d
            continue
        for g1, x in a.blocks.items():
            for g2, y in b.blocks.items():
                if g1 + g2 > top:
                    continue
                rows = acc.get(g1 + g2)
                if rows is None:
                    rows = acc[g1 + g2] = {}
                _mul_into(rows, x, y)
    if unit:  # row-by-column products join the coefficients
        for g, rows in acc.items():
            coeffs[g] = coeffs.get(g, 0) + sum(rows.get(0, {}).values())
        return LMat._new((1, 1), {g: _UNITS[c] for g, c in coeffs.items() if c})
    blocks = {g: _block(rows, n) for g, rows in acc.items()}
    return LMat._new((n, m), {g: b for g, b in blocks.items() if any(b)})


# -- Kronecker substitution -------------------------------------------------

def _abs_row_sums(mat: LMat) -> list:
    """The sum of the absolute coefficients of each row, over every exponent."""
    if mat.shape == (1, 1):
        return [sum([abs(b[0][0][1]) for b in mat.blocks.values()])]
    sums = [0] * mat.nrows
    for b in mat.blocks.values():
        for i, row in enumerate(b):
            sums[i] += sum([abs(c) for _, c in row])
    return sums


def _evaluate(mat: LMat, bits: int, shift: int) -> IMat:
    """The integer matrix of ``v^shift mat`` at ``v = 2^bits``; ``ValueError``
    (a negative shift count) unless ``bits * (g + shift) >= 0`` for every
    exponent g.  Since bar(f)(v) = f(1/v), ``v^E bar(mat)`` at ``v = 2^B``
    is ``_evaluate(mat, -B, -E)``.

    The value decides the matrix where its coefficients are small.  Lemma:
    let D have exponents >= -k and coefficients |c| < 2^B; if
    ``D(2^B) 2^(Bk) = 0`` then D = 0.  Proof: otherwise let g be the least
    exponent of some nonzero entry, with coefficient c there.  Every other
    term of ``(v^k D)(2^B)`` in that entry is a multiple of
    ``2^(B(g+k+1))``, so modulo that number the entry is
    ``(c mod 2^B) 2^(B(g+k))``, which is not 0 because 0 < |c| < 2^B.
    """
    if mat.shape == (1, 1):
        value = sum([b[0][0][1] << bits * (g + shift) for g, b in mat.blocks.items()])
        return (((0, value),),) if value else ((),)
    rows: Dict[int, dict] = {}
    for g, b in mat.blocks.items():
        e = bits * (g + shift)
        for i, row in enumerate(b):
            if row:
                acc = rows.setdefault(i, {})
                for j, c in row:
                    acc[j] = acc.get(j, 0) + (c << e)
    return _block(rows, mat.nrows)


def _placed_rows(placed: Iterable[tuple], values: Sequence, rank: int, size: int, bits: int,
                 shift: int) -> list:
    """The rows of the size x size matrix with block (x, y) = ``_evaluate(b,
    bits, shift)``, b = values[serial], for each (x, y, serial) in
    ``placed``, as lists of (column, value) pairs; each serial is evaluated
    once."""
    rows, done = [[] for _ in range(size)], {}
    for xi, yi, serial in placed:
        value = done.get(serial) or done.setdefault(serial, _evaluate(values[serial], bits, shift))
        for i, row in enumerate(value, xi * rank):
            rows[i] += [(j + yi * rank, c) for j, c in row]
    return rows
