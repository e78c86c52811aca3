"""Small dense matrices over exact rings, and Laurent matrices by exponent.

An ``IMat`` is a tuple of row tuples of exact scalars (Python ints): the
stored idempotent and edge data of a module.  A Laurent matrix
:class:`LMat` is the sum ``sum_g v^g A_g`` stored as its shape and the
dict ``{g: A_g}`` of IMat coefficient blocks, with no all-zero block.
The operations the recursions need are then operations on keys: the bar
involution negates them, the support split partitions them, ``coeff(g)``
looks one up and scaling by a monomial shifts them.  Sums merge blocks
exponent by exponent, and products multiply integer blocks for every pair
of exponents, skipping zero entries since the matrices coming out of
W-graphs are sparse.  1x1 products, the whole of every regular and
Kazhdan-Lusztig table, are plain polynomial products on ``{g: c}``.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, neg, sub
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .laurent import LaurentPoly

IMat = Tuple[Tuple[int, ...], ...]  # k-matrix (scalar entries)


# -- k-matrix helpers -----------------------------------------------------

def imat(rows: Iterable[Iterable[int]]) -> IMat:
    return tuple(tuple(row) for row in rows)


def imat_zero(n: int, m: int | None = None) -> IMat:
    m = n if m is None else m
    return tuple((0,) * m for _ in range(n))


def imat_identity(n: int) -> IMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def imat_is_zero(a: IMat) -> bool:
    return not any(map(any, a))


def imat_mul(a: IMat, b: IMat) -> IMat:
    acc = [[0] * (len(b[0]) if b else 0) for _ in a]
    _mul_into(acc, _sparse_rows(a), _sparse_rows(b))
    return imat(acc)


def _sparse_rows(a: IMat) -> list:
    """The nonzero entries ``(j, a[i][j])`` of each row i."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def _negated(a: IMat) -> IMat:
    return tuple(map(tuple, map(map, repeat(neg), a)))


def _mul_into(acc: list, a_rows: list, b_rows: list) -> None:
    """Add the product of two matrices, given by their sparse rows, to ``acc``."""
    for orow, arow in zip(acc, a_rows):
        for t, x in arow:
            for j, y in b_rows[t]:
                orow[j] += x * y


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
        self.blocks: Dict[int, IMat] = {
            g: tuple(tuple(x.coeff(g) for x in row) for row in rows) for g in exps
        }

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
        return cls._new(
            tuple(shape), {g: imat(b) for g, b in coeffs.items() if not imat_is_zero(b)}
        )

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "LMat":
        return cls._new((n, n if m is None else m), {})

    @classmethod
    def identity(cls, n: int) -> "LMat":
        return cls._new((n, n), {0: imat_identity(n)} if n else {})

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["LMat"]]) -> "LMat":
        """Assemble a block matrix; every block in a row/column strip must agree in size."""
        widths = [block.ncols for block in grid[0]] if grid else []
        for strip in grid:
            if [b.ncols for b in strip] != widths or len({b.nrows for b in strip}) > 1:
                raise ValueError("inconsistent block sizes")
        exps = sorted({g for strip in grid for block in strip for g in block.blocks})
        zero_rows = [(0,) * w for w in widths]  # one row of each missing sub-block
        blocks = {}
        for g in exps:
            rows = []
            for strip in grid:
                parts = [block.blocks.get(g) for block in strip]
                for i in range(strip[0].nrows):
                    rows.append(tuple(chain.from_iterable(
                        zero if part is None else part[i] for part, zero in zip(parts, zero_rows)
                    )))
            blocks[g] = tuple(rows)
        return cls._new((sum(strip[0].nrows for strip in grid), sum(widths)), blocks)

    # -- shape / access --

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def __getitem__(self, key) -> LaurentPoly:
        i, j = key
        return LaurentPoly({g: b[i][j] for g, b in self.blocks.items()})

    # -- arithmetic --

    def _merge(self, other: "LMat", op) -> "LMat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        blocks = dict(self.blocks)
        for g, b in other.blocks.items():
            a = blocks.get(g)
            if a is None:
                blocks[g] = b if op is add else _negated(b)
                continue
            c = tuple(map(tuple, map(map, repeat(op), a, b)))
            if any(map(any, c)):
                blocks[g] = c
            else:
                del blocks[g]
        return LMat._new(self.shape, blocks)

    def __add__(self, other: "LMat") -> "LMat":
        return self._merge(other, add)

    def __sub__(self, other: "LMat") -> "LMat":
        return self._merge(other, sub)

    def __neg__(self) -> "LMat":
        return LMat._new(self.shape, {g: _negated(b) for g, b in self.blocks.items()})

    def __matmul__(self, other: "LMat") -> "LMat":
        (n, k), (k2, m) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if n == k == m == 1:  # a product of two Laurent polynomials
            coeffs: Dict[int, int] = {}
            for g1, a in self.blocks.items():
                x = a[0][0]
                for g2, b in other.blocks.items():
                    g = g1 + g2
                    coeffs[g] = coeffs.get(g, 0) + x * b[0][0]
            return LMat._new((1, 1), {g: ((c,),) for g, c in coeffs.items() if c})
        b_rows = [(g, _sparse_rows(b)) for g, b in other.blocks.items()]
        acc: Dict[int, list] = {}
        for g1, a in self.blocks.items():
            a_rows = _sparse_rows(a)
            for g2, rows in b_rows:
                out = acc.get(g1 + g2)
                if out is None:
                    out = acc[g1 + g2] = [[0] * m for _ in range(n)]
                _mul_into(out, a_rows, rows)
        return LMat.from_coeffs((n, m), acc)

    def scale(self, factor) -> "LMat":
        coeffs = LaurentPoly.coerce(factor).coeffs
        if len(coeffs) == 1:  # a monomial c v^h shifts the keys by h
            (h, c), = coeffs.items()
            return LMat._new(self.shape, {
                g + h: b if c == 1 else tuple(tuple(c * x for x in row) for row in b)
                for g, b in self.blocks.items()
            })
        n = self.nrows
        scalar = {h: tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))
                  for h, c in coeffs.items()}
        return LMat._new((n, n), scalar) @ self

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
        return imat_zero(*self.shape) if block is None else block

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
