"""Small dense matrices over exact rings.

Two flavours are used throughout the package:

* plain "k-matrices": tuples of tuples of base-ring scalars (the stored
  edge/idempotent data of a module),
* :class:`LMat`, matrices over :class:`~wgraphs.laurent.LaurentPoly`
  (everything the recursions actually multiply).

Ranks stay at desk scale (a few dozen), so the implementation favours
clarity over asymptotics; products skip zero entries since the matrices
coming out of W-graphs are sparse.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

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
    return all(all(x == 0 for x in row) for row in a)


def imat_mul(a: IMat, b: IMat) -> IMat:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        for t in range(k):
            x = row[t]
            if x == 0:
                continue
            brow = b[t]
            orow = out[i]
            for j in range(m):
                y = brow[j]
                if y != 0:
                    orow[j] += x * y
    return tuple(tuple(r) for r in out)


# -- Laurent matrices -----------------------------------------------------

class LMat:
    """An immutable matrix with :class:`LaurentPoly` entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows: Tuple[Tuple[LaurentPoly, ...], ...] = tuple(
            tuple(LaurentPoly.coerce(x) for x in row) for row in rows
        )
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    # -- constructors --

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "LMat":
        m = n if m is None else m
        z = LaurentPoly.zero()
        out = cls.__new__(cls)
        out.rows = tuple((z,) * m for _ in range(n))
        return out

    @classmethod
    def identity(cls, n: int) -> "LMat":
        one = LaurentPoly.one()
        z = LaurentPoly.zero()
        out = cls.__new__(cls)
        out.rows = tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))
        return out

    @classmethod
    def from_imat(cls, a: IMat) -> "LMat":
        return cls(a)

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["LMat"]]) -> "LMat":
        """Assemble a block matrix; every block in a row/column strip must agree in size."""
        rows = []
        for strip in grid:
            height = strip[0].nrows
            for i in range(height):
                row: list = []
                for block in strip:
                    if block.nrows != height:
                        raise ValueError("inconsistent block heights")
                    row.extend(block.rows[i])
                rows.append(tuple(row))
        out = cls.__new__(cls)
        out.rows = tuple(rows)
        return out

    # -- shape / access --

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, key) -> LaurentPoly:
        i, j = key
        return self.rows[i][j]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "LMat":
        out = LMat.__new__(LMat)
        out.rows = tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx)
        return out

    # -- arithmetic --

    def __add__(self, other: "LMat") -> "LMat":
        self._check_same_shape(other)
        out = LMat.__new__(LMat)
        out.rows = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )
        return out

    def __sub__(self, other: "LMat") -> "LMat":
        self._check_same_shape(other)
        out = LMat.__new__(LMat)
        out.rows = tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )
        return out

    def __neg__(self) -> "LMat":
        out = LMat.__new__(LMat)
        out.rows = tuple(tuple(-a for a in row) for row in self.rows)
        return out

    def __matmul__(self, other: "LMat") -> "LMat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        n, k, m = self.nrows, self.ncols, other.ncols
        zero = LaurentPoly.zero()
        out = [[zero] * m for _ in range(n)]
        for i in range(n):
            row = self.rows[i]
            orow = out[i]
            for t in range(k):
                x = row[t]
                if x.is_zero():
                    continue
                brow = other.rows[t]
                for j in range(m):
                    y = brow[j]
                    if not y.is_zero():
                        orow[j] = orow[j] + x * y
        res = LMat.__new__(LMat)
        res.rows = tuple(tuple(r) for r in out)
        return res

    def scale(self, factor) -> "LMat":
        f = LaurentPoly.coerce(factor)
        out = LMat.__new__(LMat)
        out.rows = tuple(tuple(f * a for a in row) for row in self.rows)
        return out

    # -- Laurent structure, entrywise --

    def bar(self) -> "LMat":
        out = LMat.__new__(LMat)
        out.rows = tuple(tuple(a.bar() for a in row) for row in self.rows)
        return out

    def split(self) -> Tuple["LMat", "LMat", "LMat"]:
        neg = [[None] * self.ncols for _ in range(self.nrows)]
        zer = [[None] * self.ncols for _ in range(self.nrows)]
        pos = [[None] * self.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                neg[i][j], zer[i][j], pos[i][j] = a.split()
        return LMat(neg), LMat(zer), LMat(pos)

    def coeff(self, exponent: int) -> IMat:
        """The k-matrix of coefficients of ``v^exponent``."""
        return tuple(tuple(a.coeff(exponent) for a in row) for row in self.rows)

    def exponents(self) -> tuple:
        exps = set()
        for row in self.rows:
            for a in row:
                exps.update(a.support())
        return tuple(sorted(exps))

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def is_bar_symmetric(self) -> bool:
        return all(a.is_bar_symmetric() for row in self.rows for a in row)

    # -- misc --

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def _check_same_shape(self, other: "LMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LMat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(a) for a in row) for row in self.rows)
        return f"LMat[{body}]"
