"""Exact sparse Laurent polynomials in one variable v.

Coefficients are any exact ring the caller puts in (Python ints by
default; ``fractions.Fraction`` works unchanged).  No floating point is
ever introduced: every operation is a dict merge over integer exponents.

The three operations every recursion in this package is built on:

* ring arithmetic (``+``, ``-``, ``*``),
* the bar involution v |-> v^-1 (:meth:`LaurentPoly.bar`),
* the support split into negative / constant / positive parts
  (:meth:`LaurentPoly.split`).

>>> f = LaurentPoly({-1: 1, 0: -2, 3: 1})
>>> print(f)
v^-1 - 2 + v^3
>>> print(f.bar())
v^-3 - 2 + v
>>> [str(part) for part in f.split()]
['v^-1', '-2', 'v^3']
"""

from __future__ import annotations

from typing import Iterator, Mapping, Tuple, Union

Scalar = int  # stand-in for "element of the exact base ring"


class LaurentPoly:
    """A Laurent polynomial ``sum c_g * v^g`` stored as {exponent: coeff}.

    Instances are immutable; zero coefficients are never stored.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        data = {}
        if coeffs:
            for g, c in coeffs.items():
                if c != 0:
                    data[int(g)] = c
        self._coeffs = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: Scalar) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def v(cls, exponent: int = 1, coeff: Scalar = 1) -> "LaurentPoly":
        """The monomial ``coeff * v^exponent``."""
        return cls({exponent: coeff})

    @staticmethod
    def coerce(value: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        return LaurentPoly({0: value})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[Tuple[int, Scalar]]:
        return iter(sorted(self._coeffs.items()))

    @property
    def coeffs(self) -> dict:
        return dict(self._coeffs)

    def coeff(self, exponent: int) -> Scalar:
        return self._coeffs.get(exponent, 0)

    def support(self) -> tuple:
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- ring structure -----------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        data = dict(self._coeffs)
        for g, c in other._coeffs.items():
            s = data.get(g, 0) + c
            if s == 0:
                data.pop(g, None)
            else:
                data[g] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = data
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = {g: -c for g, c in self._coeffs.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return LaurentPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        if not self._coeffs or not other._coeffs:
            return LaurentPoly.zero()
        data: dict = {}
        for g1, c1 in self._coeffs.items():
            for g2, c2 in other._coeffs.items():
                g = g1 + g2
                s = data.get(g, 0) + c1 * c2
                if s == 0:
                    data.pop(g, None)
                else:
                    data[g] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = data
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # a constant hashes like the scalar it equals
        if not self._coeffs.keys() - {0}:
            return hash(self._coeffs.get(0, 0))
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- the involution and the support split --------------------------

    def bar(self) -> "LaurentPoly":
        """The image under the involution v |-> v^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._coeffs = {-g: c for g, c in self._coeffs.items()}
        return out

    def is_bar_symmetric(self) -> bool:
        return all(self._coeffs.get(-g, 0) == c for g, c in self._coeffs.items())

    def split(self) -> Tuple["LaurentPoly", "LaurentPoly", "LaurentPoly"]:
        """Decompose into (negative, constant, positive) support parts.

        The three parts sum back to the polynomial.
        """
        neg, zero, pos = {}, {}, {}
        for g, c in self._coeffs.items():
            (neg if g < 0 else pos if g > 0 else zero)[g] = c
        return LaurentPoly(neg), LaurentPoly(zero), LaurentPoly(pos)

    # -- display --------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for g in sorted(self._coeffs):
            c = self._coeffs[g]
            if g == 0:
                body = str(abs(c) if isinstance(c, int) else c)
            else:
                vpow = "v" if g == 1 else f"v^{g}"
                ac = abs(c) if isinstance(c, int) else c
                body = vpow if ac == 1 else f"{ac}*{vpow}"
            sign = "-" if isinstance(c, int) and c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text



def v(exponent: int = 1, coeff: Scalar = 1) -> LaurentPoly:
    """Shorthand for the monomial ``coeff * v^exponent``."""
    return LaurentPoly.v(exponent, coeff)
