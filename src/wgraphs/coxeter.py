"""Exact Coxeter group combinatorics on canonical reduced words.

A :class:`CoxeterSystem` holds the Coxeter matrix and a positive integer
weight per generator.  Group elements are :class:`Element` values carrying
their canonical reduced word (ShortLex-minimal among all reduced words),
so equality of elements is equality of words.

Every word query reads one cached element table: the ball of some
radius, or the whole group (finite groups only).  The table is built one
length at a time from the exact images of the simple roots in Tits'
geometric representation, which is faithful, so no word is rewritten
(see :class:`_ElementTable`).  Canonical words, products, inverses and
descents are walks through ``lmult``, the table's left multiplications,
reading a word from its end.  A step out of the ball grows it by one
length, in place: tables only grow, so positions read before stay valid.
Bruhat order is read from bitset lower ideals of the element table, each
built on its element's first query.

Coset queries read a table of the minimal coset representatives D_J
inside W_K, built the same way over the generators of K and memoised per
(J, K); Deodhar's zero class s*x = x*t is read from the root images.
Every coset question is a walk through these tables and forms no
product: ``wgraphs.hy`` reads the Deodhar classes and the positions of s*x
from :meth:`coset_listing` for its towers, double-coset parts and
conjugated modules.  The table of J = {} and K = S is the element table.

Generator indices are 0-based internally.  A Coxeter matrix entry of 0
encodes an infinite bond order.

>>> a2 = CoxeterSystem(((1, 3), (3, 1)))
>>> sorted(x.word for x in a2.elements())
[(), (0,), (0, 1), (0, 1, 0), (1,), (1, 0)]
>>> a2.element((1, 0, 1)) == a2.element((0, 1, 0))
True
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

INFINITE = 0  # Coxeter matrix encoding of an infinite bond

Word = Tuple[int, ...]


class InvalidSystemError(ValueError):
    """The given matrix/weights do not define a weighted Coxeter system."""


class MixedSystemsError(ValueError):
    """Elements of two different systems were combined."""


class EnumerationError(RuntimeError):
    """Enumeration of an infinite group was requested without a cutoff."""


class Element:
    """A group element, represented by its canonical reduced word.

    The sort order is (length, word), i.e. ShortLex; this is the
    deterministic tie-break used by every list-returning operation.
    Construct via :meth:`CoxeterSystem.element`, not directly.
    """

    __slots__ = ("word", "system")

    def __init__(self, word: Word, system: "CoxeterSystem"):
        self.word = tuple(word)
        self.system = system

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "Element") -> "Element":
        return self.system.mult(self, other)

    def inverse(self) -> "Element":
        return self.system.inverse(self)

    def is_identity(self) -> bool:
        return not self.word

    def left_descents(self) -> FrozenSet[int]:
        return self.system.left_descents(self)

    def right_descents(self) -> FrozenSet[int]:
        return self.system.right_descents(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.system is not other.system and self.system != other.system:
            return False
        return self.word == other.word

    def __lt__(self, other: "Element") -> bool:
        self.system._check_same(other.system)
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __hash__(self):
        return hash(self.word)

    def __repr__(self) -> str:
        return f"<{self}>"

    def __str__(self) -> str:
        if not self.word:
            return "e"
        if self.system.rank <= 9:
            return "".join(str(s + 1) for s in self.word)
        return "-".join(str(s + 1) for s in self.word)


DEODHAR_PLUS = "plus"
DEODHAR_ZERO = "zero"
DEODHAR_MINUS = "minus"


@dataclass(frozen=True)
class DeodharClass:
    """Outcome of Deodhar's lemma for (J, s, w): how sw relates to D_J.

    ``conj`` is the generator t in J with sw = wt, present exactly in the
    ``zero`` case.
    """

    tag: str
    conj: Optional[int] = None

    def __post_init__(self):
        if (self.tag == DEODHAR_ZERO) != (self.conj is not None):
            raise ValueError("conj must be given iff tag == 'zero'")


_PLUS = DeodharClass(DEODHAR_PLUS)
_MINUS = DeodharClass(DEODHAR_MINUS)


class _Roots:
    """Roots of Tits' geometric representation, interned as integer ids.

    With M the lcm of the finite bond orders above 2 and zeta a primitive
    2M-th root of unity, every root has coordinates in Z[zeta] in the basis
    of simple roots.  A coordinate is stored as its integer coefficient
    vector in the basis 1, zeta, ..., zeta^(d-1) (d = deg Phi_2M), i.e.
    reduced modulo the cyclotomic polynomial, so equal roots have equal
    tuples.  The simple reflection s changes only coordinate s:
    v_s <- -v_s + sum_{t != s} 2cos(pi/m(s,t)) v_t, where
    2cos(pi/m) = zeta^(M/m) + zeta^(-M/m) and an infinite bond gives
    2 = zeta^0 + zeta^0.

    ``images[s]`` maps a root id to the id of its image under s; it is
    filled on demand by :meth:`reflect`.  The simple roots are ids 0..n-1.
    A system keeps one in its cache, so every table build shares the
    cyclotomic data and the images found so far.
    """

    def __init__(self, system: "CoxeterSystem"):
        n = system.rank
        orders = {m for row in system.matrix for m in row if m > 2}
        half = 1
        for m in orders:
            half = half * m // math.gcd(half, m)
        powers = _zeta_powers(2 * half)
        d = self.d = len(powers[0])
        self.bonds: List[List[Tuple[int, List[Tuple[int, ...]]]]] = []
        for s in range(n):
            bonds = []
            for t in range(n):
                m = system.matrix[s][t]
                if t == s or m == 2:
                    continue
                a = 0 if m == INFINITE else half // m  # 2cos(pi/m) = zeta^a + zeta^-a
                columns = [  # columns[j] = zeta^j * 2cos(pi/m)
                    tuple(x + y for x, y in zip(powers[(j + a) % (2 * half)],
                                                powers[(j - a) % (2 * half)]))
                    for j in range(d)
                ]
                bonds.append((t, columns))
            self.bonds.append(bonds)
        self.roots: List[Tuple[int, ...]] = []
        self.ids: dict = {}
        self.images: List[dict] = [{} for _ in range(n)]
        for s in range(n):
            self._intern(tuple(1 if k == s * d else 0 for k in range(n * d)))

    def _intern(self, root: Tuple[int, ...]) -> int:
        ident = self.ids.get(root)
        if ident is None:
            ident = self.ids[root] = len(self.roots)
            self.roots.append(root)
        return ident

    def reflect(self, s: int, r: int) -> int:
        """Id of s(root r), recorded in ``images[s]`` both ways."""
        d = self.d
        root = self.roots[r]
        lo = s * d
        out = [-x for x in root[lo:lo + d]]
        for t, columns in self.bonds[s]:
            for j, c in enumerate(root[t * d:t * d + d]):
                if c:
                    for k, x in enumerate(columns[j]):
                        out[k] += c * x
        image = self._intern(root[:lo] + tuple(out) + root[lo + d:])
        self.images[s][r] = image
        self.images[s][image] = r
        return image


def _zeta_powers(order: int) -> List[Tuple[int, ...]]:
    """zeta^k for k < order, zeta a primitive order-th root of unity.

    Each power is its coefficient vector modulo the cyclotomic polynomial
    Phi_order (monic, so the remainder is unique).
    """
    phi = _cyclotomic(order)
    d = len(phi) - 1
    power = [1] + [0] * (d - 1)
    out = []
    for _ in range(order):
        out.append(tuple(power))
        top = power[-1]  # times zeta: shift up, then zeta^d = -(phi[0] + ... )
        power = [0] + power[:-1]
        if top:
            power = [x - top * c for x, c in zip(power, phi)]
    return out


def _cyclotomic(n: int) -> List[int]:
    """Coefficients of Phi_n, constant term first: x^n - 1 over the Phi_e, e | n, e < n."""
    phis: dict = {}
    for e in range(1, n + 1):
        if n % e:
            continue
        poly = [-1] + [0] * (e - 1) + [1]
        for f, phi in phis.items():
            if e % f == 0:
                poly = _divide_monic(poly, phi)
        phis[e] = poly
    return phis[n]


def _divide_monic(num: List[int], den: List[int]) -> List[int]:
    """Exact quotient of integer polynomials, ``den`` monic (constant term first)."""
    num = list(num)
    shift = len(num) - len(den)
    quot = [0] * (shift + 1)
    for i in range(shift, -1, -1):
        c = quot[i] = num[i + len(den) - 1]
        if c:
            for j, x in enumerate(den):
                num[i + j] -= c * x
    if any(num):
        raise AssertionError("inexact cyclotomic division; this is a bug")
    return quot


class _ElementTable:
    """Minimal coset representatives D_J inside W_K, as a table.

    The table of J = {} and K = S is the *element table*: the whole group,
    or the ball of some radius in it.  ``words`` lists D_J n W_K sorted by
    (length, word), and the index of a word in it is its position.  For s
    in K, ``lmult[s][i]`` is the position of s*x for x = words[i], or None
    if s*x leaves D_J or the enumerated ball; the rows of generators
    outside K are None.  s*x leaves D_J exactly when s*x = x*t for a t in
    J, and then ``conj[s]`` maps i to the Deodhar class (zero, t).
    ``ideals[i]`` is the Bruhat lower ideal of x inside D_J as a bitset
    over positions, or None until :meth:`ideal` first builds it.

    The table grows one length at a time over s in K, without rewriting
    words, and never shrinks: :meth:`grow` appends layers in place, so a
    position, an ideal bitset or a row read before a growth stays valid.
    An element x is keyed by the root ids of x(alpha_1), ..., x(alpha_n)
    (see :class:`_Roots`); Tits' representation is faithful, so the key
    determines x, and the key of s*x is the image of x's key under the
    reflection s.  Only the last layer's keys are kept.  By Deodhar's
    lemma, s*x for x in D_J is shorter (minus, an earlier layer), or a new
    element of D_J (plus), or x*t for some t in J (zero).  The zero case
    holds exactly when x(alpha_t) = alpha_s: x^-1 s x = t says
    x(alpha_t) = +-alpha_s, and x in D_J has x(alpha_t) > 0.  So the zero
    classes and their conjugates t are read from the key, without a
    product, as the layer is added.  The elements of length k+1 are the
    new keys s*v with v of length k.  The canonical word of such an
    element u is the least ``(s,) + words[v]`` over its factorisations
    u = s*v, because the ShortLex-minimal reduced word starts with the
    least left descent.  s*u lies in D_J n W_K for every left descent s of
    u, so these are the element table's words.
    """

    def __init__(self, system: "CoxeterSystem", J: FrozenSet[int], K: FrozenSet[int]):
        rank = system.rank
        self.gens = sorted(K)
        self.zero = {t: DeodharClass(DEODHAR_ZERO, conj=t) for t in sorted(J)}
        self.roots = system._cache.get("roots")
        if self.roots is None:
            self.roots = system._cache["roots"] = _Roots(system)
        self.words: List[Word] = [()]
        self.index: dict = {(): 0}
        self.lmult: List = [[None] if s in K else None for s in range(rank)]
        # the identity's zero classes: s*e = e*s for s in J
        self.conj: List[dict] = [{0: self.zero[s]} if s in J else {} for s in range(rank)]
        self.ideals: List[Optional[int]] = [1]
        self.digits: dict = {}  # s -> the gather indices of :meth:`ideal`
        self.keys: List[Tuple[int, ...]] = [tuple(range(rank))]  # root-id keys of the last layer

    @property
    def complete(self) -> bool:
        """Whether the table holds all of D_J n W_K (the last layer is empty)."""
        return not self.keys

    def grow(self, radius: Optional[int]) -> None:
        """Append layers until the table holds the ball of this radius, or
        all of D_J n W_K for ``None``."""
        words = self.words
        while self.keys and (radius is None or len(words[-1]) < radius):
            lmult, conj, roots, gens = self.lmult, self.conj, self.roots, self.gens
            found: dict = {}  # key -> [least word, key, [(s, v), ...]]
            for v, key in enumerate(self.keys, len(words) - len(self.keys)):
                for s in gens:
                    if lmult[s][v] is not None or v in conj[s]:
                        continue  # s*v is shorter, or v*t for a t in J
                    image = roots.images[s]
                    longer = tuple([image[r] if r in image else roots.reflect(s, r) for r in key])
                    word = (s,) + words[v]
                    entry = found.get(longer)
                    if entry is None:
                        found[longer] = [word, longer, [(s, v)]]
                    else:
                        if word < entry[0]:
                            entry[0] = word
                        entry[2].append((s, v))
            self.keys = []
            zero = self.zero.items()
            for word, key, parents in sorted(found.values()):
                new_id = self.index[word] = len(words)
                words.append(word)
                self.keys.append(key)
                for s in gens:
                    lmult[s].append(None)
                for s, v in parents:
                    lmult[s][v] = new_id
                    lmult[s][new_id] = v
                for t, cls in zero:  # zero classes: u(alpha_t) is a simple root alpha_s
                    if key[t] < len(key):
                        conj[key[t]][new_id] = cls
            self.ideals += [None] * len(self.keys)
            self.digits.clear()  # the gather indices depend on the table's size

    def deodhar(self, s: int, i: int) -> DeodharClass:
        """The Deodhar class of s in K on the element at position i."""
        zero = self.conj[s].get(i)
        if zero is not None:
            return zero
        j = self.lmult[s][i]
        return _MINUS if j is not None and j < i else _PLUS

    def ideal(self, ident: int) -> int:
        """Bitset of the positions below element ``ident`` in the Bruhat order.

        With s the first letter of z's canonical word (a left descent),
        I(z) = I(sz) u s.I(sz), where the images s*y outside D_J (the zero
        class) are left out.  Every element of s.I(sz) is no longer than z,
        so a ball containing z contains the whole ideal.  s.I(sz) = {j <= z :
        s*x_j in I(sz)} (a j after z with s*x_j <= sz would lie below z by
        the lifting property) is gathered from I(sz)'s n + 1 binary digits
        through ``lmult[s]``, a missing s*x_j reading the leading 0: one
        string and one ``int`` per z.
        """
        ideals, words, n = self.ideals, self.words, len(self.words)
        chain = []
        while ideals[ident] is None:
            chain.append(ident)
            ident = self.lmult[words[ident][0]][ident]
        bits = ideals[ident]
        for z in reversed(chain):
            s = words[z][0]
            digits = self.digits.get(s)
            if digits is None:  # the index of the digit of s*x_j, for each j
                digits = self.digits[s] = [~n if j is None else ~j for j in self.lmult[s]]
            bits |= int("".join(itemgetter(*digits[z::-1])(f"{bits:0{n + 1}b}")), 2)
            ideals[z] = bits
        return bits


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bit_positions(bits: int) -> List[int]:
    """The positions of the set bits of ``bits``, ascending, from one scan of
    its binary digits (a shift per position would copy the int each time)."""
    digits = bin(bits)[:1:-1].encode().translate(_DIGITS)  # bytes 0 and 1
    return list(itertools.compress(itertools.count(), digits))


class CoxeterSystem:
    """A Coxeter matrix with a per-generator positive integer weight.

    ``matrix[s][t]`` is the bond order m(s,t) with 0 meaning infinity;
    ``weights[s]`` is the weight of generator s.  Weights must agree on
    generators joined by an odd bond (otherwise they do not extend to a
    weight function on the group).

    Systems are immutable after construction; the internal enumeration
    caches grow on demand and never change an answer.
    """

    __slots__ = ("matrix", "weights", "generator_set", "_cache")

    def __init__(self, matrix: Iterable[Iterable[int]], weights: Iterable[int] | None = None):
        self.matrix: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(x) for x in row) for row in matrix
        )
        n = len(self.matrix)
        self.weights: Tuple[int, ...] = (
            (1,) * n if weights is None else tuple(int(w) for w in weights)
        )
        self.generator_set: FrozenSet[int] = frozenset(range(n))
        self._cache: dict = {}
        self._validate()

    def _validate(self) -> None:
        n = len(self.matrix)
        if n == 0:
            raise InvalidSystemError("rank must be positive")
        for row in self.matrix:
            if len(row) != n:
                raise InvalidSystemError("matrix must be square")
        for s in range(n):
            if self.matrix[s][s] != 1:
                raise InvalidSystemError(f"diagonal entry m({s+1},{s+1}) must be 1")
            for t in range(s + 1, n):
                m = self.matrix[s][t]
                if m != self.matrix[t][s]:
                    raise InvalidSystemError(f"matrix must be symmetric at ({s+1},{t+1})")
                if m != INFINITE and m < 2:
                    raise InvalidSystemError(
                        f"off-diagonal m({s+1},{t+1}) must be >= 2 or 0 (= infinity)"
                    )
        if len(self.weights) != n:
            raise InvalidSystemError("one weight per generator required")
        for s, w in enumerate(self.weights):
            if w < 1:
                raise InvalidSystemError(f"weight of generator {s+1} must be >= 1")
        for s in range(n):
            for t in range(s + 1, n):
                m = self.matrix[s][t]
                if m != INFINITE and m % 2 == 1 and self.weights[s] != self.weights[t]:
                    raise InvalidSystemError(
                        f"odd bond m({s+1},{t+1})={m} forces equal weights"
                    )

    # -- basic queries --------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def order(self, s: int, t: int) -> int:
        """Bond order m(s,t); 0 means infinity."""
        return self.matrix[s][t]

    def weight(self, s: int) -> int:
        return self.weights[s]

    def _check_same(self, other: "CoxeterSystem") -> None:
        if self is other:
            return
        if self != other:
            raise MixedSystemsError("elements belong to different Coxeter systems")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoxeterSystem):
            return NotImplemented
        return self.matrix == other.matrix and self.weights == other.weights

    def __hash__(self):
        return hash((self.matrix, self.weights))

    # -- finiteness (classification of the diagram) ----------------------

    @property
    def is_finite(self) -> bool:
        """Whether the group is finite, by the classification of finite types."""
        cached = self._cache.get("finite")
        if cached is None:
            cached = all(_component_is_finite(self, comp) for comp in self._components())
            self._cache["finite"] = cached
        return cached

    def _components(self) -> List[List[int]]:
        seen = set()
        comps = []
        for start in range(self.rank):
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                s = queue.popleft()
                comp.append(s)
                for t in range(self.rank):
                    if t not in seen and s != t and self.matrix[s][t] != 2:
                        seen.add(t)
                        queue.append(t)
            comps.append(sorted(comp))
        return comps

    # -- element construction and arithmetic ------------------------------

    @property
    def identity(self) -> Element:
        return Element((), self)

    def generator(self, s: int) -> Element:
        self._check_generator(s)
        return Element((s,), self)

    def element(self, word: Sequence[int]) -> Element:
        """The element of the given (not necessarily reduced) word."""
        word = tuple(word)
        for s in word:
            self._check_generator(s)
        table, ident = self._walk((), word)
        return Element(table.words[ident], self)

    def _check_generator(self, s: int) -> None:
        if not isinstance(s, int) or not 0 <= s < self.rank:
            raise ValueError(f"generator index out of range: {s!r}")

    def _table(self, radius: Optional[int] = None, J: FrozenSet[int] = frozenset(),
               K: Optional[FrozenSet[int]] = None) -> _ElementTable:
        """The cached table of D_J inside W_K, grown to the ball of this radius.

        ``None`` asks for the whole subgroup; K = None means S.  The table of
        J = {} and K = S is the element table, cached under ``"table"``.
        Each table is built once per system and only grows.
        """
        K = self.generator_set if K is None else K
        J = J & K  # D_J n W_K = D_(J n K) n W_K
        key = "table" if not J and K == self.generator_set else ("table", J, K)
        table = self._cache.get(key)
        if table is None:
            table = self._cache[key] = _ElementTable(self, J, K)
        if radius is None and not table.complete and not self.is_finite:
            raise EnumerationError(
                "the group is infinite: enumeration requires an explicit max_length"
            )
        table.grow(radius)
        return table

    def _walk(self, start: Word, letters: Sequence[int]) -> Tuple[_ElementTable, int]:
        """The element table and the id of letters*start, for a canonical word start.

        The letters are read from the end, each a step through ``lmult``.  A
        step out of the ball grows it by one length, so a word that cancels
        does not build the ball its letter count would reach.
        """
        table = self._cache.get("table")
        ident = None if table is None else table.index.get(start)
        if ident is None:
            table = self._table(len(start))
            ident = table.index[start]
        for s in reversed(letters):
            step = table.lmult[s][ident]
            if step is None:
                table.grow(len(table.words[ident]) + 1)
                step = table.lmult[s][ident]
            ident = step
        return table, ident

    def mult(self, x: Element, y: Element) -> Element:
        self._check_same(x.system)
        self._check_same(y.system)
        table, ident = self._walk(y.word, x.word)
        return Element(table.words[ident], self)

    def inverse(self, x: Element) -> Element:
        # s_1 ... s_k read from its end is the left product s_k ... s_1
        self._check_same(x.system)
        table, ident = self._walk((), x.word[::-1])
        return Element(table.words[ident], self)

    def left_descents(self, x: Element) -> FrozenSet[int]:
        self._check_same(x.system)
        return self._descents(*self._walk(x.word, ()))

    def right_descents(self, x: Element) -> FrozenSet[int]:
        # the right descents of x are the left descents of x^-1
        self._check_same(x.system)
        return self._descents(*self._walk((), x.word[::-1]))

    def _descents(self, table: _ElementTable, ident: int) -> FrozenSet[int]:
        # the minus classes: a ball holds every shorter neighbour of its
        # elements, so a neighbour missing from the table is longer
        return frozenset(s for s in range(self.rank) if table.deodhar(s, ident) is _MINUS)

    # -- Bruhat order -----------------------------------------------------

    def bruhat_leq(self, x: Element, z: Element) -> bool:
        """Whether x <= z in the Bruhat-Chevalley order."""
        self._check_same(x.system)
        self._check_same(z.system)
        # a ball of radius l(z) holds z's whole lower ideal
        table = self._table(len(z.word))
        xi = table.index.get(x.word)
        if xi is None:
            return False
        return bool(table.ideal(table.index[z.word]) >> xi & 1)

    def bruhat_ideals(self, elements: Sequence[Element], J: Iterable[int] = (),
                      K: Optional[Iterable[int]] = None) -> List[int]:
        """Bruhat order on a list of D_J n W_K sorted by (length, word), as
        position bitsets.

        Bit j of the i-th bitset is set iff elements[j] <= elements[i].  An
        element is below only elements at least as long, so only j <= i
        are tested, against the ideal of elements[i] in the table of D_J
        inside W_K; for the listing of that table (:meth:`min_coset_reps`)
        the ideals are the table's bitsets as they stand.
        """
        if not elements:
            return []
        for x in elements:
            self._check_same(x.system)
        # a ball of radius l(z) holds z's whole lower ideal
        table = self._table(len(elements[-1].word), self._subset(J),
                            None if K is None else self._subset(K))
        ids = [table.index.get(x.word, -1) for x in elements]
        if ids[0] < 0 or any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("elements must lie in D_J and be sorted by (length, word) "
                             "without repeats")
        out = []
        for i, ident in enumerate(ids):
            ideal = table.ideal(ident)
            if ident == i:  # elements[:i + 1] are positions 0..i of the table
                out.append(ideal)
                continue
            out.append(sum([1 << j for j in range(i + 1) if ideal >> ids[j] & 1]))
        return out

    # -- enumeration -------------------------------------------------------

    def elements(self, max_length: Optional[int] = None) -> List[Element]:
        """All elements (finite group) or the ball of radius max_length."""
        return self.min_coset_reps((), max_length=max_length)

    def _subset(self, J: Iterable[int]) -> FrozenSet[int]:
        J = frozenset(J)
        for s in J:
            self._check_generator(s)
        return J

    def min_coset_reps(
        self,
        J: Iterable[int],
        K: Optional[Iterable[int]] = None,
        max_length: Optional[int] = None,
    ) -> List[Element]:
        """Minimal-length representatives of the cosets x W_J (inside W_K).

        These are the x with l(xu) > l(x) for every u in J, sorted by
        (length, word): the listing of the table of D_J inside W_K, which
        never enumerates W_K.  K = None and K = S both mean the whole group.
        """
        table, n = self._listing(J, K, max_length)
        return [Element(w, self) for w in table.words[:n]]

    def coset_listing(self, J: Iterable[int], K: Optional[Iterable[int]] = None,
                      max_length: Optional[int] = None) -> tuple:
        """``(reps, (classes, shifted))``: :meth:`min_coset_reps` of (J, K)
        with its position arrays, all read from one coset table.

        For each s in K, ``classes[s]`` lists the Deodhar class of s on each
        representative and ``shifted[s]`` the position of s*x (None in the
        zero case or outside the listing), without a product.  With
        ``max_length`` the table grows only to that ball: a missing s*x is longer.
        """
        table, n = self._listing(J, K, max_length)
        classes = {s: [table.deodhar(s, i) for i in range(n)] for s in table.gens}
        shifted = {s: [None if j is None or j >= n else j for j in table.lmult[s][:n]]
                   for s in table.gens}
        return [Element(w, self) for w in table.words[:n]], (classes, shifted)

    def _listing(self, J: Iterable[int], K: Optional[Iterable[int]],
                 max_length: Optional[int]) -> Tuple[_ElementTable, int]:
        """The table of D_J inside W_K, grown to ``max_length``, and the
        number of its words no longer than that, which list by length."""
        if max_length is not None and max_length < 0:
            raise ValueError(f"max_length must be at least 0, not {max_length}")
        table = self._table(max_length, self._subset(J), None if K is None else self._subset(K))
        if max_length is None:
            return table, len(table.words)
        return table, bisect_right(table.words, max_length, key=len)

    def __repr__(self) -> str:
        return f"CoxeterSystem(matrix={self.matrix!r}, weights={self.weights!r})"


def _component_is_finite(system: CoxeterSystem, comp: List[int]) -> bool:
    """Finite-type test for one connected component of the diagram."""
    n = len(comp)
    edges = []
    for s, t in itertools.combinations(comp, 2):
        m = system.matrix[s][t]
        if m == INFINITE:
            return False
        if m >= 3:
            edges.append((s, t, m))
    if n == 1:
        return True
    if n == 2:
        return True  # I2(m), m finite
    if len(edges) != n - 1:
        return False  # a cycle: affine or worse
    labels = sorted(m for _, _, m in edges)
    degree = {s: 0 for s in comp}
    for s, t, _ in edges:
        degree[s] += 1
        degree[t] += 1
    degrees = sorted(degree.values(), reverse=True)
    is_path = degrees[0] <= 2

    if labels[-1] == 3:  # simply laced: A, D, E
        if is_path:
            return True  # A_n
        if degrees[0] > 3 or degrees.count(3) > 1:
            return False
        # one branch node with three arms; classify by arm lengths
        node = next(s for s, d in degree.items() if d == 3)
        arms = sorted(_arm_length(edges, node, first) for first in _neighbours(edges, node))
        if arms[0] != 1:
            return False
        if arms[1] == 1:
            return True  # D_n
        return arms[1] == 2 and arms[2] in (2, 3, 4)  # E6, E7, E8
    if not is_path:
        return False
    big = [m for m in labels if m >= 4]
    if len(big) != 1:
        return False
    m = big[0]
    heavy = next((s, t) for s, t, mm in edges if mm == m)
    end_edge = degree[heavy[0]] == 1 or degree[heavy[1]] == 1
    if m == 4:
        return end_edge or n == 4  # B_n, or F4 (path of 4 with the 4-bond inside)
    if m == 5:
        return end_edge and n in (3, 4)  # H3, H4
    return False  # m >= 6 on a rank >= 3 path is affine or indefinite


def _neighbours(edges, node):
    for s, t, _ in edges:
        if s == node:
            yield t
        elif t == node:
            yield s


def _arm_length(edges, branch, first) -> int:
    length = 1
    prev, cur = branch, first
    while True:
        nxt = [x for x in _neighbours(edges, cur) if x != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1
