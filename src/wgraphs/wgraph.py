"""W-graphs and their basis-free form: finite-rank matrix modules.

An :class:`OmegaModule` over the generator subset J stores, for each s in
J, an idempotent k-matrix ``E_s`` and edge-weight k-matrices ``X_{s,g}``
for the exponents 0 <= g < L(s) (the weight-(-g) matrix equals the
weight-g one and is not stored separately).  All of them are sparse
:data:`~wgraphs.matrix.IMat` rows of ``(column, value)`` pairs, so a
module costs its nonzero entries, not rank^2.  The defining relations are

* ``E_s^2 = E_s``, ``E_s E_t = E_t E_s``,
* ``E_s X_{s,g} = X_{s,g}``, ``X_{s,g} E_s = 0``,

and the braid relations for the Laurent matrices

    T(s) = -v_s^-1 E_s + v_s (1 - E_s) + sum_g v^g X_{s,g},

where v_s = v^L(s).  :func:`validate` checks all of this by exact
arithmetic on the stored rows.  A :class:`WGraph` is such a module whose
``E_s`` are all diagonal 0/1 matrices, with a name for each basis vector:
vertex i has the label {s : E_s[i][i] = 1} and an s-edge of weight c v^g
from j to i where row i of ``X_{s,g}`` holds ``(j, c)``.  On diagonal
idempotents the relations
``E_s X_{s,g} = X_{s,g}`` and ``X_{s,g} E_s = 0`` are the label condition:
an s-edge leaves a vertex without s in its label and enters one with it.

:meth:`OmegaModule.restrict` keeps some generators and cuts to a vertex list.
On the induced Hecke module, :func:`hecke_t_column` applies T_s, and a
:class:`BlockTable` holds the blocks of a base change by the positions of
the coset representatives, for the direct recursion and the oracle alike,
whose subsets :func:`table_subsets` checks.
"""

from __future__ import annotations

from array import array
from collections.abc import Container, ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .coxeter import DEODHAR_MINUS, DEODHAR_ZERO, CoxeterSystem, DeodharClass, Element
from .laurent import LaurentPoly
from .matrix import IMat, LMat, _abs_row_sums, _dot, _evaluate, _mul_into, imat, imat_zero
from .report import Report


class OmegaModule:
    """A finite-rank matrix module for the W-graph algebra of (W_J, L).

    Immutable after construction.  ``e`` maps s -> k-matrix; ``x`` maps
    (s, g) with g >= 0 -> k-matrix (zero matrices may be omitted).  Each
    k-matrix is ``rank`` sparse rows, checked by :func:`~wgraphs.matrix.imat`.
    """

    __slots__ = ("system", "gens", "rank", "e", "x", "_cache")

    def __init__(
        self,
        system: CoxeterSystem,
        gens: Iterable[int],
        rank: int,
        e: Mapping[int, IMat],
        x: Mapping[Tuple[int, int], IMat],
    ):
        self.system = system
        self.gens: FrozenSet[int] = system._subset(gens)
        self.rank = int(rank)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        e_data: Dict[int, IMat] = {}
        for s, mat in e.items():
            if s not in self.gens:
                raise ValueError(f"idempotent for generator {s+1} outside J")
            e_data[s] = imat(mat, (self.rank, self.rank))
        self.e = e_data
        x_data: Dict[Tuple[int, int], IMat] = {}
        for (s, g), mat in x.items():
            if s not in self.gens:
                raise ValueError(f"edge matrix for generator {s+1} outside J")
            g = abs(int(g))
            if g >= system.weight(s):
                raise ValueError(
                    f"edge exponent {g} out of range for generator {s+1} (weight {system.weight(s)})"
                )
            mat = imat(mat, (self.rank, self.rank))
            previous = x_data.get((s, g))
            if previous is not None and previous != mat:
                raise ValueError(f"conflicting matrices for X_({s+1},{g}) and X_({s+1},{-g})")
            if any(mat):
                x_data[(s, g)] = mat
        self.x = x_data
        self._cache: dict = {}

    # -- data access ------------------------------------------------------

    def e_mat(self, s: int) -> IMat:
        if s not in self.gens:
            raise ValueError(f"generator {s+1} not in J")
        return self.e.get(s) or imat_zero(self.rank)

    def x_mat(self, s: int, gamma: int) -> IMat:
        if s not in self.gens:
            raise ValueError(f"generator {s+1} not in J")
        return self.x.get((s, abs(gamma))) or imat_zero(self.rank)

    def matrices(self, s: int) -> List[IMat]:
        """[E_s, X_(s,0), ..., X_(s,L(s)-1)]."""
        return [self.e_mat(s)] + [self.x_mat(s, g) for g in range(self.system.weight(s))]

    def iota_t(self, s: int, inverse: bool = False) -> LMat:
        """The Laurent matrix of the Hecke generator T_s acting on the module,
        or with ``inverse`` of T_s^-1 = T_s - (v_s - v_s^-1)."""
        cached = self._cache.get(("iota_t", s, inverse))
        if cached is not None:
            return cached
        ls = self.system.weight(s)
        identity = LMat.identity(self.rank)
        if inverse:
            result = self.iota_t(s) - identity.scale(LaurentPoly({ls: 1, -ls: -1}))
        else:
            shape = (self.rank, self.rank)
            e_s = LMat.from_coeffs(shape, {0: self.e_mat(s)})
            x_s = {k: mat for g in range(ls) for k in (g, -g) if (mat := self.x.get((s, g)))}
            result = ((identity - e_s).scale(LaurentPoly.v(ls))
                      + e_s.scale(LaurentPoly.v(-ls, -1)) + LMat.from_coeffs(shape, x_s))
        self._cache[("iota_t", s, inverse)] = result
        return result

    # -- structure ---------------------------------------------------------

    def has_diagonal_idempotents(self) -> bool:
        for s in self.gens:
            for i, row in enumerate(self.e_mat(s)):
                if row and row != ((i, 1),):
                    return False
        return True

    def vertex_label(self, i: int) -> FrozenSet[int]:
        return frozenset(s for s in self.gens if (i, 1) in self.e_mat(s)[i])

    def conjugate(self, relabel: Mapping[int, int]) -> "OmegaModule":
        """The module over the keys of ``relabel``, with s acting as t =
        ``relabel[s]`` did: over K n dJd^-1 for the zero classes s*d = d*t
        of a d in D_J.  Each s and t must carry one weight."""
        system = self.system
        e = {s: self.e_mat(t) for s, t in relabel.items()}
        for s in system._subset(relabel):
            if system.weight(s) != system.weight(relabel[s]):
                raise ValueError(f"generators {s+1} and {relabel[s]+1} carry different weights")
        x = {(s, g): mat for s, t in relabel.items() for (u, g), mat in self.x.items() if u == t}
        return OmegaModule(system, relabel, self.rank, e, x)

    def restrict(self, J: Iterable[int], vertices: Optional[Sequence[int]] = None) -> "OmegaModule":
        """Forget the generators outside J; the result is a module for J.

        With ``vertices``, distinct basis positions, each E_s and X_(s,g)
        kept is cut to the rows and columns ``vertices``, renumbered in
        their order: the subquotient on their span, where it is one."""
        J = self.system._subset(J)
        if not J <= self.gens:
            raise ValueError("can only restrict to a subset of the module's generators")
        e = {s: mat for s, mat in self.e.items() if s in J}
        x = {(s, g): mat for (s, g), mat in self.x.items() if s in J}
        if vertices is None:
            return OmegaModule(self.system, J, self.rank, e, x)
        at = {v: i for i, v in enumerate(vertices)}
        if len(at) != len(vertices) or not all(0 <= v < self.rank for v in at):
            raise ValueError("vertices must be distinct basis positions")
        e, x = ({k: tuple(tuple(sorted((at[j], c) for j, c in mat[v] if j in at)) for v in vertices)
                 for k, mat in mats.items()} for mats in (e, x))
        return OmegaModule(self.system, J, len(at), e, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaModule):
            return NotImplemented
        return (
            self.system == other.system
            and self.gens == other.gens
            and self.rank == other.rank
            and {s: self.e_mat(s) for s in self.gens} == {s: other.e_mat(s) for s in other.gens}
            and self.x == other.x
        )

    def __repr__(self) -> str:
        return f"OmegaModule(J={sorted(s + 1 for s in self.gens)}, rank={self.rank})"


@dataclass(frozen=True)
class WGraph:
    """A module with diagonal 0/1 idempotents and one name per basis vector.

    Vertex i carries the label {s : E_s[i][i] = 1}; :func:`edges` lists
    the edges.  Build one with :func:`to_wgraph`.
    """

    module: OmegaModule
    vertices: Tuple[str, ...]


def to_wgraph(module: OmegaModule, vertices: Iterable[str]) -> WGraph:
    """Name the basis vectors of a module with diagonal idempotents."""
    if not module.has_diagonal_idempotents():
        raise ValueError("module idempotents are not diagonal 0/1 matrices")
    names = tuple(str(v) for v in vertices)
    if len(names) != module.rank:
        raise ValueError("need one vertex name per basis element")
    if len(set(names)) != len(names):
        raise ValueError("vertex names must be distinct")
    return WGraph(module, names)


def edges(module: OmegaModule) -> List[Tuple[Tuple[int, int, int], Dict[int, int]]]:
    """The edges ((s, i, j), {g: c}), sorted, with g >= 0 and c != 0.

    Vertex i occurs with coefficient c in the image of vertex j under the
    weight-g edge operator of s, i.e. row i of ``X_{s,g}`` holds ``(j, c)``.
    """
    out: Dict[Tuple[int, int, int], Dict[int, int]] = {}
    for (s, g), mat in sorted(module.x.items()):
        for i, row in enumerate(mat):
            for j, c in row:
                out.setdefault((s, i, j), {})[g] = c
    return sorted(out.items())


def leaks(mat: IMat, vertices: Container[int]) -> bool:
    """Whether ``mat`` maps a vertex in ``vertices`` outside their span:
    some row outside them holds a column inside them."""
    return any(j in vertices for i, row in enumerate(mat) if i not in vertices for j, _ in row)


# -- the induced Hecke module -------------------------------------------------


def hecke_t_column(
    module: OmegaModule,
    s: int,
    classes: Sequence[DeodharClass],
    shifted: Sequence[Optional[int]],
    column: Sequence[int],
    values: Sequence[Optional[LMat]],
    share: Callable[[LMat], int],
    memo: Tuple[dict, dict, dict],
    inverse: bool = False,
) -> List[int]:
    """T_s, or T_s^-1 with ``inverse``, on the vector sum_x T_x (x) values[column[x]].

    The induced module H (x)_{H_J} M has the basis T_x (x) m, for x in a
    listing of representatives of D_J and m in ``module``; ``classes`` and
    ``shifted`` are the Deodhar classes of s on them and the positions of
    s*x (:meth:`~wgraphs.coxeter.CoxeterSystem.coset_listing`), and
    ``column`` lists serial numbers of blocks acting on M by position, 0 for
    a zero block, as a :class:`BlockTable` column does.  By Deodhar's
    trichotomy, with delta = v_s - v_s^-1 and T_s^-1 = T_s - delta,

    * plus:  T_s (T_x (x) m) = T_sx (x) m,
    * minus: T_s (T_x (x) m) = T_sx (x) m + delta T_x (x) m,
    * zero:  T_s (T_x (x) m) = T_x (x) T_t m, t the conjugate generator.

    Returns the image as serials over all the representatives, 0 where its
    block is zero; ``share`` gives a new block its serial in ``values``.
    The three block operations (T_t or T_t^-1 times a block of the zero
    class, a block times the diagonal factor, the sum of two blocks) are memoised by serial in the
    three dicts of ``memo``, which serve one ``values`` and one direction.
    """
    ls = module.system.weight(s)
    # the diagonal factor: delta for T_s (minus), -delta for T_s^-1 (plus)
    diagonal = LaurentPoly({-ls: 1, ls: -1} if inverse else {ls: 1, -ls: -1})
    shape = (module.rank, module.rank)
    products, terms, sums = memo
    out = [0] * len(classes)

    def plus(a: int, b: int) -> int:
        if not a:
            return b
        got = sums.get((a, b))
        if got is None:
            total = values[a] + values[b]
            got = sums[a, b] = share(total) if total.blocks else 0
        return got

    for x, serial in enumerate(column):
        if not serial:
            continue
        cls = classes[x]
        if cls.tag == DEODHAR_ZERO:  # no s*y lands on x
            got = products.get((cls.conj, serial))
            if got is None:
                got = products[cls.conj, serial] = share(
                    _dot(shape, [(module.iota_t(cls.conj, inverse), values[serial])]))
            out[x] = got
            continue
        sx = shifted[x]
        if sx is None:
            raise ValueError(f"s*x for s={s + 1} and the representative at position {x} "
                             "is not among the representatives")
        out[sx] = plus(out[sx], serial)
        if (cls.tag == DEODHAR_MINUS) != inverse:  # minus under T_s, plus under T_s^-1
            got = terms.get((ls, serial))
            if got is None:
                got = terms[ls, serial] = share(values[serial].scale(diagonal))
            out[x] = plus(out[x], got)
    return out


class BlockView(Mapping):
    """A read-only view, keyed by (x, z) or (x, z, s) with x and z
    representatives, of blocks a :class:`BlockTable` stores by position:
    ``items`` yields (position key, block) and ``lookup`` gives the block at
    a position key, or None.  Only a lookup hashes group elements; iterating
    the view, its items or its values reads the storage in place."""

    def __init__(self, table: "BlockTable", items: Callable[[], Iterator], lookup: Callable):
        self._table, self._items, self._lookup = table, items, lookup

    def __getitem__(self, key):
        index = self._table.index
        mat = self._lookup((index[key[0]], index[key[1]]) + key[2:])
        if mat is None:
            raise KeyError(key)
        return mat

    def __iter__(self):
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return sum(1 for _ in self._items())

    def items(self) -> ItemsView:
        return _PairsView(self)

    def values(self) -> ValuesView:
        return _BlocksView(self)


class _PairsView(ItemsView):
    def __iter__(self):
        reps, items = self._mapping._table.reps, self._mapping._items()
        return (((reps[k[0]], reps[k[1]]) + k[2:], mat) for k, mat in items)


class _BlocksView(ValuesView):
    def __iter__(self):
        return (mat for _, mat in self._mapping.items())


@dataclass
class BlockTable:
    """Laurent-matrix blocks indexed by pairs of representatives of D_J
    inside W_ambient, stored by their positions in ``reps``.

    ``values`` holds each distinct block once, ``values[0]`` None, and
    ``cols[z]`` is a :func:`serial_array`: ``values[cols[z][x]]`` is the
    block at (x, z), serial 0 where there is none, as at every x not below
    z; a column may stop early.  Both routes to the Howlett-Yin base
    change fill one: :func:`~wgraphs.hy.p_mu_table` with the blocks
    p_{x,z}, :func:`~wgraphs.canon.rho_table` with the nonzero blocks
    r_{x,z} of the bar involution, its columns stopping at z, and
    :func:`~wgraphs.canon.pi_recursion` with the oracle's base change
    pi_{x,z}; p and pi are stored for every x <= z.  ``entries`` is a
    read-only view of the blocks keyed by group elements.
    """

    system: CoxeterSystem
    gens: FrozenSet[int]
    ambient: FrozenSet[int]
    module: OmegaModule
    reps: Tuple[Element, ...]
    cols: List[array]
    values: List[Optional[LMat]]

    @property
    def entries(self) -> Mapping[Tuple[Element, Element], LMat]:
        return BlockView(self, self.pos_items, self._at)

    def pos_items(self) -> Iterator[Tuple[Tuple[int, int], LMat]]:
        """((x, z), block) by position, z up and x down."""
        values = self.values
        for zi, col in enumerate(self.cols):
            for xi in range(len(col) - 1, -1, -1):
                if col[xi]:
                    yield (xi, zi), values[col[xi]]

    def _at(self, key: Tuple[int, int]) -> Optional[LMat]:
        col = self.cols[key[1]]
        return self.values[col[key[0]]] if key[0] < len(col) else None

    @cached_property
    def index(self) -> Dict[Element, int]:
        """The position of each representative, built by the first lookup
        by group element."""
        return {x: i for i, x in enumerate(self.reps)}

    @cached_property
    def zero(self) -> LMat:
        """The block of every absent key, one object per table."""
        return LMat.zeros(self.module.rank)


def table_subsets(J: Iterable[int], module: OmegaModule,
                  ambient: Optional[Iterable[int]]) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """(J, ambient) of a table on ``module``, checked; ambient defaults to every generator."""
    system = module.system
    J = system._subset(J)
    if J != module.gens:
        raise ValueError("module is defined for a different generator subset")
    ambient = system.generator_set if ambient is None else system._subset(ambient)
    if not J <= ambient:
        raise ValueError("J must be contained in the ambient subset")
    return J, ambient


def serial_array(serials: Iterable[int], count: int) -> array:
    """``serials``, all below ``count``, as an array: typecode ``H`` if
    they fit in 16 bits, else ``I``."""
    return array("H" if count <= 1 << 16 else "I", serials)


def interner(values: List[Optional[LMat]]) -> Callable[[LMat], int]:
    """A function giving a block its serial in ``values``, which holds no
    block yet: equal blocks get one serial, and a new block is appended."""
    shared: Dict[LMat, int] = {}

    def share(mat: LMat) -> int:
        serial = shared.setdefault(mat, len(values))
        if serial == len(values):
            values.append(mat)
        return serial

    return share


# -- builtin rank-1 modules ---------------------------------------------------


def sign_module(system: CoxeterSystem, gens: Iterable[int]) -> OmegaModule:
    """Rank 1, every idempotent acts as 1; T_s acts as -v_s^-1."""
    gens = system._subset(gens)
    return OmegaModule(system, gens, 1, {s: (((0, 1),),) for s in gens}, {})


def trivial_module(system: CoxeterSystem, gens: Iterable[int]) -> OmegaModule:
    """Rank 1, every idempotent acts as 0; T_s acts as v_s."""
    gens = system._subset(gens)
    return OmegaModule(system, gens, 1, {s: ((),) for s in gens}, {})


# -- validation ---------------------------------------------------------------


def validate(module: OmegaModule) -> Report:
    """Check all defining relations of the module by exact arithmetic.

    Each relation is decided on one accumulator of its left side minus its
    right side, which must be all zero; no row is sorted.  For E_s^2 = E_s,
    E_s X_{s,g} = X_{s,g}, X_{s,g} E_s = 0 and E_s E_t = E_t E_s the sides
    are products of the stored rows.  A braid relation T_s T_t T_s ... =
    T_t T_s T_t ... (m = m(s, t) factors a side) is one accumulator of
    products of the integer matrices of v^L(s) T_s and v^L(t) T_t at
    v = 2^B, built from shared powers of P = (v^L(s) T_s)(v^L(t) T_t):
    P^k v^L(s) T_s minus v^L(t) T_t P^k for m = 2k + 1, Q^k minus P^k,
    Q = (v^L(t) T_t)(v^L(s) T_s), for m = 2k.  Both sides carry the same
    power v^K (the same factors for m even, L(s) = L(t) for m odd), so the
    values are those of v^K times each side, whose difference has
    exponents >= 0.  With nu the largest row sum of absolute coefficients
    of any T_u and m the largest finite bond, each side's coefficients are
    at most nu^m, so one width B = (2 nu^m).bit_length() and the lemma of
    :func:`~wgraphs.matrix._evaluate` make every comparison exact; each
    T_u is evaluated once.
    """
    report = Report(f"module relations (J={sorted(s + 1 for s in module.gens)})")
    gens = sorted(module.gens)

    def rows(acc: dict) -> list:
        return [acc.get(i, {}).items() for i in range(module.rank)]

    def differs(acc: dict, right=()) -> bool:  # acc minus the rows ``right`` is not zero
        for i, row in enumerate(right):
            if row:
                left = acc.setdefault(i, {})
                for j, c in row:
                    left[j] = left.get(j, 0) - c
        return any(map(any, map(dict.values, acc.values())))

    for s in gens:
        e_s = module.e_mat(s)
        report.require(not differs(_mul_into({}, e_s, e_s), e_s), f"E_{s+1}^2 != E_{s+1}")
        for g in range(module.system.weight(s)):
            x_sg = module.x.get((s, g))
            if x_sg is None:
                continue
            report.require(not differs(_mul_into({}, e_s, x_sg), x_sg),
                           f"E_{s+1} X_({s+1},{g}) != X_({s+1},{g})")
            report.require(not differs(_mul_into({}, x_sg, e_s)), f"X_({s+1},{g}) E_{s+1} != 0")
    pairs = [(s, t) for i, s in enumerate(gens) for t in gens[i + 1:]]
    m = max([module.system.order(s, t) for s, t in pairs], default=0)
    nu = max([a for u in gens for a in _abs_row_sums(module.iota_t(u))], default=0)
    bits = (2 * nu ** m).bit_length()
    factors = {u: _evaluate(module.iota_t(u), bits, module.system.weight(u)) for u in gens}

    def power(a, b, k: int) -> Dict[int, dict]:  # (ab)^k
        pair = rows(out := _mul_into({}, a, b))
        for _ in range(k - 1):
            out = _mul_into({}, rows(out), pair)
        return out

    for s, t in pairs:
        e_s, e_t = module.e_mat(s), module.e_mat(t)
        report.require(not differs(_mul_into({}, e_s, e_t), rows(_mul_into({}, e_t, e_s))),
                       f"E_{s+1} E_{t+1} != E_{t+1} E_{s+1}")
        m = module.system.order(s, t)
        if m == 0:
            continue  # infinite bond: no braid relation
        shared = rows(power(factors[s], factors[t], m // 2))
        if m % 2:  # (st)^k s - t (st)^k
            left, right = _mul_into({}, shared, factors[s]), _mul_into({}, factors[t], shared)
            right = rows(right)
        else:  # (ts)^k - (st)^k
            left, right = power(factors[t], factors[s], m // 2), shared
        report.require(not differs(left, right),
                       f"braid relation of length {m} fails for ({s+1},{t+1})")
    return report
