"""Howlett-Yin induction of W-graph modules.

Given a module M for the W-graph algebra of a parabolic subgroup W_J, the
induced Hecke module has a canonical basis indexed by minimal coset
representatives; the base-change blocks p_{x,z} and the edge blocks
mu^s_{x,z} are computed here by the direct recursion:

* p_{z,z} = 1 and, picking a left descent t of z,

  - t x > x, tx a coset rep:     p_{x,z} = -v_t p_{tx,z}
  - t x > x, tx = x t' (t' in J): p_{x,z} = C_{t'} p_{x,tz}
                                   - sum_{x<=y<tz} p_{x,y} mu^t_{y,tz}
  - t x < x:                      p_{x,z} = p_{tx,tz} - v_t^-1 p_{x,tz}
                                   - sum_{x<=y<tz} p_{x,y} mu^t_{y,tz}

* mu^s_{x,z} is the bar-symmetric completion of the non-positive part of
  ``-R - sum_{x<y<z} p_{x,y} mu^s_{y,z}`` with R the four-case correction
  term; its exponents are confined to (-L(s), L(s)).

All values are stored as exact Laurent matrices acting on M (elements of
the parabolic W-graph algebra are never represented abstractly; the
recursion only ever multiplies by matrices it already has).  The
recursion follows the well-founded order "z up, then x down" over the
positions of the representatives in their (length, word) listing, so
results are deterministic.  Deodhar classes and the positions of s*x are
the table's ``arrays``, read with the representatives from one coset table
of (J, ambient) by :meth:`~wgraphs.coxeter.CoxeterSystem.coset_listing`,
x <= y is a bit test against
:meth:`~wgraphs.coxeter.CoxeterSystem.bruhat_ideals`, and W is never
enumerated.  The table is a :class:`~wgraphs.wgraph.BlockTable` keyed by
position, like the oracle's in :mod:`wgraphs.canon`; group elements key
only its read-only views ``p`` and ``mu``.  Two steps are memoised, the
p-step and the mu-step, each by the serials of all of its inputs, and only
their results are interned, so a serial always names a stored block.

:func:`induce` assembles the induced module from a finished table.  Nested
induction is one tower: :func:`_tower` builds the level tables, each on the
module induced from the level below, and :func:`induce_along` returns them.
A caller that reads the top induces the last table; one that reads
positions calls :func:`_tower_positions`, which walks block u*n + v (block
v below, under level representative u) to its place in D_J along arrays
the caller already has.
The flag algorithm :func:`mu_inductive` reads the levels alone: the rule by
which mu-blocks of J <= S factor through J <= K and K <= S, by tower index,
lives in one place, :func:`_factor_mu`, and :func:`mu_factorize_check`
compares every direct entry against it.  :func:`transitivity_check`,
:func:`mackey_check` and :func:`mu_factorize_check` verify the identities of
inductions along parabolic chains.  The defining identity of the
construction, H_s P = P Omega_s for the base change P, is evaluated in one
place too, :func:`_defects`, by integer products at v = 2^B with B taken
from the coefficients: :func:`verify_h_linearity` reads one verdict per s
from it and :meth:`PMuTable.check_invariants` one per (x, z, s).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, zip_longest
from sys import maxsize
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .coxeter import (DEODHAR_MINUS, DEODHAR_PLUS, DEODHAR_ZERO, CoxeterSystem, Element,
                      bit_positions)
from .laurent import LaurentPoly
from .matrix import (LMat, _abs_row_sums, _block, _dot, _mul_into, _placed_rows, _scaled,
                     imat_identity)
from .report import Report
from .wgraph import BlockTable, BlockView, OmegaModule, interner, leaks, serial_array, sign_module


class RecursionInvariantError(RuntimeError):
    """A computed table entry violated one of the structural invariants."""


@dataclass
class PMuTable(BlockTable):
    """The computed p- and mu-blocks for (J, M) inside an ambient subset,
    stored by the positions of the representatives in ``reps``.

    ``values[cols[z][x]]`` is p(x, z) for every x <= z, and the serial is 0
    for the other x < len(cols[z]); ``mu_pos[(x, z, s)]`` is stored only
    where it may be nonzero (x < z, s not a plus-class for x nor a
    minus-class for z), and holds the object of its serial in ``values``.
    ``p`` and ``mu`` are read-only views of both keyed by group elements.
    ``arrays`` = (classes, shifted) are the position arrays that come with
    ``reps`` from :meth:`~wgraphs.coxeter.CoxeterSystem.coset_listing`.
    """

    mu_pos: Dict[Tuple[int, int, int], LMat]
    arrays: tuple = field(repr=False, compare=False)

    p = BlockTable.entries  # the p-blocks, keyed by (x, z)

    @property
    def mu(self) -> Mapping[Tuple[Element, Element, int], LMat]:
        return BlockView(self, self.mu_pos.items, self.mu_pos.get)

    # -- invariants ---------------------------------------------------------

    def check_invariants(self) -> Report:
        """All structural identities of the table, checked exactly.

        The support, symmetry, range and E-conditions are checked block by
        block, and a message is formatted only on failure.  If they all
        hold, the recurrence is checked for every (x, z, s): it holds at
        (x, z, s) exactly when block (x, z) of the intertwining defect of s
        vanishes, which :func:`_defects` decides exactly at v = 2^B, so each
        nonzero defect block is one failure, in (s, z, x) order.  A table on
        a ball of an infinite group raises the ``ValueError`` of
        :func:`induce`, since some s*x lies outside the ball.
        """
        report = Report("p/mu table invariants")
        system, reps = self.system, self.reps
        identity = LMat.identity(self.module.rank)
        classes, _ = self.arrays
        bits = system.bruhat_ideals(reps, self.gens, self.ambient)
        for (xi, zi), mat in self.pos_items():
            report.checks += 1
            if not (mat == identity if xi == zi else all(g > 0 for g in mat.blocks)):
                report.fail(f"p({reps[xi]},{reps[zi]}) " + (
                    "is not the identity" if xi == zi else "has non-positive support"))
        for xi, zi, s in self.mu_pos:
            report.checks += 1
            if not (xi != zi and bits[zi] >> xi & 1
                    and classes[s][zi].tag in (DEODHAR_PLUS, DEODHAR_ZERO)
                    and classes[s][xi].tag in (DEODHAR_ZERO, DEODHAR_MINUS)):
                report.fail(f"mu({reps[xi]},{reps[zi]},s={s+1}) stored outside its "
                            "support condition")
        for (xi, zi, s), mat in self.mu_pos.items():
            ls = system.weight(s)
            cx, cz = classes[s][xi], classes[s][zi]
            checks = [(mat.is_bar_symmetric(), "{} not bar-symmetric"),
                      (all(-ls < g < ls for g in mat.blocks),
                       "{} has exponents outside (-{ls},{ls})")]
            if cx.tag == DEODHAR_ZERO:
                e_mat = LMat.from_coeffs(mat.shape, {0: self.module.e_mat(cx.conj)})
                checks.append((e_mat @ mat == mat, "E-fixing fails for {}"))
            if cz.tag == DEODHAR_ZERO:
                e_mat = LMat.from_coeffs(mat.shape, {0: self.module.e_mat(cz.conj)})
                checks.append(((mat @ e_mat).is_zero(), "E-killing fails for {}"))
            report.checks += len(checks)
            for ok, message in checks:
                if not ok:
                    report.fail(message.format(f"mu({reps[xi]},{reps[zi]},s={s+1})", ls=ls))
        # the recurrence: induce needs the conditions above to build the module
        if report.ok:
            report.checks += len(reps) ** 2 * len(self.ambient)
            for s, blocks in _defects(self.gens, self.module, self).items():
                for zi, xi in blocks:
                    report.fail(f"recurrence fails at (x={reps[xi]}, z={reps[zi]}, s={s+1})")
        return report


def p_mu_table(
    J: Iterable[int],
    module: OmegaModule,
    ambient: Optional[Iterable[int]] = None,
    *,
    descent_choice: str = "min",
    max_length: Optional[int] = None,
) -> PMuTable:
    """Run the direct recursion for all pairs of coset representatives.

    ``ambient`` restricts the construction to a parabolic subgroup
    containing J (default: the whole group).  ``descent_choice`` picks the
    left descent used in the p-step ("min" or "max"); the result is
    independent of the choice, which is exercised by tests.

    Equal stored values are one object (hash-consing): an ``LMat`` is its
    own intern key, and each distinct p- or mu-value gets a serial number
    in the table's ``values`` in the order it is first seen, with 0 for no
    block.  The columns hold serials, in a list while the column is
    computed and in a :func:`~wgraphs.wgraph.serial_array` as soon as its
    mu-step ends, and ``lows`` gives each serial's least exponent.  Two
    steps are memoised, each by all of its inputs as serials read straight
    from the columns, so each distinct computation runs once:

    * the p-step, by the Deodhar tag, L(t) or the conjugate generator, the
      p-blocks its closed form reads (0 for an absent p(x, tz)) and both
      factors of every term; the closed form and the terms are formed
      together, and only the result is interned;
    * the mu-step, by the conjugate generator of s on x (None for a minus
      class) and on z, L(s), p(x, z) and both factors of every window
      term; a step that gives no mu caches serial 0.

    So every serial names a block stored in a column or in ``mu_pos``.  The
    memo dicts are local to the call; the serials live on in the table.

    Work that cannot change a block is skipped.  For J = {}, T_w -> T_(w^-1)
    is an anti-involution commuting with bar for any weights, so it maps
    C_z to C_(z^-1) and p(x, z) = p(x^-1, z^-1) (Kazhdan-Lusztig 1979);
    as x <= z iff x^-1 <= z^-1, the column of a z whose z^-1 is done is
    read from that column (its mu-step still runs: inversion swaps left
    and right descents).  In the mu-step, alpha's exponents <= 0 come from
    p(x, z)'s blocks at g <= L(s), from C_u p(x, z) or p(x, z) C_u, where
    C_u = T_u - v_u has exponents >= -L(u), and from window terms; so no
    key is built for an s with an empty window and a p(x, z) whose least
    exponent exceeds every weight, as it has no mu.
    """
    system = module.system
    J = system._subset(J)
    if J != module.gens:
        raise ValueError("module is defined for a different generator subset")
    ambient = system.generator_set if ambient is None else system._subset(ambient)
    if not J <= ambient:
        raise ValueError("J must be contained in the ambient subset")
    if descent_choice not in ("min", "max"):
        raise ValueError("descent_choice must be 'min' or 'max'")
    reps, arrays = system.coset_listing(J, K=ambient, max_length=max_length)
    table = PMuTable(system, J, ambient, module, tuple(reps), [], [None], {}, arrays)
    classes, shifted = arrays
    bits = system.bruhat_ideals(reps, J, ambient)
    rank = module.rank
    shape = (rank, rank)
    identity, zero = LMat.identity(rank), LMat.zeros(rank)
    c_mats = {u: module.iota_t(u) - identity.scale(LaurentPoly.v(system.weight(u)))
              for u in J}  # C_u = T_u - v_u on the module
    top = max(map(system.weight, ambient), default=0)  # the largest weight
    minus_v_inv = {s: LaurentPoly.v(-system.weight(s), -1) for s in ambient}
    v_inv = {s: identity.scale(LaurentPoly.v(-system.weight(s))) for s in ambient}
    # inverse[z]: the position of z^-1 for J = {}, z's word read forward
    # through shifted (each prefix of z^-1 is in the listing); else z
    inverse = range(len(reps)) if J else [
        reduce(lambda i, s: shifted[s][i], z.word, 0) for z in reps]
    # mu_lists[z][s] = [(y, serial of mu(y, z, s))] over the nonzero blocks,
    # so the sums over x <= y < z skip every y whose mu-block is zero;
    # low_p[y] = the least exponent of p(x, y) over x < y (maxsize if none),
    # read from lows for a y once y gets a mu-block with a negative exponent
    cols, values, mu_pos = table.cols, table.values, table.mu_pos
    mu_lists: list = [{}]  # the identity, at position 0, has no mu
    low_p: Dict[int, int] = {}
    # lows: the least exponent of each value, by serial (maxsize for serial
    # 0, no block); ps and mus: the p-step and the mu-step, by the
    # serials of their inputs (0 for no block, or no mu)
    intern = interner(values)
    lows: List[int] = [maxsize]
    ps: Dict[tuple, int] = {}
    mus: Dict[tuple, int] = {}

    def share(value: LMat) -> int:
        serial = intern(value)
        if serial == len(lows):
            lows.append(min(value.blocks, default=maxsize))
        return serial

    one = share(identity)
    cols.append(serial_array([one], len(values)))  # p(e, e) = 1

    for zi in range(1, len(reps)):
        z = reps[zi]
        below_z = bit_positions(bits[zi])
        pz = [0] * (zi + 1)
        pz[zi] = one
        mu_z: Dict[int, list] = {}
        mu_lists.append(mu_z)
        if inverse[zi] < zi:  # p(x, z) = p(x^-1, z^-1), that column done
            col = cols[inverse[zi]]
            for x in below_z[:-1]:
                pz[x] = col[inverse[x]]
        else:
            # the left descents of z are its minus-classes; the least one is the
            # first letter of z's canonical word
            t = z.word[0] if descent_choice == "min" else max(
                s for s in ambient if classes[s][zi].tag == DEODHAR_MINUS)
            tz = shifted[t][zi]
            p_tz, row_t, up_t = cols[tz], classes[t], shifted[t]
            lt = system.weight(t)
            mu_tz = mu_lists[tz].get(t, ())
            # tz < z and x < z, so by the lifting property tx <= z and x <= tz
            # when tx > x (plus and zero classes), and tx <= tz when tx < x
            # (minus): only p(x, tz) in the minus case may be absent, serial 0
            # in column tz or past its end.  The key is the step's whole input:
            # the closed form's, then both factors of every term, from key[3]
            # (zero class) or key[4] (minus)
            for x in reversed(below_z[:-1]):
                cx = row_t[x]
                if cx.tag == DEODHAR_PLUS:
                    key = (cx.tag, lt, pz[up_t[x]])
                else:
                    key = [cx.tag, cx.conj, p_tz[x]] if cx.tag == DEODHAR_ZERO else [
                        cx.tag, lt, p_tz[up_t[x]], p_tz[x] if x <= tz else 0]
                    for y, mu_y in mu_tz:
                        if bits[y] >> x & 1:
                            key += cols[y][x], mu_y
                    key = tuple(key)
                value = ps.get(key)
                if value is None:  # the step, once per key
                    if cx.tag == DEODHAR_PLUS:
                        value = values[key[2]].scale(LaurentPoly.v(lt, -1))
                    else:
                        zero_class = cx.tag == DEODHAR_ZERO
                        terms = [(values[key[i]], values[key[i + 1]])
                                 for i in range(4 - zero_class, len(key), 2)]
                        if zero_class:
                            value = c_mats[cx.conj] @ values[key[2]]
                        else:  # p(tx, tz) - v_t^-1 p(x, tz) - the terms
                            value = values[key[2]]
                            if key[3]:
                                terms.append((values[key[3]], v_inv[t]))
                        if terms:
                            value = value - _dot(shape, terms)
                    value = ps[key] = share(value)
                pz[x] = value

        # mu-step: x ascending or descending does not matter for p, but the
        # recursion needs mu(y, z, s) for y above x first, so keep descending.
        # mu reads only alpha's exponents <= 0, and only those are formed;
        # alpha starts as -R, built by subtraction rather than negated.  A
        # term p(x, y) mu(y, z, s) reaches exponent 0 only if low_p[y] plus
        # the least exponent of mu(y, z, s) is <= 0; window[s] lists those.
        # The value depends only on the classes (conj is None for a minus
        # class), L(s), p(x, z) and the window's terms, which key mus.
        window: Dict[int, list] = {}
        steps = [(s, row, row[zi], system.weight(s), minus_v_inv[s])
                 for s, row in classes.items() if row[zi].tag != DEODHAR_MINUS]
        for x in reversed(below_z[:-1]):
            pxz = pz[x]
            high = lows[pxz] > top  # then only window terms reach exponent 0
            if high and not window:
                continue
            for s, row, cz, ls, minus_vs_inv in steps:
                cx = row[x]
                if cx.tag == DEODHAR_PLUS or high and s not in window:
                    continue
                key = [cx.conj, ls, cz.conj, pxz]
                for y, mu_y in window.get(s, ()):
                    if bits[y] >> x & 1:
                        key += cols[y][x], mu_y
                key = tuple(key)
                serial = mus.get(key)
                if serial is None:  # the step, once per key
                    p = values[pxz]
                    if cx.tag == DEODHAR_ZERO:
                        alpha = _dot(shape, [(c_mats[cx.conj], p)], 0)
                    else:  # -v_s^-1 p(x, z) reaches exponent 0 only from p's blocks g <= L(s)
                        kept = {g: b for g, b in p.blocks.items() if g <= ls}
                        alpha = LMat._new(shape, kept).scale(minus_vs_inv) if kept else zero
                    terms = [(values[key[i]], values[key[i + 1]]) for i in range(4, len(key), 2)]
                    if cz.tag == DEODHAR_ZERO:
                        terms.append((p, c_mats[cz.conj]))
                    if terms:
                        alpha = alpha - _dot(shape, terms, 0)
                    low = alpha.blocks
                    serial = 0
                    if low:  # the bar-symmetric matrix with alpha's blocks, all at exponents <= 0
                        value = LMat.from_coeffs(
                            shape, {**low, **{-g: b for g, b in low.items() if g}})
                        if any(not (-ls < g < ls) for g in value.exponents()):
                            raise RecursionInvariantError(
                                f"mu({reps[x]},{z},s={s+1}) has exponents outside (-{ls},{ls})"
                            )
                        serial = share(value)
                    mus[key] = serial
                if not serial:
                    continue
                mu_pos[(x, zi, s)] = values[serial]
                mu_z.setdefault(s, []).append((x, serial))
                least = lows[serial]
                if least >= 0:  # low_p[x] > 0: p(y, x) is positive for y < x
                    continue
                low = low_p.get(x)
                if low is None:
                    low = low_p[x] = min(map(lows.__getitem__, set(cols[x][:-1])), default=maxsize)
                if low + least <= 0:
                    window.setdefault(s, []).append((x, serial))
        # each column an array as soon as it is done, so no list of them all
        # is held at once
        cols.append(serial_array(pz, len(values)))
    return table


# -- the induced module -------------------------------------------------------


def _idempotents(module: OmegaModule, classes: Mapping[int, Sequence]) -> Dict[int, tuple]:
    """The idempotent E_s of the induced module, as rows, for each s in
    ``classes``: block z is 1 on a minus class, E_(s^z) of the module on a
    zero class and 0 on a plus class.  No p- or mu-block enters it."""
    r = module.rank
    e_out: Dict[int, tuple] = {}
    for s, column in classes.items():
        e_rows: list = []
        for zi, cls in enumerate(column):
            if cls.tag == DEODHAR_MINUS:
                e_rows += [((i, 1),) for i in range(zi * r, zi * r + r)]
            elif cls.tag == DEODHAR_ZERO:
                e_rows += [tuple([(j + zi * r, c) for j, c in row])
                           for row in module.e_mat(cls.conj)]
            else:
                e_rows += [()] * r
        e_out[s] = tuple(e_rows)
    return e_out


def induce(
    J: Iterable[int],
    module: OmegaModule,
    table: PMuTable,
) -> OmegaModule:
    """Assemble the induced module on the basis (coset rep, module basis).

    The idempotents are :func:`_idempotents` of the Deodhar classes.  The
    edge operators place the mu-blocks below the diagonal together with the
    length-increasing carry (weight 1 at exponent 0) on plus-class
    representatives and, on zero-class ones, the inner edge matrices of the
    conjugated generator.
    """
    system = module.system
    J = system._subset(J)
    if J != table.gens or module != table.module:
        raise ValueError("table was computed for different (J, module) data")
    reps = table.reps
    r = module.rank
    n = len(reps) * r
    classes, shifted = table.arrays

    def put_block(target, bi, bj, mat) -> None:
        """Add ``mat`` at block (bi, bj) of ``target``, {row: {column: value}}."""
        for i, row in enumerate(mat, bi * r):
            if row:
                trow = target.setdefault(i, {})
                for j, c in row:
                    j += bj * r
                    trow[j] = trow.get(j, 0) + c

    mu_by_gen: Dict[int, List[Tuple[int, int, LMat]]] = {}
    for (xi, zi, s), mu in table.mu_pos.items():
        mu_by_gen.setdefault(s, []).append((xi, zi, mu))
    carry = imat_identity(r)
    x_out: Dict[Tuple[int, int], tuple] = {}
    for s, column in classes.items():
        ls = system.weight(s)
        x_mats: Dict[int, dict] = {g: {} for g in range(ls)}
        for zi, cls in enumerate(column):
            if cls.tag == DEODHAR_ZERO:
                conj = cls.conj
                if system.weight(conj) != ls:
                    raise AssertionError("conjugate generators carry different weights")
                for g in range(ls):
                    inner = module.x.get((conj, g))
                    if inner is not None:
                        put_block(x_mats[g], zi, zi, inner)
            elif cls.tag == DEODHAR_PLUS:  # carry to the longer rep
                szi = shifted[s][zi]
                if szi is None:
                    sz = system.mult(system.generator(s), reps[zi])
                    raise ValueError(
                        f"carry target {sz} is not among the representatives; "
                        "the enumeration must cover the whole group"
                    )
                put_block(x_mats[0], szi, zi, carry)
        for xi, zi, mu in mu_by_gen.get(s, ()):
            for g, coeffs in mu.blocks.items():
                if not -ls < g < ls:
                    raise ValueError(f"mu({reps[xi]},{reps[zi]},s={s+1}) has exponents "
                                     f"outside (-{ls},{ls})")
                if g >= 0:
                    put_block(x_mats[g], xi, zi, coeffs)
        for g, rows in x_mats.items():
            x_out[(s, g)] = _block(rows, n)
    return OmegaModule(system, table.ambient, n, _idempotents(module, classes), x_out)


def canonical_matrix(J: Iterable[int], module: OmegaModule, table: PMuTable) -> LMat:
    """The block base-change matrix (p_{y,z} in block (y, z)).

    Block upper-triangular with identity diagonal in the (length, word)
    listing of the representatives, hence invertible.
    """
    J = module.system._subset(J)
    if J != table.gens or module != table.module:
        raise ValueError("table was computed for different (J, module) data")
    r = module.rank
    n = len(table.reps) * r
    return LMat.from_blocks((n, n), ((yi * r, zi * r, mat) for (yi, zi), mat in table.pos_items()))


def verify_h_linearity(
    J: Iterable[int],
    module: OmegaModule,
    table: Optional[PMuTable] = None,
) -> Report:
    """Check that the base change intertwines C_s = T_s - v_s both ways.

    The left side acts through the induced module structure, the right
    side through the T-basis structure constants of the induced Hecke
    module.  Exact equality for every generator is the defining property
    of the construction: one check per s, that its defect is zero, decided
    by :func:`_defects` at v = 2^B with a width B that makes it exact.
    """
    if table is None:
        table = p_mu_table(J, module)
    report = Report("H-linearity of the base change")
    for s, blocks in _defects(J, module, table).items():
        report.require(not blocks, f"c(C_{s+1} . ) != C_{s+1} c( . )")
    return report


def _defects(J: Iterable[int], module: OmegaModule,
             table: PMuTable) -> Dict[int, List[Tuple[int, int]]]:
    """For each ambient s, the positions (z, x), sorted, of the nonzero r x r
    blocks of the intertwining defect D_s = H_s P - P Omega_s.

    P is :func:`canonical_matrix`, H_s is T_s on the induced Hecke module as
    :func:`~wgraphs.wgraph.hecke_t_column` applies it, and Omega_s is T_s on
    the module :func:`induce` builds, read from its E and X rows.  Block
    (x, z) of D_s is the four-case recurrence at (x, z, s), left side minus
    right side.  At v = 2^B, with each distinct p-serial evaluated once into
    v^-e P, e <= 0 the least exponent of P, two integer products give
    v^(L(s)-e) D_s, which has no negative exponent; it is formed one row
    at a time.  With c the largest |coefficient| and nu the largest row sum
    of absolute coefficients, D_s has coefficients at most nu(H_s) c(P) +
    nu(P) c(Omega_s) <= nu(P) (nu(H_s) + c(Omega_s)), where nu(H_s) <=
    max(3, nu(T_t)) over the conjugate generators t.  B is one more than
    the bit length of that bound over all s, so by the lemma of
    :func:`~wgraphs.matrix._evaluate` an entry of the value is zero exactly
    when that entry of D_s is.
    """
    omega = induce(J, module, table)
    system, r, n = module.system, module.rank, omega.rank
    classes, shifted = table.arrays
    values = table.values
    placed = [(xi, zi, serial) for zi, col in enumerate(table.cols)
              for xi, serial in enumerate(col) if serial]
    sums = {serial: _abs_row_sums(values[serial])
            for serial in dict.fromkeys([serial for _, _, serial in placed])}
    nu_p = [0] * n
    for xi, _, serial in placed:
        for i, a in enumerate(sums[serial], xi * r):
            nu_p[i] += a
    c_omega = 1 + max([abs(c) for mat in chain(omega.e.values(), omega.x.values())
                       for row in mat for _, c in row], default=0)
    nu_h = max([3] + [a for u in module.gens for a in _abs_row_sums(module.iota_t(u))])
    width = (max(nu_p, default=0) * (nu_h + c_omega)).bit_length() + 1
    shift = max([0] + [-min(values[serial].blocks) for serial in sums if values[serial].blocks])
    p_rows = _placed_rows(placed, values, r, n, width, shift)  # v^-e P at 2^B
    del placed
    one, out, gens = LMat.identity(r), {}, sorted(module.gens)
    for s in sorted(table.ambient):
        ls = system.weight(s)
        vs = 1 << ls * width  # v^L(s) at 2^B
        # H_s: T_x (x) m goes to T_x (x) T_t m (zero), T_sx (x) m (+ delta T_x (x) m if minus);
        # its blocks by serial in h_values: 0 the identity, 1 delta, then the T_t
        delta = LMat.from_coeffs((r, r), {ls: one.blocks[0], -ls: _scaled(one.blocks[0], -1)})
        h_values = [one, delta] + [module.iota_t(t) for t in gens]
        placed_h = [(x, x, 2 + gens.index(c.conj)) if c.tag == DEODHAR_ZERO
                    else (shifted[s][x], x, 0) for x, c in enumerate(classes[s])]
        placed_h += [(x, x, 1) for x, c in enumerate(classes[s]) if c.tag == DEODHAR_MINUS]
        h_rows = _placed_rows(placed_h, h_values, r, n, width, ls)
        # -v^L(s) Omega_s at 2^B: Omega_s = v_s (1 - E_s) - v_s^-1 E_s + sum_g v^g X_(s,|g|)
        o_rows = [{i: -vs * vs} for i in range(n)]
        for factor, mat in [(vs * vs + 1, omega.e_mat(s))] + [
                (-(vs << g * width) - (vs >> g * width) if g else -vs, omega.x_mat(s, g))
                for g in range(ls)]:
            for i, row in enumerate(mat):  # a row's columns are distinct
                o_rows[i].update({j: o_rows[i].get(j, 0) + factor * c for j, c in row})
        o_rows = [row.items() for row in o_rows]
        bad = set()
        for i in range(n):  # row i of v^(L(s)-e) D_s at 2^B
            acc = _mul_into({}, (h_rows[i],), p_rows)
            _mul_into(acc, (p_rows[i],), o_rows)
            bad.update((j // r, i // r) for j, c in acc.get(0, {}).items() if c)
        out[s] = sorted(bad)
    return out


# -- transitivity --------------------------------------------------------------


def induce_along(flag: Sequence[Iterable[int]], module: OmegaModule) -> List[PMuTable]:
    """The level tables of :func:`_tower` up J = K_0 <= K_1 <= ... <= K_n,
    J the generator subset of ``module``; neighbouring levels may be equal.

    By transitivity (Howlett-Yin II), :func:`induce` of the last table is
    the induction of ``module`` to K_n, with its blocks moved to D_J by
    :func:`_tower_positions` of the tables' representatives.
    """
    return list(_tower(_levels(flag, module), module))


def _levels(flag: Sequence[Iterable[int]], module: OmegaModule) -> List[FrozenSet[int]]:
    """The levels of ``flag`` as generator subsets, checked to rise from
    the module's generator subset."""
    levels = [module.system._subset(k) for k in flag]
    if not levels or levels[0] != module.gens:
        raise ValueError("flag must start at the module's generator subset")
    if not all(lower <= upper for lower, upper in zip(levels, levels[1:])):
        raise ValueError("need J <= K: each level of the flag must contain the one before")
    return levels


def _tower(levels: List[FrozenSet[int]], module: OmegaModule) -> Iterator[PMuTable]:
    """The tables of checked ``levels``: level i is ``p_mu_table(K_(i-1),
    M_(i-1), ambient=K_i)``, M_0 = ``module``, and M_i = :func:`induce` of
    level i is built only when level i + 1 is asked for, never the top."""
    table = None
    for lower, upper in zip(levels, levels[1:]):
        if table is not None:
            module = induce(table.gens, module, table)
        table = p_mu_table(lower, module, ambient=upper)
        yield table


def _tower_positions(listings: Sequence[Sequence[Element]], arrays: tuple) -> List[Optional[int]]:
    """The blocks of the tower in D_J, from the representatives of each level
    in ``listings``: block v of M_(i-1) under representative u of level i is
    block u*n + v of M_i, n the number of blocks of M_(i-1), and each block
    w_n...w_1 of M_n goes to its :func:`_plus_walk` position in the listing
    of ``arrays``, the position arrays of (J, K_n)."""
    at: List[Optional[int]] = [0]
    for reps in listings:
        at = [_plus_walk(arrays, w.word, pos) for w in reps for pos in at]
    return at


def transitivity_check(
    J: Iterable[int],
    K: Iterable[int],
    module: OmegaModule,
) -> Report:
    """Induce in two stages through K, reindex along (w, z) -> wz, compare."""
    system = module.system
    K = system._subset(K)
    report = Report(f"transitivity through K={sorted(s + 1 for s in K)}")
    tables = induce_along([J, K, system.generator_set], module)
    nested = induce(tables[-1].gens, tables[-1].module, tables[-1])
    table = p_mu_table(J, module)
    direct = induce(J, module, table)
    at = _tower_positions([t.reps for t in tables], table.arrays)
    r = module.rank
    # at has |D_J| entries, so hitting each position of D_J once makes a bijection
    report.require(set(at) == set(range(direct.rank // r)),
                   "reindexing (w,z) -> wz is not a bijection")
    if not report.ok:
        return report

    _compare_action(
        report, nested, direct, [pos * r + b for pos in at for b in range(r)],
        system.generator_set, "{} differs between nested and direct induction"
    )
    return report


def _plus_walk(arrays: tuple, word: Sequence[int], pos: Optional[int] = 0) -> Optional[int]:
    """The position of word * x, for x at ``pos`` in the listing of the
    ``(classes, shifted)`` position arrays, if each letter, read from the
    word's end, is a plus class: then the product is length-additive and
    lies in D_J.  Otherwise, or for ``pos`` None, None."""
    classes, shifted = arrays
    for s in reversed(word):
        if pos is None or classes[s][pos].tag != DEODHAR_PLUS:
            return None
        pos = shifted[s][pos]
    return pos


def _compare_action(
    report: Report,
    small: OmegaModule,
    big: OmegaModule,
    idx: Sequence[int],
    gens: Iterable[int],
    message: str,
) -> None:
    """Require E_s and X_(s,g) of ``small`` to equal those of ``big`` on rows
    and columns ``idx``, one check per matrix; ``message`` names the
    matrix at its ``{}``."""
    at: Dict[int, List[int]] = {}  # column of big -> the columns of small it is
    for j, big_j in enumerate(idx):
        at.setdefault(big_j, []).append(j)
    for s in sorted(gens):
        names = [f"E_{s+1}"] + [f"X_({s+1},{g})" for g in range(small.system.weight(s))]
        for name, lhs, rhs in zip(names, small.matrices(s), big.matrices(s)):
            same = all(row == tuple(sorted((j, c) for b, c in rhs[i] for j in at.get(b, ())))
                       for row, i in zip(lhs, idx))
            report.require(same, message.format(name))


# -- Mackey filtration ----------------------------------------------------------


def mackey_check(
    J: Iterable[int],
    K: Iterable[int],
    module: OmegaModule,
) -> Report:
    """Filtration by double cosets: stability and exactness of subquotients.

    For each minimal double-coset representative d, the span of the basis
    vectors whose double-coset part is <= d must be closed under the
    restricted action, and the subquotient must match the induction (from
    the conjugated subset, of the conjugated module) inside W_K.
    """
    system = module.system
    J = system._subset(J)
    K = system._subset(K)
    report = Report(f"Mackey filtration for K={sorted(s + 1 for s in K)}")

    table = p_mu_table(J, module)
    induced = induce(J, module, table)
    r = module.rank
    reps = table.reps
    dcoset_reps = system.double_coset_reps(K, J)

    # double-coset part of every representative, by position in dcoset_reps
    at = {d: i for i, d in enumerate(dcoset_reps)}
    part: List[Optional[int]] = []
    for x in reps:
        _, a = system.double_coset_decompose(K, J, x)
        part.append(at.get(a))
        if a not in at:
            report.fail(f"decomposition of {x} gave a non-minimal part {a}")
    if not report.ok:
        return report

    below = system.bruhat_ideals(dcoset_reps, J)
    for di, d in enumerate(dcoset_reps):
        members = {
            i * r + b
            for i, a in enumerate(part)
            if below[di] >> a & 1
            for b in range(r)
        }
        for s in sorted(K):
            for mat in induced.matrices(s):
                report.require(not leaks(mat, members),
                               f"span up to d={d} is not stable under generator {s+1}")

        # subquotient at exactly d vs induction of the conjugated module
        conj = module.conjugate(d, K)
        inner_table = p_mu_table(conj.gens, conj, ambient=K)
        compare = induce(conj.gens, conj, inner_table)
        slice_idx: List[int] = []
        for w in inner_table.reps:
            pos = _plus_walk(table.arrays, w.word + d.word)
            if pos is None or part[pos] != di:
                report.fail(f"{w}*{d} is not a representative with part exactly d")
                continue
            slice_idx.extend(pos * r + b for b in range(r))
        if not report.ok:
            return report
        _compare_action(
            report, compare, induced, slice_idx, K, f"subquotient at d={d}: {{}} mismatch"
        )
    return report


# -- the mu factorization corollary ---------------------------------------------


def _factor_mu(inner_mu: Dict[Tuple[int, int, int], LMat], level: PMuTable,
               r: int) -> Dict[Tuple[int, int, int], LMat]:
    """The nonzero mu-blocks of J inside ``level.ambient``, factored through
    K = ``level.gens``, by block of the tower (:func:`_tower_positions`).

    ``level`` is the table of K on M, the module induced from J up to K of
    a module of rank ``r``, and ``inner_mu`` holds the mu-blocks of J inside
    K by block of M, n = rank(M) / r of them.  Block v of M under the
    level's representative u is block u*n + v, which by transitivity is uv
    in D_J.  The block at (u*n + v, x*n + y, s) is

    * for u = x: the inner block at (v, y) for the conjugated generator
      when s is a zero-class for x, else 0;
    * for u < x: the (v, y) sub-block of the level's mu(u, x, s);
    * otherwise 0.

    Both nonzero cases are scattered from the stored blocks, so a level
    sub-block that is nonzero where uv is not below xy shows up as an
    entry the direct table does not have.
    """
    n = level.module.rank // r
    classes, _ = level.arrays
    inner_by_gen: Dict[int, List[Tuple[int, int, LMat]]] = {}
    for (v, y, t), mat in inner_mu.items():
        inner_by_gen.setdefault(t, []).append((v, y, mat))
    out: Dict[Tuple[int, int, int], LMat] = {}
    for x in range(len(level.reps)):
        for s, row in classes.items():
            if row[x].tag == DEODHAR_ZERO:
                for v, y, mat in inner_by_gen.get(row[x].conj, ()):
                    out[(x * n + v, x * n + y, s)] = mat
    for (u, x, s), mat in level.mu_pos.items():
        # spots[(v, y)][g] = the rows of the (v, y) sub-block of mat's v^g block
        spots: Dict[Tuple[int, int], Dict[int, list]] = {}
        for g, block in mat.blocks.items():
            for i, row in enumerate(block):
                for j, c in row:
                    by_exp = spots.setdefault((i // r, j // r), {})
                    by_exp.setdefault(g, [[] for _ in range(r)])[i % r].append((j % r, c))
        for (v, y), by_exp in spots.items():
            out[(u * n + v, x * n + y, s)] = LMat.from_coeffs(
                (r, r), {g: tuple(map(tuple, rows)) for g, rows in by_exp.items()}
            )
    return out


def mu_factorize_check(
    J: Iterable[int],
    K: Iterable[int],
    table_js: PMuTable,
    table_jk: PMuTable,
    table_ks: PMuTable,
) -> Report:
    """Factor mu over S through mu over K acting on the inner induction.

    ``table_jk`` and ``table_ks`` are the two levels of the tower J <= K <= S,
    S the ambient of ``table_js``: ``table_ks`` is computed on the module
    induced from ``table_jk``.  :func:`_factor_mu` assembles the blocks of
    the tower from them, and :func:`_tower_positions` moves each to its
    position in ``table_js``, every entry of which must equal the assembled
    one: one check per (w, z, s).
    """
    system = table_js.system
    J, K, S = system._subset(J), system._subset(K), table_js.ambient
    report = Report("mu factorization along J <= K")
    levels = (table_js.gens, table_jk.gens, table_jk.ambient, table_ks.gens, table_ks.ambient)
    if levels != (J, J, K, K, S):
        raise ValueError("need the tables of J <= S, J <= K and K <= S")
    r = table_js.module.rank
    if table_ks.module.rank != len(table_jk.reps) * r:
        raise ValueError("table_ks is not computed on the induced module of table_jk")
    factored = _factor_mu(table_jk.mu_pos, table_ks, r)
    at = _tower_positions([table_jk.reps, table_ks.reps], table_js.arrays)
    # both sides by position (z, w, s) in D_J, the order of the checks
    direct = {(zi, wi, s): mat for (wi, zi, s), mat in table_js.mu_pos.items()}
    assembled = {(at[zi], at[wi], s): mat for (wi, zi, s), mat in factored.items()}
    reps, zero = table_js.reps, table_js.zero
    # one check per (w, z, s); a triple stored on neither side is zero on both
    report.checks += len(reps) ** 2 * len(S)
    for zi, wi, s in sorted(direct.keys() | assembled.keys()):
        if direct.get((zi, wi, s), zero) != assembled.get((zi, wi, s), zero):
            report.fail(f"mu({reps[wi]},{reps[zi]},s={s+1}) does not factor through K")
    return report


# -- the flag algorithm -----------------------------------------------------------


def mu_inductive(flag: Sequence[Iterable[int]], module: OmegaModule,
                 jobs: int = 1) -> Dict[Tuple[Element, Element, int], LMat]:
    """Compute all mu-blocks for (J, S) along a flag J = K_0 < ... < K_n = S.

    The levels are those of the tower :func:`_tower` over the flag, each
    table built once, on the module induced from the level below; the top
    module is not induced.  :func:`_factor_mu` scatters each level's blocks
    and the mu-blocks of J inside K_(i-1) onto the blocks of the tower, and
    :func:`_tower_positions` moves the last level's onto D_J.  The output
    equals the mu-part of :func:`p_mu_table`.

    ``jobs`` has no effect; it is accepted for existing callers and goes
    with the next change to the benchmark.
    """
    system = module.system
    levels = _levels(flag, module)
    if len(levels) < 2 or levels[-1] != system.generator_set:
        raise ValueError("flag must run from J to the full generator set")
    if len(set(levels)) < len(levels):
        raise ValueError("flag subsets must strictly increase")
    listings, mu = [], {}  # the representatives of each level; mu by tower index
    for table in _tower(levels, module):
        listings.append(table.reps)
        mu = _factor_mu(mu, table, module.rank)
    del table  # the last level and its module are freed before the walk's arrays
    reps, arrays = system.coset_listing(levels[0])
    at = _tower_positions(listings, arrays)
    return {(reps[at[x]], reps[at[z]], s): mat for (x, z, s), mat in mu.items()}


# -- cross-checks used by the CLI -------------------------------------------------


def oracle_check(
    J: Iterable[int],
    module: OmegaModule,
    ambient: Optional[Iterable[int]] = None,
) -> Report:
    """Entrywise equality of the direct p-table with the triangular oracle.

    The oracle route builds the involution's blocks by the one-letter
    recursion on D_J (:func:`~wgraphs.canon.rho_table`) and runs the generic
    positive-part recursion; it shares no code with the p/mu recursion
    beyond the position arrays and the block table
    (:class:`~wgraphs.wgraph.BlockTable`).  Only the oracle applies T_s to
    the induced module (:func:`~wgraphs.wgraph.hecke_t_column`), and its
    triangular sums are integer products, so they do not go through the
    Laurent product kernel ``_dot`` of the recursion.  Both tables are
    stored by the same positions, so their columns are compared directly:
    one check per (x, z) stored on either side, in (z, x) order, and one
    comparison of blocks per distinct pair of serials.
    """
    from .canon import pi_recursion, rho_table  # local import: keep the paths separate

    table = p_mu_table(J, module, ambient)
    pi = pi_recursion(rho_table(J, module, ambient))
    report = Report("oracle equivalence (direct recursion vs triangular oracle)")
    reps, direct, oracle = table.reps, table.values, pi.values
    verdicts: Dict[Tuple[int, int], Optional[str]] = {}  # (direct, oracle serial) -> failure

    def verdict(pair: Tuple[int, int]) -> Optional[str]:
        a, b = pair
        if not a:
            return None if oracle[b].is_zero() else "oracle has extra nonzero entry"
        if not b:
            return None if direct[a].is_zero() else "direct table has extra nonzero entry"
        return None if direct[a] == oracle[b] else "p-blocks differ"

    for zi, pair_col in enumerate(zip_longest(table.cols, pi.cols, fillvalue=())):
        for xi, pair in enumerate(zip_longest(*pair_col, fillvalue=0)):
            if pair == (0, 0):
                continue
            report.checks += 1
            if pair not in verdicts:
                verdicts[pair] = verdict(pair)
            if verdicts[pair]:
                report.fail(f"{verdicts[pair]} at {(reps[xi], reps[zi])}")
    return report


def e_fix_check(system: CoxeterSystem, J: Iterable[int]) -> Report:
    """The full idempotent product fixes the lowest basis vector.

    On the induction of the rank-1 module with all inner idempotents
    acting as 1, the product of E_s over s in J and (1 - E_s) over s
    outside J must fix the basis vector at the identity representative
    exactly.  No p/mu table is built: :func:`induce` takes its E_s from
    :func:`_idempotents` of the table's classes and ``module.e_mat`` alone,
    and ``p_mu_table(J, module)`` takes its listing and classes from the
    same :meth:`~wgraphs.coxeter.CoxeterSystem.coset_listing`.  So the E_s
    here are the rows of ``induce(J, module, p_mu_table(J, module))``, and
    the walk multiplies the same matrices as on the induced module.
    """
    J = system._subset(J)
    report = Report(f"idempotent product fixes 1|m0 (J={sorted(s + 1 for s in J)})")
    module = sign_module(system, J)
    reps, (classes, _) = system.coset_listing(J)
    e_mats = _idempotents(module, classes)
    e_0 = [1] + [0] * (len(reps) * module.rank - 1)
    column = e_0  # column 0 of the product: e_0 through each factor, the last first
    for s in sorted(system.generator_set, reverse=True):
        image = [sum([c * column[j] for j, c in row]) for row in e_mats[s]]
        column = image if s in J else [a - b for a, b in zip(column, image)]
    report.require(column == e_0, "E_J does not fix the generating vector")
    return report
