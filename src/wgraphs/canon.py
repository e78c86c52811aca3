"""Triangular canonicalisation: the independent oracle for p-data.

This module computes, for coset representatives x <= z, the matrices by
which the involution iota(T_z (x) m) = bar(T_z) (x) m acts blockwise on an
induced module (``rho``).  They are built one column at a time by the
one-letter recursion iota(T_z (x) m) = T_s^-1 iota(T_sz (x) m), s the
first letter of z, with T_s acting on the representatives of D_J by
Deodhar's trichotomy, read from the coset table of D_J; nothing is
expanded over W.  It then solves the triangular fixed-point problem

    pi_{xz} = sum_{x <= y <= z} rho_{xy} o bar(pi_{yz}),
    pi_{zz} = id,  pi_{xz} strictly positive for x < z

by the standard correction recursion: at each step the partial sum
``alpha`` is antisymmetric under bar, so its positive part is forced.

The engine :func:`canonicalise_shadow` is written against a bare poset
given by position, with the order as bitsets and the blocks as columns;
:func:`pi_recursion` instantiates it with Hecke data, and it and
:func:`check_rho` read the Bruhat order of the representatives from
:meth:`~wgraphs.coxeter.CoxeterSystem.bruhat_ideals`.  The engine's
checks imply the composition identity, so :func:`pi_recursion` runs
:func:`check_rho` only on a rho the engine rejects.  Both routes store
their blocks in one :class:`~wgraphs.wgraph.BlockTable`, by the positions
of the representatives, so the oracle stores, solves and compares without
hashing a group element.  :func:`check_rho` and the engine decide every
identity by integer products: each block is evaluated once at v = 2^B
(Kronecker substitution, :func:`~wgraphs.matrix._evaluate`), with B taken
from the coefficients; the engine certifies its B step by step and widens
it only where the data asks.  Neither calls the product kernel of the p/mu
recursion in :mod:`wgraphs.hy`, so the two cross-check each other.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .coxeter import bit_positions
from .matrix import LMat, _abs_row_sums, _block, _evaluate, _mul_into, _placed_rows
from .report import Report
from .wgraph import BlockTable, OmegaModule, hecke_t_column, interner, serial_array, table_subsets


class CanonicalisationError(RuntimeError):
    """The input block maps do not come from an involution."""


# -- rho: blockwise action of the involution ---------------------------------


def rho_table(
    J: Iterable[int],
    module: OmegaModule,
    ambient: Optional[Iterable[int]] = None,
    max_length: Optional[int] = None,
) -> BlockTable:
    """The blocks r_{x,z} of the involution iota(T_z (x) m) = sum_x T_x (x) r_{x,z} m.

    Column by column over the representatives in (length, word) order:
    r_{.,1} is the identity, and for z != 1 with first letter s,
    iota(T_z (x) m) = T_s^-1 iota(T_sz (x) m), so the column at z is
    T_s^-1 = T_s - (v_s - v_s^-1) applied to the column at s*z by
    :func:`~wgraphs.wgraph.hecke_t_column`, on serials: each distinct block
    is interned once, and the column step's products, diagonal terms and
    sums are memoised by serial for the whole call.  The representatives,
    Deodhar classes and positions of s*x come from one
    :meth:`~wgraphs.coxeter.CoxeterSystem.coset_listing`.  r_{x,z} = 0
    unless x <= z, so a column stops at z; a nonzero block after it is
    an error.
    """
    system = module.system
    J, ambient = table_subsets(J, module, ambient)
    reps, (classes, shifted) = system.coset_listing(J, K=ambient, max_length=max_length)
    values: List[Optional[LMat]] = [None]  # values[cols[z][x]] = r_{x,z}
    share = interner(values)
    one = share(LMat.identity(module.rank))
    cols: List[array] = [serial_array([one], len(values))]
    memo: Tuple[dict, dict, dict] = ({}, {}, {})
    for zi, z in enumerate(reps[1:], 1):
        s = z.word[0]
        col = hecke_t_column(module, s, classes[s], shifted[s], cols[shifted[s][zi]], values,
                             share, memo, inverse=True)
        if col[zi] != one:
            raise AssertionError(f"diagonal block r_({z},{z}) is not the identity")
        if any(col[zi + 1:]):
            after = next(xi for xi in range(zi + 1, len(col)) if col[xi])
            raise AssertionError(f"nonzero block r_({reps[after]},{z}) after z")
        del col[zi + 1:]
        cols.append(serial_array(col, len(values)))
    return BlockTable(system, J, ambient, module, tuple(reps), cols, values)


def _stored(ideals: Sequence[int], cols: Sequence[Sequence[int]], values: Sequence):
    """The nonzero blocks stored at x <= y, as (x, y, serial) by position; the
    largest row sum of absolute coefficients of each of their serials; and
    the largest |exponent| among them.  Each serial is read once."""
    nonzero = [mat is not None and bool(mat.blocks) for mat in values]
    placed = [(xi, yi, serial) for yi, col in enumerate(cols) for xi, serial in enumerate(col)
              if nonzero[serial] and ideals[yi] >> xi & 1]
    sums = {serial: _abs_row_sums(values[serial])
            for serial in dict.fromkeys([serial for _, _, serial in placed])}
    return placed, sums, max((abs(g) for serial in sums for g in values[serial].blocks), default=0)


def check_rho(rho: BlockTable) -> Report:
    """The composition identity: sum_{x<=y<=z} r_{xy} bar(r_{yz}) = delta_{xz}.

    One check per pair x <= z, decided by one product of integers.  R is
    the block matrix of the stored r_{xy} with x <= y, E the largest
    |exponent| in it and N its largest row sum of absolute coefficients.
    Each block is evaluated once at v = 2^B into the rows of v^E R and
    v^E bar(R), and block (x, z) of their product is (D_{xz} +
    delta_{xz})(2^B) 2^(2EB), D = R bar(R) - I.  D has exponents >= -2E
    and coefficients at most N^2 + 1, so with B = (N^2 + 1).bit_length()
    the lemma of :func:`~wgraphs.matrix._evaluate` makes block (x, z)
    delta_{xz} 2^(2EB) exactly when D_{xz} = 0.
    """
    report = Report("rho composition identity")
    reps = rho.reps
    r = rho.module.rank
    bits = rho.system.bruhat_ideals(reps, rho.gens, rho.ambient)
    size = len(reps) * r
    placed, row_sums, shift = _stored(bits, rho.cols, rho.values)  # (x, y, serial), x <= y
    sums = [0] * size  # the rows of R, each summed in absolute value
    for xi, _, serial in placed:
        for i, s in enumerate(row_sums[serial], xi * r):
            sums[i] += s
    width = (max(sums, default=0) ** 2 + 1).bit_length()
    product: Dict[int, dict] = {}  # v^E R times v^E bar(R) at 2^B, the second as v^-E R at 2^-B
    _mul_into(product, _placed_rows(placed, rho.values, r, size, width, shift),
              _placed_rows(placed, rho.values, r, size, -width, -shift))
    # the pairs (x, z) whose block differs from delta_{xz} 2^(2EB); every
    # entry of the product lies in a block with x <= y <= z
    one = 1 << 2 * shift * width
    failed = {(i // r, j // r) for i, row in product.items()
              for j, c in row.items() if c != (one if i == j else 0)}
    failed.update((i // r, i // r) for i in range(size) if i not in product.get(i, ()))
    # failed pairs have x <= y <= z, so they are checked pairs, reported in (z, x) order
    report.checks += sum([below.bit_count() for below in bits])
    for xi, zi in sorted(failed, key=lambda pair: pair[::-1]):
        report.fail(f"composition fails at ({reps[xi]},{reps[zi]})")
    return report


# -- the generic triangular engine -------------------------------------------


def canonicalise_shadow(
    items: Sequence[Hashable],
    ideals: Sequence[int],
    cols: Sequence[Sequence[int]],
    values: Sequence[Optional[LMat]],
    rank: int,
) -> Tuple[List[array], List[Optional[LMat]]]:
    """Solve the triangular fixed-point problem over an abstract poset.

    The poset is given by position: ``items`` lists it in some linear
    extension, bit j of ``ideals[i]`` is set iff items[j] <= items[i], and
    ``values[cols[z][x]]`` is rho_{xz}, serial 0 (``values[0]`` is None)
    where it is zero; blocks at x not below z are not read.  Returns the
    solution in the same form, as the columns and values of a
    :class:`~wgraphs.wgraph.BlockTable`: ``pi_cols[z][x]`` names pi_{xz}
    for every x <= z, possibly zero, and is 0 elsewhere; equal values of pi
    share a serial.  Raises :class:`CanonicalisationError` if the correction
    terms fail to be antisymmetric or the fixed-point equation has a
    nonzero residual (either means ``cols`` does not describe an
    involution); ``items`` only name the pair in its message.

    Every sum alpha_x = sum_{x<y<=z} rho_{xy} bar(pi_{yz}) is a sum of
    integer products: each serial of rho is bounded and evaluated once per
    width B into one list, as v^E rho_{xy} at v = 2^B, and each new pi_{yz}
    once as v^E bar(pi_{yz}) (ints for 1x1 blocks, integer rows otherwise),
    so the sum is the value a of v^(2E) alpha_x.  The sums are pushed: once
    pi_{yz} is known and nonzero, rho_{xy} bar(pi_{yz}) is added into the
    sum of each x in rho's column y (x <= y stated, x < y).  The y pushed,
    z and then each x solved, are the y <= z stated, each before every x
    below it, so when x is solved its sum holds exactly the terms above.
    E is the largest |exponent| of rho, and nu(M), the largest row sum of
    absolute coefficients, bounds every coefficient of M, nu(MN) <= nu(M) nu(N).

    The width is certified step by step.  Let R_x = sum_{x<y} nu(rho_{xy}),
    and within column z let M be the largest nu(pi_{yz}) decoded so far
    (1 for pi_{zz} = 1).  Before x is solved, the engine requires
    bound = (2 + nu(rho_{xx})) (1 + R_x M) < 2^(B-1).  If it fails, the
    column restarts at B = bound.bit_length() + 1; the earlier columns are
    kept.  The first B puts every bound with M = 1 below 2^(B-1), and B only
    grows.  Exactness, by descending induction over x in column z: every
    pi_{yz} with x < y <= z is exact, so nu(alpha_x) <= R_x M < bound/2,
    and alpha_x has exponents >= -2E and, as pi_{zz} = 1 and the other
    pi_{yz} have exponents in 1..E, <= E.  Its coefficients are below
    2^(B-1), so the digits of a at and below v^0 sum to less than 2^(C-1),
    C = (2E + 1) B, and (a + 2^(C-1)) >> C is v^-1 pi_{xz} at 2^B, whose
    balanced base-2^B digits are the coefficients of pi_{xz}: pi_{xz} is
    exact, and its exponents are in 1..E.  alpha_x is
    antisymmetric iff alpha_x = pi_{xz} - bar(pi_{xz}); times v^(2E) the
    difference has exponents >= 0 and coefficients at most 2 nu(alpha_x) <
    2^B, so by the lemma of :func:`~wgraphs.matrix._evaluate` that check
    compares integers, and so does rho_{zz} = 1, as v^E (rho_{zz} - 1) has
    coefficients below 2 + nu(rho_{zz}) < 2^(B-1).

    The fixed-point residual pi_{xz} - alpha_x - rho_{xx} bar(pi_{xz}) is
    (1 - rho_{xx}) bar(pi_{xz}) once alpha_x is antisymmetric.  Where
    x <= x is stated, rho_{xx} = 1 was checked in column x, which comes
    before z, so the residual is zero and only the diagonal (z, z) is
    checked.  Where it is not, rho_{xx} is not read, and the residual
    -bar(pi_{xz}) is nonzero iff pi_{xz} is.
    """
    placed, sums, top = _stored(ideals, cols, values)
    nu = {0: 0, **{serial: max(row_sums) for serial, row_sums in sums.items()}}
    size = len(ideals)
    lower: List[list] = [[] for _ in ideals]  # lower[y] = [(x, serial of rho_{xy})], x < y
    diagonal = [0] * size  # the serial of rho_{xx}
    rowsum = [0] * size  # R_x
    for xi, yi, serial in placed:
        if xi == yi:
            diagonal[xi] = serial
        else:
            lower[yi].append((xi, serial))
            rowsum[xi] += nu[serial]
    scale = [2 + nu[serial] for serial in diagonal]
    loose = [x for x, below in enumerate(ideals) if not below >> x & 1]  # x <= x not stated
    unit, shape = rank == 1, (rank, rank)

    pi_values: List[Optional[LMat]] = [None]
    share = interner(pi_values)
    one_serial = share(LMat.identity(rank))

    def solve(a: int, x: int, z: int) -> tuple:
        """``made[high]`` for the value a of v^(2E) alpha_x at 2^B."""
        high = (a + half) >> cut
        got = made.get(high)
        if got is None:
            coeffs, g, rest = {}, 1, high
            while rest:  # the balanced base-2^B digits
                c = ((rest + sign) & mask) - sign
                rest = (rest - c) >> width
                if c:
                    coeffs[g] = c
                g += 1
            low = sum([c << (top - g) * width for g, c in coeffs.items()])
            got = made[high] = (
                (high << cut) - (low << top * width), low,
                share(LMat.from_coeffs(shape, {g: (((0, c),),) for g, c in coeffs.items()}))
                if unit else coeffs, sum(map(abs, coeffs.values())))
        if a != got[0]:
            raise CanonicalisationError(
                f"correction term at ({items[x]},{items[z]}) is not antisymmetric")
        return got

    def push(y: int, bar) -> None:  # add rho_{xy} bar into alpha[x], each stored x < y
        if unit:
            for x, serial in lower[y]:
                alpha[x] += ev[serial] * bar
        else:
            for x, serial in lower[y]:
                _mul_into(alpha[x], ev[serial], bar)

    pi: List[array] = []
    width, wanted = 0, 1 + max([(c * (1 + r)).bit_length() for c, r in zip(scale, rowsum)],
                               default=2)
    while len(pi) < size:
        zi = len(pi)
        if width != wanted:  # evaluate rho at the new width, decode afresh
            width = wanted
            cut = (2 * top + 1) * width
            half, sign, mask = 1 << cut - 1, 1 << width - 1, (1 << width) - 1
            one = 1 << top * width  # v^E at 2^B
            unit_bar = one if unit else tuple(((i, one),) for i in range(rank))  # v^E bar(1)
            ev = [0] * len(values)  # ev[serial] = v^E rho at 2^B: an int for 1x1 blocks
            for serial in sums:
                rows = _evaluate(values[serial], width, top)
                ev[serial] = (rows[0][0][1] if rows[0] else 0) if unit else rows
            made: Dict[int, tuple] = {}  # high -> (a, v^E bar(pi), serial of pi or {g: c}, nu)
        below_bits = ideals[zi]
        pz = [0] * zi + [one_serial]
        # alpha[x]: v^(2E) alpha_x at 2^B, pushed from each solved y above x
        alpha = [0] * zi if unit else [{} for _ in range(zi)]
        push(zi, unit_bar)
        largest = 1  # M
        for x in reversed(bit_positions(below_bits & (1 << zi) - 1)):
            bound = scale[x] * (1 + rowsum[x] * largest)
            if bound >= sign:
                wanted = bound.bit_length() + 1
                break
            if unit:
                _, bar, pz[x], got = solve(alpha[x], x, zi)
                if got > largest:
                    largest = got
            else:
                # v^E bar(pi_{xz}) at 2^B as {i: {j: value}}, nonzero; pi_{xz} as {g: {i: {j: c}}}
                bar, blocks, row_nu = {}, {}, [0] * rank
                for i, row in alpha[x].items():
                    for j, a in row.items():
                        _, low, coeffs, entry_nu = solve(a, x, zi)
                        if low:
                            bar.setdefault(i, {})[j] = low
                        row_nu[i] += entry_nu
                        for g, c in coeffs.items():
                            blocks.setdefault(g, {}).setdefault(i, {})[j] = c
                pz[x] = share(LMat.from_coeffs(shape, {g: _block(rows, rank)
                                                       for g, rows in blocks.items()}))
                largest = max(largest, *row_nu)
                bar = [bar.get(i, {}).items() for i in range(rank)] if bar else 0
            if bar:
                push(x, bar)
        else:
            # the x whose fixed-point residual is nonzero: z if rho_{zz} != 1, and
            # the loose x whose pi_{xz} is nonzero
            bad = [x for x in loose if x < zi and pz[x] and pi_values[pz[x]].blocks]
            if below_bits >> zi & 1 and ev[diagonal[zi]] != unit_bar:
                bad.append(zi)
            if bad:
                raise CanonicalisationError(
                    f"fixed-point residual nonzero at ({items[min(bad)]},{items[zi]})")
            pi.append(serial_array(pz, len(pi_values)))
    return pi, pi_values


def pi_recursion(rho: BlockTable) -> BlockTable:
    """Run the triangular recursion on Hecke rho data.

    The engine reads the Bruhat order from position bitsets of the
    representatives and the blocks from rho's columns, and the result is
    stored by the same positions.  If it raises, :func:`check_rho` runs,
    and a failed composition identity is raised as its report, else the
    engine's error.  A rho the engine accepts passes :func:`check_rho`, so
    this is what checking first gives: with R rho's blocks at x <= y and
    Pi the unitriangular result, the engine's exact checks give
    Pi = R bar(Pi) at every x <= z, both sides vanish elsewhere, so
    R = Pi bar(Pi)^-1 and R bar(R) = I.
    """
    bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
    try:
        cols, values = canonicalise_shadow(rho.reps, bits, rho.cols, rho.values, rho.module.rank)
    except CanonicalisationError:
        report = check_rho(rho)
        if not report.ok:
            raise CanonicalisationError(str(report)) from None
        raise
    return BlockTable(rho.system, rho.gens, rho.ambient, rho.module, rho.reps, cols, values)
