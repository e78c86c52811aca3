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
:func:`rho_table` / :func:`pi_recursion` instantiate it with Hecke data,
and :func:`check_rho` and :func:`pi_recursion` read the Bruhat order of
the representatives from
:meth:`~wgraphs.coxeter.CoxeterSystem.bruhat_ideals`.  Both routes store
their blocks in one :class:`~wgraphs.wgraph.BlockTable`, by the positions
of the representatives: rho, pi and the direct recursion's p alike, so the
oracle stores, solves and compares without hashing a group element, and
one read-only view keys each table by group elements.  :func:`check_rho`
verifies that the blocks compose to the identity by Kronecker substitution
(:func:`~wgraphs.matrix._evaluate`): every block is evaluated once at
v = 2^B, with B = (N^2 + 1).bit_length() for N the largest row sum of
absolute coefficients, so that 2^B exceeds every coefficient of the
defect, and the identity becomes one exact product of integer matrices,
read block by block.  This path never
touches the p/mu recursion in :mod:`wgraphs.hy`, which is what makes the
two usable as cross-checks of each other.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from .matrix import LMat, _abs_row_sums, _dot, _evaluate, _mul_into
from .report import Report
from .wgraph import BlockTable, OmegaModule, hecke_t_column


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
    :func:`~wgraphs.wgraph.hecke_t_column`.  Deodhar classes and the
    positions of s*x come from
    :meth:`~wgraphs.coxeter.CoxeterSystem.position_arrays`.
    """
    system = module.system
    J = system._subset(J)
    if J != module.gens:
        raise ValueError("module is defined for a different generator subset")
    ambient = system.generator_set if ambient is None else system._subset(ambient)
    if not J <= ambient:
        raise ValueError("J must be contained in the ambient subset")
    reps = system.min_coset_reps(J, K=ambient, max_length=max_length)
    classes, shifted = system.position_arrays(J, ambient, reps)
    identity = LMat.identity(module.rank)
    cols: List[List[Optional[LMat]]] = []  # cols[z][x] = r_{x,z}
    for zi, z in enumerate(reps):
        if z.word:
            s = z.word[0]
            col = hecke_t_column(module, s, classes[s], shifted[s], cols[shifted[s][zi]],
                                 inverse=True)
        else:
            col = [identity]
        if col[zi] != identity:
            raise AssertionError(f"diagonal block r_({z},{z}) is not the identity")
        cols.append(col)
    return BlockTable(system, J, ambient, module, tuple(reps), cols)


def check_rho(rho: BlockTable) -> Report:
    """The composition identity: sum_{x<=y<=z} r_{xy} bar(r_{yz}) = delta_{xz}.

    One check per pair x <= z, decided by one product of integers.  R is
    the block matrix of the stored r_{xy} with x <= y, E the largest
    |exponent| in it and N its largest row sum of absolute coefficients.
    Every block with x <= y is evaluated once at v = 2^B into the rows of
    the integer matrices of v^E R and v^E bar(R), and block (x, z) of
    their product is D_{xz}(2^B) 2^(2EB) + delta_{xz} 2^(2EB), where D is
    the defect R bar(R) - I.  Each coefficient of D is at most N^2 + 1 in
    absolute value (a coefficient of an entry of R bar(R) is at most the
    l1-norm of a row of R times the largest l1-norm of an entry of R), and
    D has exponents >= -2E, so with B = (N^2 + 1).bit_length() the lemma of
    :func:`~wgraphs.matrix._evaluate` makes block (x, z) equal to
    delta_{xz} 2^(2EB) exactly when D_{xz} = 0.  B comes from the data, so
    no width is fixed and nothing can overflow.
    """
    report = Report("rho composition identity")
    reps = rho.reps
    r = rho.module.rank
    bits = rho.system.bruhat_ideals(reps, rho.gens, rho.ambient)
    size = len(reps) * r
    placed = []  # (x, y, r_{xy}) by position, x <= y
    sums = [0] * size  # the rows of R, each summed in absolute value
    for yi, col in enumerate(rho.cols):
        for xi, mat in enumerate(col):
            if mat is not None and bits[yi] >> xi & 1:
                placed.append((xi, yi, mat))
                for i, s in enumerate(_abs_row_sums(mat), xi * r):
                    sums[i] += s
    shift = max((abs(g) for _, _, mat in placed for g in mat.blocks), default=0)
    width = (max(sums, default=0) ** 2 + 1).bit_length()
    upper: List[list] = [[] for _ in range(size)]  # v^E R at 2^B
    lower: List[list] = [[] for _ in range(size)]  # v^E bar(R) at 2^B, as v^-E R at 2^-B
    for xi, yi, mat in placed:
        left = yi * r
        for i, row in enumerate(_evaluate(mat, width, shift), xi * r):
            upper[i] += [(j + left, c) for j, c in row]
        for i, row in enumerate(_evaluate(mat, -width, -shift), xi * r):
            lower[i] += [(j + left, c) for j, c in row]
    product: Dict[int, dict] = {}
    _mul_into(product, upper, lower)
    # the pairs (x, z) whose block differs from delta_{xz} 2^(2EB); every
    # entry of the product lies in a block with x <= y <= z
    one = 1 << 2 * shift * width
    failed = {(i // r, j // r) for i, row in product.items()
              for j, c in row.items() if c != (one if i == j else 0)}
    failed.update((i // r, i // r) for i in range(size) if i not in product.get(i, ()))
    for zi, below in enumerate(bits):
        for xi in range(zi + 1):
            if below >> xi & 1:
                report.checks += 1
                if (xi, zi) in failed:
                    report.fail(f"composition fails at ({reps[xi]},{reps[zi]})")
    return report


# -- the generic triangular engine -------------------------------------------


def canonicalise_shadow(
    items: Sequence[Hashable],
    ideals: Sequence[int],
    cols: Sequence[Sequence[Optional[LMat]]],
    rank: int,
) -> List[List[Optional[LMat]]]:
    """Solve the triangular fixed-point problem over an abstract poset.

    The poset is given by position: ``items`` lists it in some linear
    extension, bit j of ``ideals[i]`` is set iff items[j] <= items[i], and
    ``cols[z][x]`` is rho_{xz}, None where it is zero (blocks at x not
    below z are not read).  Returns the columns of the solution:
    ``pi[z][x]`` is pi_{xz} for every x <= z, possibly zero, and None
    elsewhere.  Raises :class:`CanonicalisationError` if the correction
    terms fail to be antisymmetric or the fixed-point equation has a
    nonzero residual (either means ``cols`` does not describe an
    involution); ``items`` only name the pair in its message.
    """
    shape = (rank, rank)
    identity = LMat.identity(rank)
    rows: List[Dict[int, LMat]] = [{} for _ in ideals]  # rows[x][y] = rho_{xy} != 0, x <= y
    for yi, col in enumerate(cols):
        for xi, mat in enumerate(col):
            if mat is not None and ideals[yi] >> xi & 1 and not mat.is_zero():
                rows[xi][yi] = mat
    pi: List[List[Optional[LMat]]] = []
    for zi, below_bits in enumerate(ideals):
        below = [y for y in range(zi + 1) if below_bits >> y & 1]
        pz: List[Optional[LMat]] = [None] * (zi + 1)
        pz[zi] = identity
        pi.append(pz)
        col = {zi: identity}  # col[y] = bar(pi_{yz})
        alphas = {}  # alphas[x] = sum_{x<y<=z} rho_{xy} bar(pi_{yz})
        for x in reversed(below):
            alpha = _dot(shape, [(mat, col[y]) for y, mat in rows[x].items()
                                 if y != x and below_bits >> y & 1])
            alphas[x] = alpha
            if x == zi:
                continue
            if not alpha.is_bar_antisymmetric():
                raise CanonicalisationError(
                    f"correction term at ({items[x]},{items[zi]}) is not antisymmetric"
                )
            _, _, pos = alpha.split()
            pz[x] = pos
            col[x] = pos.bar()
        # fixed-point residual: pi_{xz} = sum_{x<=y<=z} rho_{xy} bar(pi_{yz}),
        # the alpha of the correction step plus the diagonal term
        for x in below:
            total = alphas[x]
            if x in rows[x]:
                total = total + _dot(shape, [(rows[x][x], col[x])])
            if total != pz[x]:
                raise CanonicalisationError(
                    f"fixed-point residual nonzero at ({items[x]},{items[zi]})"
                )
    return pi


def pi_recursion(rho: BlockTable) -> BlockTable:
    """Run the triangular recursion on Hecke rho data.

    The composition identity of ``rho`` is verified first (a failed
    identity signals an upstream bug, and the recursion would produce
    garbage from such input).  The engine reads the Bruhat order from
    position bitsets of the representatives and the blocks from rho's
    columns, and the result is stored by the same positions.
    """
    report = check_rho(rho)
    if not report.ok:
        raise CanonicalisationError(str(report))
    bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
    cols = canonicalise_shadow(rho.reps, bits, rho.cols, rho.module.rank)
    return BlockTable(rho.system, rho.gens, rho.ambient, rho.module, rho.reps, cols)
