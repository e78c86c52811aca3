"""Independent oracles for the test suite.

Everything here is deliberately computed WITHOUT the package's recursion
machinery: concrete matrix/permutation models for the small groups, Tits
rewriting for the word problem, a brute-force subword test for the Bruhat
order, coset splittings by stripping descents through products (the
reference for the stripping by position in ``wgraphs.hy.mackey_check``
and for the tower's index rule), the zero classes s*d = d*t found by
products (the map along which Mackey conjugates a module), the bar
involution expanded in the T-basis over the whole group (the reference for
the one-letter recursion of ``wgraphs.canon.rho_table``), the composition
identity of the involution's blocks summed as Laurent matrices pair by pair (the
reference for ``wgraphs.canon.check_rho``), the triangular engine and the
braid relations with Laurent-matrix sums and products (the references for
the integer products of ``wgraphs.canon.canonicalise_shadow`` and
``wgraphs.wgraph.validate``), the engine's certified widths replayed with
Laurent matrices,
the four-case p/mu recurrence evaluated one (x, z, s) triple at a time
(the reference for the intertwining defect that
``wgraphs.hy.PMuTable.check_invariants`` reads its recurrence verdicts from),
the same defect and the idempotent product of ``wgraphs.hy.e_fix_check``
from n x n Laurent-matrix products (the references for their integer and
vector forms), ``wgraphs.canon.pi_recursion`` with ``check_rho`` run before
the engine (the reference for its engine-first order),
the textbook two-step Kazhdan-Lusztig recursion (R-polynomials, then
P-polynomials, in the variable q), a span-closure construction of
cells, the regular W-graph of the whole group with the set D_J * C found
by products in W (the reference for the positional reading of
``wgraphs.cells.induced_cells_check``), and the Robinson-Schensted
symbols of type A.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from typing import Callable, Dict, Iterable, List, Tuple

from wgraphs import hy
from wgraphs.canon import CanonicalisationError, canonicalise_shadow, check_rho
from wgraphs.cells import cell_partition
from wgraphs.coxeter import DEODHAR_MINUS, DEODHAR_PLUS, DEODHAR_ZERO
from wgraphs.laurent import LaurentPoly
from wgraphs.matrix import LMat, _abs_row_sums, _block, _dot, _mul_into
from wgraphs.report import Report
from wgraphs.wgraph import (BlockTable, hecke_t_column, interner, serial_array, sign_module,
                            trivial_module)

# -- model groups --------------------------------------------------------------


def compose_perms(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i)) for permutations of range(n) in one-line form."""
    return tuple(p[q[i]] for i in range(len(p)))


def sym_group_generators(n: int) -> List[tuple]:
    """Adjacent transpositions of S_n acting on positions 0..n-1."""
    gens = []
    for i in range(n - 1):
        g = list(range(n))
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    return gens


def signed_perm_generators(n: int) -> List[tuple]:
    """Type B_n generators: sign flip on the first letter, then swaps.

    Elements are one-line tuples of nonzero signed integers; composition
    is (f o g)(k) = sign(g(k)) * f(|g(k)|).
    """
    flip = tuple(-(1) if k == 0 else k + 1 for k in range(n))
    gens = [flip]
    for i in range(n - 1):
        g = list(range(1, n + 1))
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    return gens


def compose_signed(f: tuple, g: tuple) -> tuple:
    out = []
    for k in range(len(f)):
        image = g[k]
        value = f[abs(image) - 1]
        out.append(value if image > 0 else -value)
    return tuple(out)


def dihedral_generators(m: int) -> List[tuple]:
    """I2(m) as reflections x -> -x and x -> 1 - x of Z/m (as permutations)."""
    s = tuple((-x) % m for x in range(m))
    t = tuple((1 - x) % m for x in range(m))
    return [s, t]


def enumerate_model(
    generators: List,
    mult: Callable,
    identity,
    max_length: int | None = None,
) -> Dict[object, Tuple[int, tuple]]:
    """BFS over products; returns element -> (length, ShortLex word)."""
    table: Dict[object, Tuple[int, tuple]] = {identity: (0, ())}
    layer = [((), identity)]
    length = 0
    while layer and (max_length is None or length < max_length):
        length += 1
        nxt = []
        for word, elt in layer:  # layer is in ShortLex order
            for i, g in enumerate(generators):
                new = mult(elt, g)
                if new not in table:
                    new_word = word + (i,)
                    table[new] = (length, new_word)
                    nxt.append((new_word, new))
        nxt.sort(key=lambda pair: pair[0])
        layer = nxt
    return table


def model_for(name: str):
    """(generators, mult, identity) for the named small group."""
    if name == "a1":
        return sym_group_generators(2), compose_perms, tuple(range(2))
    if name == "a2":
        return sym_group_generators(3), compose_perms, tuple(range(3))
    if name == "a3":
        return sym_group_generators(4), compose_perms, tuple(range(4))
    if name == "b2":
        return signed_perm_generators(2), compose_signed, (1, 2)
    if name == "b3":
        return signed_perm_generators(3), compose_signed, (1, 2, 3)
    if name == "i2_5":
        return dihedral_generators(5), lambda p, q: compose_perms(p, q), tuple(range(5))
    raise KeyError(name)


def eval_word(word: Iterable[int], generators: List, mult: Callable, identity):
    out = identity
    for s in word:
        out = mult(out, generators[s])
    return out


# -- the word problem by Tits rewriting ------------------------------------------


def normalize_word(system, word: Iterable[int]) -> tuple:
    """Canonical (ShortLex-minimal reduced) form of a word, by Tits rewriting.

    Delete adjacent equal letters, and search the braid-move closure of the
    word for a new deletion; if none exists the word is reduced and the
    closure holds every reduced word of the element.  Only the Coxeter
    matrix of ``system`` is read.
    """
    current = tuple(word)
    while True:
        deleted = _delete_adjacent_pair(current)
        if deleted is not None:
            current = deleted
            continue
        closure = _braid_closure(system.matrix, current)
        if isinstance(closure, tuple):  # found a deletion inside the closure
            current = closure
            continue
        return min(closure)


def _braid_closure(matrix, word: tuple):
    """The braid-move closure of ``word`` (a set), or a shorter word found in it."""
    seen = {word}
    queue = deque([word])
    while queue:
        w = queue.popleft()
        for neighbour in _braid_neighbours(matrix, w):
            if neighbour in seen:
                continue
            deleted = _delete_adjacent_pair(neighbour)
            if deleted is not None:
                return deleted
            seen.add(neighbour)
            queue.append(neighbour)
    return seen


def _braid_neighbours(matrix, word: tuple):
    n = len(word)
    for i in range(n - 1):
        s, t = word[i], word[i + 1]
        if s == t:
            continue
        m = matrix[s][t]
        if m == 0 or i + m > n:  # 0 encodes an infinite bond
            continue
        ok = True
        for j in range(2, m):
            if word[i + j] != (s if j % 2 == 0 else t):
                ok = False
                break
        if ok:
            yield word[:i] + tuple(t if j % 2 == 0 else s for j in range(m)) + word[i + m:]


def _delete_adjacent_pair(word: tuple):
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return word[:i] + word[i + 2:]
    return None


# -- Bruhat order by brute force -------------------------------------------------


def bruhat_leq_subword(system, x, z) -> bool:
    """x <= z iff some subword of z's reduced word is a reduced word of x."""
    if x.length > z.length:
        return False
    zw = z.word
    for positions in itertools.combinations(range(len(zw)), x.length):
        candidate = tuple(zw[i] for i in positions)
        if normalize_word(system, candidate) == x.word:
            return True
    return False


# -- coset splittings by descent stripping -----------------------------------------


def peel(system, J, K, w, left: bool) -> tuple:
    """Strip the least left (or right) descent in K from w in D_J until none
    is left, multiplying in W; return (stripped part, rest) for left and
    (rest, stripped part) for right, so that the product of the pair is w.

    Right peeling for J <= K splits w into a representative of D_K and one
    of D_J inside W_K, the tower's index rule; left peeling splits off the
    W_K-W_J double coset part that Mackey strips by position.  ValueError
    if w is not in D_J.
    """
    if system.right_descents(w) & J:
        raise ValueError(f"{w} is not a minimal coset representative for J={sorted(J)}")
    rest = w
    letters = []
    while True:
        descents = (system.left_descents(rest) if left else system.right_descents(rest)) & K
        if not descents:
            break
        s = min(descents)
        step = system.generator(s)
        rest = system.mult(step, rest) if left else system.mult(rest, step)
        letters.append(s)
    peeled = system.element(tuple(letters if left else reversed(letters)))
    head, tail = (peeled, rest) if left else (rest, peeled)
    assert head.length + tail.length == w.length and system.mult(head, tail) == w
    return head, tail


def zero_classes(system, J, K, d) -> dict:
    """The map s -> t of s in K and t in J with s*d = d*t, by products: the
    generator map along which ``wgraphs.hy.mackey_check`` conjugates a
    module at the double-coset representative d."""
    gen = system.generator
    return {s: t for s in sorted(K) for t in sorted(J)
            if system.mult(gen(s), d) == system.mult(d, gen(t))}


# -- the bar involution by T-basis expansion over W ---------------------------------


def iota_expand(z, memo=None) -> dict:
    """Coefficients of bar(T_z) in the T-basis of the whole Hecke algebra.

    bar(T_s) = T_s^-1 = T_s - (v_s - v_s^-1), and bar(T_z) is the product
    of these along a reduced word, expanded exactly over [1, z] in W.
    ``memo`` maps elements to their finished expansions.
    """
    system = z.system
    memo = {} if memo is None else memo
    cached = memo.get(z)
    if cached is not None:
        return cached
    if not z.word:
        out = {z: LaurentPoly.one()}
    else:
        gen = system.generator(z.word[0])
        ls = system.weight(z.word[0])
        delta = LaurentPoly({ls: 1, -ls: -1})
        out = {}

        def add(w, coeff):
            total = out.get(w, LaurentPoly.zero()) + coeff
            if total.is_zero():
                out.pop(w, None)
            else:
                out[w] = total

        for w, coeff in iota_expand(system.mult(gen, z), memo).items():
            sw = system.mult(gen, w)
            add(sw, coeff)  # T_s T_w = T_sw (+ delta T_w if sw < w)
            if sw.length > w.length:
                add(w, -(delta * coeff))  # else the delta terms cancel
    memo[z] = out
    return out


def hecke_matrix(module, w):
    """T_w on the module, for w in the parabolic subgroup W_J: the matrices
    ``iota_t`` of the letters of a reduced word, multiplied in order."""
    if not set(w.word) <= module.gens:
        raise ValueError(f"{w} is not in the parabolic subgroup for J={sorted(module.gens)}")
    out = LMat.identity(module.rank)
    for s in w.word:
        out = out @ module.iota_t(s)
    return out


def rho_expanded(J, module, ambient=None, max_length=None, memo=None) -> dict:
    """The nonzero blocks r_{x,z} = sum_u R_{xu,z} T_u, x and z representatives
    of D_J, from :func:`iota_expand` over W: each term R_{w,z} T_w is split as
    w = x u with u in W_J and T_u acts on the module by :func:`hecke_matrix`.
    Calls on one system may share a ``memo`` dict: it keeps the expansions
    and, per J, the splittings, neither of which depends on the module."""
    system = module.system
    J = frozenset(J)
    reps = system.min_coset_reps(J, K=ambient, max_length=max_length)
    memo = {} if memo is None else memo
    expansions = memo.setdefault("iota", {})
    splits = memo.setdefault(J, {})
    hecke: dict = {}
    entries = {}
    for z in reps:
        blocks: dict = {}
        for w, coeff in iota_expand(z, expansions).items():
            if w not in splits:
                splits[w] = peel(system, frozenset(), J, w, left=False)
            x, u = splits[w]
            if u not in hecke:
                hecke[u] = hecke_matrix(module, u)
            acted = hecke[u].scale(coeff)
            blocks[x] = blocks[x] + acted if x in blocks else acted
        entries.update(((x, z), mat) for x, mat in blocks.items() if not mat.is_zero())
    return entries


def check_rho_entrywise(rho) -> Report:
    """The composition identity sum_{x<=y<=z} r_{xy} bar(r_{yz}) = delta_{xz}
    of a :class:`~wgraphs.wgraph.BlockTable`, one Laurent-matrix sum per pair
    x <= z: the reference for the integer product of ``canon.check_rho``."""
    report = Report("rho composition identity")
    reps = rho.reps
    rank = rho.module.rank
    shape = (rank, rank)
    identity = LMat.identity(rank)
    zero = LMat.zeros(rank)
    bits = rho.system.bruhat_ideals(reps)
    index = {x: i for i, x in enumerate(reps)}
    names = [str(x) for x in reps]
    rows: List[Dict[int, LMat]] = [{} for _ in reps]  # rows[x][y] = r_{xy}, x <= y
    for (x, y), mat in rho.entries.items():
        if bits[index[y]] >> index[x] & 1:
            rows[index[x]][index[y]] = mat
    for zi, below in enumerate(bits):
        upper_bars = {y: row[zi].bar() for y, row in enumerate(rows) if zi in row}
        for xi in range(zi + 1):
            if below >> xi & 1:
                total = _dot(shape, [(term, upper_bars[y])
                                     for y, term in rows[xi].items() if y in upper_bars])
                expected = identity if xi == zi else zero
                report.require(
                    total == expected, f"composition fails at ({names[xi]},{names[zi]})"
                )
    return report


def canonicalise_shadow_lmat(items, ideals, cols, values, rank):
    """``canon.canonicalise_shadow`` with every interval sum one Laurent-matrix
    kernel call (``_dot``) and antisymmetry read off the Laurent matrix: the
    reference for the engine's integer products.  The same input; returns
    the columns of blocks that ``block_columns`` reads from the engine's
    result, and raises the same errors in the same order."""
    shape = (rank, rank)
    identity = LMat.identity(rank)
    rows: List[Dict[int, LMat]] = [{} for _ in ideals]  # rows[x][y] = rho_{xy} != 0, x <= y
    for yi, col in enumerate(cols):
        for xi, serial in enumerate(col):
            mat = values[serial]
            if mat is not None and ideals[yi] >> xi & 1 and not mat.is_zero():
                rows[xi][yi] = mat
    pi = []
    for zi, below_bits in enumerate(ideals):
        below = [y for y in range(zi + 1) if below_bits >> y & 1]
        pz = [None] * (zi + 1)
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
            if alpha != -alpha.bar():
                raise CanonicalisationError(
                    f"correction term at ({items[x]},{items[zi]}) is not antisymmetric"
                )
            _, _, pos = alpha.split()
            pz[x] = pos
            col[x] = pos.bar()
        # fixed-point residual: pi_{xz} = sum_{x<=y<=z} rho_{xy} bar(pi_{yz})
        for x in below:
            total = alphas[x]
            if x in rows[x]:
                total = total + _dot(shape, [(rows[x][x], col[x])])
            if total != pz[x]:
                raise CanonicalisationError(
                    f"fixed-point residual nonzero at ({items[x]},{items[zi]})"
                )
    return pi


def certified_widths(ideals, cols, values, rank, columns=None):
    """The widths, in order, at which ``canon.canonicalise_shadow`` evaluates
    rho on the first ``columns`` columns (all by default): the certificate
    of its docstring replayed with Laurent matrices.  R_x sums nu(rho_{xy})
    over the stated x < y, M is the largest nu(pi_{yz}) of the column so
    far, pi_{yz} the positive part of alpha_y; a column whose bound
    (2 + nu(rho_{xx})) (1 + R_x M) reaches 2^(B-1) restarts at the width
    one above the bound's bit length."""
    def nu(mat):
        return max(_abs_row_sums(mat))

    rows = [{} for _ in ideals]  # rows[x][y] = rho_{xy} != 0, x <= y stated
    for yi, col in enumerate(cols):
        for xi, serial in enumerate(col):
            mat = values[serial]
            if mat is not None and not mat.is_zero() and ideals[yi] >> xi & 1:
                rows[xi][yi] = mat
    scale = [2 + (nu(row[x]) if x in row else 0) for x, row in enumerate(rows)]
    total = [sum(nu(mat) for y, mat in row.items() if y != x) for x, row in enumerate(rows)]
    width = 1 + max((c * (1 + r)).bit_length() for c, r in zip(scale, total))
    widths = [width]
    for zi in range(len(ideals) if columns is None else columns):
        below = [x for x in range(zi) if ideals[zi] >> x & 1]
        restart = True
        while restart:
            restart, largest, bars = False, 1, {zi: LMat.identity(rank)}
            for x in reversed(below):
                bound = scale[x] * (1 + total[x] * largest)
                if bound >= 1 << width - 1:
                    width = bound.bit_length() + 1
                    widths.append(width)
                    restart = True
                    break
                alpha = _dot((rank, rank), [(mat, bars[y]) for y, mat in rows[x].items()
                                            if y != x and y in bars])
                positive = alpha.split()[2]
                bars[x] = positive.bar()
                largest = max(largest, nu(positive))
    return widths


def braid_relations_lmat(module) -> Report:
    """The braid relations of an ``OmegaModule`` as chained n x n Laurent-matrix
    products, one check per pair s < t with a finite bond: the reference for
    the integer products of ``wgraph.validate``."""
    report = Report("braid relations")
    gens = sorted(module.gens)
    for i, s in enumerate(gens):
        for t in gens[i + 1:]:
            m = module.system.order(s, t)
            if m == 0:
                continue
            left, right = module.iota_t(s), module.iota_t(t)
            for j in range(1, m):
                left = left @ module.iota_t(s if j % 2 == 0 else t)
                right = right @ module.iota_t(t if j % 2 == 0 else s)
            report.require(left == right, f"braid relation of length {m} fails for ({s+1},{t+1})")
    return report


def check_invariants_fourcase(table) -> Report:
    """The four-case recurrence of a :class:`~wgraphs.hy.PMuTable`, one
    Laurent-matrix comparison per (x, z, s) in (s, z, x) order: C_s applied
    to the column of P at z through the Deodhar class of s on x (left side)
    must equal the column of P times C_s on the induced W-graph module
    (right side).  Sums over y read only the p(x, y) with x <= y."""
    report = Report("four-case recurrence")
    system, reps, module = table.system, table.reps, table.module
    shape = (module.rank,) * 2
    zero = LMat.zeros(module.rank)
    classes, shifted = table.arrays
    bits = system.bruhat_ideals(reps, table.gens, table.ambient)
    c_mats = {u: module.iota_t(u) - LMat.identity(module.rank).scale(
        LaurentPoly.v(system.weight(u))) for u in module.gens}
    # by position: cols[z][x] = p(x, z), mu_lists[z][s] = [(y, mu(y, z, s))]
    cols: list = [{} for _ in reps]
    mu_lists: list = [{} for _ in reps]
    for (xi, zi), mat in table.pos_items():
        cols[zi][xi] = mat
    for (xi, zi, s), mat in table.mu_pos.items():
        mu_lists[zi].setdefault(s, []).append((xi, mat))
    names = [str(x) for x in reps]
    for s in sorted(table.ambient):
        vs = LaurentPoly.v(system.weight(s))
        vs_inv = LaurentPoly.v(-system.weight(s))
        minus_vs_sum = -(vs + vs_inv)
        row, up = classes[s], shifted[s]
        for zi, cz in enumerate(row):
            pz, sz, mu_z = cols[zi], up[zi], mu_lists[zi].get(s, ())
            for xi, cx in enumerate(row):
                pxz = pz.get(xi, zero)
                if cx.tag == DEODHAR_PLUS:
                    lhs = pz.get(up[xi], zero) - pxz.scale(vs)
                elif cx.tag == DEODHAR_ZERO:
                    lhs = c_mats[cx.conj] @ pxz
                else:
                    lhs = pz.get(up[xi], zero) - pxz.scale(vs_inv)
                if cz.tag == DEODHAR_MINUS:
                    rhs = pxz.scale(minus_vs_sum)
                else:
                    terms = [(cols[y].get(xi, zero), mu_y)
                             for y, mu_y in mu_z if bits[y] >> xi & 1]
                    if cz.tag == DEODHAR_ZERO:
                        rhs = _dot(shape, [(pxz, c_mats[cz.conj]), *terms])
                    else:
                        rhs = zero if sz is None else cols[sz].get(xi, zero)
                        if terms:
                            rhs = rhs + _dot(shape, terms)
                report.require(
                    lhs == rhs,
                    f"recurrence fails at (x={names[xi]}, z={names[zi]}, s={s+1})",
                )
    return report


def hecke_t_on_induced(table, s):
    """The matrix of T_s on the induced Hecke module in the tensor basis:
    column x is :func:`~wgraphs.wgraph.hecke_t_column` of T_x (x) 1."""
    r = table.module.rank
    classes, shifted = table.arrays
    values = [None]
    share, memo = interner(values), ({}, {}, {})
    one = share(LMat.identity(r))
    placed = [(yi * r, xi * r, values[serial])
              for xi in range(len(table.reps))
              for yi, serial in enumerate(hecke_t_column(table.module, s, classes[s], shifted[s],
                                                         [0] * xi + [one], values, share, memo))
              if serial]
    return LMat.from_blocks((len(table.reps) * r,) * 2, placed)


def defects_lmat(J, module, table):
    """The positions (z, x), sorted, of the nonzero blocks of the intertwining
    defect D_s = H_s P - P Omega_s for each ambient s, from two products of
    n x n Laurent matrices: P is ``hy.canonical_matrix``, H_s is
    :func:`hecke_t_on_induced` and Omega_s is ``iota_t(s)`` of the module
    ``hy.induce`` builds.  The reference for the integer products of
    ``hy._defects``."""
    omega = hy.induce(J, module, table)
    cmat = hy.canonical_matrix(J, module, table)
    r, n = module.rank, cmat.nrows
    out = {}
    for s in sorted(table.ambient):
        defect = _dot((n, n), [(hecke_t_on_induced(table, s), cmat), (cmat, -omega.iota_t(s))])
        out[s] = sorted({(j // r, i // r) for b in defect.blocks.values()
                         for i, row in enumerate(b) for j, _ in row})
    return out


def pi_recursion_checked_first(rho):
    """``canon.pi_recursion`` with the composition identity of ``rho``
    checked before the engine runs: a failed ``check_rho`` is raised as its
    report, else the engine's columns or error.  The reference for the
    engine-first order of ``pi_recursion``."""
    report = check_rho(rho)
    if not report.ok:
        raise CanonicalisationError(str(report))
    bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
    cols, values = canonicalise_shadow(rho.reps, bits, rho.cols, rho.values, rho.module.rank)
    return BlockTable(rho.system, rho.gens, rho.ambient, rho.module, rho.reps, cols, values)


def e_fix_check_lmat(system, J) -> Report:
    """``hy.e_fix_check`` as the product of the n x n Laurent matrices E_s
    (s in J) and 1 - E_s (s not in J) on the module ``hy.induce`` builds,
    with column 0 read from the product: the reference for the check's
    vector walk."""
    J = system._subset(J)
    report = Report(f"idempotent product fixes 1|m0 (J={sorted(s + 1 for s in J)})")
    module = sign_module(system, J)
    induced = hy.induce(J, module, hy.p_mu_table(J, module))
    n = induced.rank
    identity = LMat.identity(n)
    product = identity
    for s in sorted(system.generator_set):
        e_s = LMat.from_coeffs((n, n), {0: induced.e_mat(s)})
        product = product @ (e_s if s in J else identity - e_s)
    column = [(i, row[0][1]) for i, row in enumerate(product.coeff(0)) if row and row[0][0] == 0]
    report.require(column == [(0, 1)], "E_J does not fix the generating vector")
    return report


# -- classical Kazhdan-Lusztig polynomials (variable q) ----------------------------


class KLOracle:
    """Textbook two-step KL recursion over the symmetric group S_n.

    Permutations are one-line tuples over range(n).  Polynomials in q are
    {degree: coefficient} dicts.  R-polynomials come first (their
    nonvanishing IS the Bruhat order), then the P-recursion
        P_{x,w} = q^(1-c) P_{xs,ws} + q^c P_{x,ws}
                  - sum_{x <= z < ws, zs < z} mu(z, ws) q^((l(w)-l(z))/2) P_{x,z}
    with s a right descent of w and c = 1 iff xs < x.
    """

    def __init__(self, n: int):
        self.n = n
        self.gens = sym_group_generators(n)
        self.perms = [tuple(p) for p in itertools.permutations(range(n))]
        self.length = {p: self._inversions(p) for p in self.perms}
        self._r: Dict[Tuple[tuple, tuple], dict] = {}
        self._p: Dict[Tuple[tuple, tuple], dict] = {}

    @staticmethod
    def _inversions(p: tuple) -> int:
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])

    def right_mult(self, w: tuple, i: int) -> tuple:
        return compose_perms(w, self.gens[i])

    def right_descent(self, w: tuple) -> int | None:
        for i in range(self.n - 1):
            if w[i] > w[i + 1]:
                return i
        return None

    # R-polynomials ------------------------------------------------------------

    def r_poly(self, x: tuple, w: tuple) -> dict:
        key = (x, w)
        cached = self._r.get(key)
        if cached is not None:
            return cached
        if self.length[x] > self.length[w]:
            result: dict = {}
        elif w == tuple(range(self.n)):
            result = {0: 1} if x == w else {}
        else:
            i = self.right_descent(w)
            ws = self.right_mult(w, i)
            xs = self.right_mult(x, i)
            if self.length[xs] < self.length[x]:
                result = dict(self.r_poly(xs, ws))
            else:
                # (q - 1) R_{x,ws} + q R_{xs,ws}
                result = {}
                for d, c in self.r_poly(x, ws).items():
                    result[d + 1] = result.get(d + 1, 0) + c
                    result[d] = result.get(d, 0) - c
                for d, c in self.r_poly(xs, ws).items():
                    result[d + 1] = result.get(d + 1, 0) + c
                result = {d: c for d, c in result.items() if c}
        self._r[key] = result
        return result

    def leq(self, x: tuple, w: tuple) -> bool:
        return x == w or bool(self.r_poly(x, w))

    # P-polynomials ---------------------------------------------------------------

    def p_poly(self, x: tuple, w: tuple) -> dict:
        key = (x, w)
        cached = self._p.get(key)
        if cached is not None:
            return cached
        if x == w:
            result = {0: 1}
        elif not self.leq(x, w):
            result = {}
        else:
            i = self.right_descent(w)
            ws = self.right_mult(w, i)
            xs = self.right_mult(x, i)
            c = 1 if self.length[xs] < self.length[x] else 0
            result = {}
            for d, co in self.p_poly(xs, ws).items():
                result[d + 1 - c] = result.get(d + 1 - c, 0) + co
            for d, co in self.p_poly(x, ws).items():
                result[d + c] = result.get(d + c, 0) + co
            for z in self.perms:
                if self.length[z] >= self.length[ws] or not self.leq(x, z):
                    continue
                zs = self.right_mult(z, i)
                if self.length[zs] >= self.length[z]:
                    continue
                if not self.leq(z, ws):
                    continue
                mu = self.mu(z, ws)
                if mu == 0:
                    continue
                shift = (self.length[w] - self.length[z]) // 2
                for d, co in self.p_poly(x, z).items():
                    result[d + shift] = result.get(d + shift, 0) - mu * co
            result = {d: co for d, co in result.items() if co}
        self._p[key] = result
        return result

    def mu(self, z: tuple, w: tuple) -> int:
        diff = self.length[w] - self.length[z]
        if diff <= 0 or diff % 2 == 0:
            return 0
        return self.p_poly(z, w).get((diff - 1) // 2, 0)


# -- brute-force cells ---------------------------------------------------------------


def closure_cells(module) -> List[frozenset]:
    """Cells via span closure of singletons under the edge action."""
    n = module.rank
    mats = [dense(mat, n) for mat in module.x.values()]
    down: List[set] = []
    for start in range(n):
        reached = {start}
        frontier = [start]
        while frontier:
            j = frontier.pop()
            for mat in mats:
                for i in range(n):
                    if mat[i][j] != 0 and i not in reached:
                        reached.add(i)
                        frontier.append(i)
        down.append(reached)
    blocks = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        block = {j for j in down[i] if i in down[j]}
        blocks.append(frozenset(block))
        seen |= block
    return sorted(blocks, key=min)


def kl_graph(system):
    """The regular W-graph module, with its basis listed as group elements."""
    module = trivial_module(system, frozenset())
    table = hy.p_mu_table(frozenset(), module)
    return hy.induce(frozenset(), module, table), list(table.reps)


def induced_cells_by_products(system, J, cell_union) -> Report:
    """``wgraphs.cells.induced_cells_check`` with each d * c found by
    multiplying in W and looked up among the elements of :func:`kl_graph`."""
    J = system._subset(J)
    cset = set(cell_union)
    report = Report(f"induction of cells from J={sorted(s + 1 for s in J)}")
    inner_module = trivial_module(system, frozenset())
    inner_table = hy.p_mu_table(frozenset(), inner_module, ambient=J)
    inner_graph = hy.induce(frozenset(), inner_module, inner_table)
    inner_pos = {w: i for i, w in enumerate(inner_table.reps)}
    missing = [w for w in cset if w not in inner_pos]
    if missing:
        raise ValueError(f"elements outside the parabolic subgroup: {missing}")
    c_idx = {inner_pos[w] for w in cset}
    for block in cell_partition(inner_graph).blocks:
        if block & c_idx and not block <= c_idx:
            raise ValueError("the given set is not a union of cells of the parabolic graph")
    graph, elements = kl_graph(system)
    pos = {w: i for i, w in enumerate(elements)}
    translated = {pos[system.mult(d, c)] for d in system.min_coset_reps(J) for c in cset}
    for block in cell_partition(graph).blocks:
        overlap = block & translated
        report.require(not overlap or block <= translated,
                       f"cell {sorted(block)} is cut by the translated set")
    return report


# -- Robinson-Schensted symbols --------------------------------------------------------


def rs_symbols(perm) -> tuple:
    """(P, Q): the insertion and recording tableaux of the one-line word ``perm``."""
    P: List[list] = []
    Q: List[list] = []
    for k, a in enumerate(perm):
        row = 0
        while row < len(P) and a < P[row][-1]:  # bump the least entry above a
            j = bisect.bisect(P[row], a)
            a, P[row][j] = P[row][j], a
            row += 1
        if row == len(P):
            P.append([])
            Q.append([])
        P[row].append(a)
        Q[row].append(k)
    return tuple(map(tuple, P)), tuple(map(tuple, Q))


def rs_classes(elements, symbol: int) -> List[frozenset]:
    """The positions of elements of type A_n with equal P- (symbol 0) or
    Q-symbol (symbol 1), sorted by least position.  Generator i acts as the
    transposition (i, i+1) on the right of the one-line form."""
    classes: Dict[tuple, set] = {}
    for v, x in enumerate(elements):
        perm = list(range(x.system.rank + 1))
        for i in x.word:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        classes.setdefault(rs_symbols(perm)[symbol], set()).add(v)
    return sorted(map(frozenset, classes.values()), key=min)


# -- entrywise Laurent matrices ------------------------------------------------------
#
# A reference for wgraphs.matrix.LMat: a matrix is a tuple of rows of
# LaurentPoly entries and every operation acts entry by entry.


def ent_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ent_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def ent_sub(a, b):
    return ent_add(a, ent_neg(b))


def ent_matmul(a, b, zero):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            total = zero
            for t, x in enumerate(row):
                total = total + x * b[t][j]
            out_row.append(total)
        out.append(tuple(out_row))
    return tuple(out)


def ent_scale(a, factor):
    return tuple(tuple(factor * x for x in row) for row in a)


def ent_bar(a):
    return tuple(tuple(x.bar() for x in row) for row in a)


def ent_split(a):
    parts = [[[None] * len(row) for row in a] for _ in range(3)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            for part, value in zip(parts, x.split()):
                part[i][j] = value
    return tuple(tuple(tuple(r) for r in part) for part in parts)


def ent_coeff(a, g):
    return tuple(tuple(x.coeff(g) for x in row) for row in a)


def ent_exponents(a):
    return tuple(sorted({g for row in a for x in row for g in x.support()}))


def ent_from_blocks(shape, placed, zero):
    """The matrix of ``shape`` with each (top, left, block) pasted in, else ``zero``."""
    out = [[zero] * shape[1] for _ in range(shape[0])]
    for top, left, block in placed:
        for i, row in enumerate(block):
            out[top + i][left:left + len(row)] = row
    return tuple(map(tuple, out))


def ent_is_bar_symmetric(a):
    return all(x.is_bar_symmetric() for row in a for x in row)


# -- dense integer matrices ----------------------------------------------------------
#
# A reference for the sparse integer matrices of wgraphs.matrix (rows of
# (column, value) pairs): a dense matrix is a tuple of row tuples of ints.


# -- block tables by hand ---------------------------------------------------------
#
# A BlockTable stores serials into its values; these read its columns as
# blocks, and store blocks given by hand, None for no block.


def block_columns(cols, values):
    """The columns of blocks that serial columns name, None for serial 0."""
    return [[values[serial] for serial in col] for col in cols]


def serial_columns(block_cols):
    """(cols, values) of a BlockTable holding ``block_cols``: each distinct
    block gets one serial, and None is serial 0."""
    values = [None]
    share = interner(values)
    serials = [[0 if mat is None else share(mat) for mat in col] for col in block_cols]
    return [serial_array(col, len(values)) for col in serials], values


def store_block(table, key, mat):
    """Store ``mat`` at position ``key`` = (x, z) of ``table`` under a new
    serial, also where x is not below z; None deletes the block there."""
    xi, zi = key
    col = table.cols[zi]
    col.extend([0] * (xi + 1 - len(col)))
    col[xi] = 0 if mat is None else len(table.values)
    if mat is not None:
        table.values.append(mat)


def dense(mat, ncols):
    """The dense rows of a sparse matrix with ``ncols`` columns."""
    out = []
    for row in mat:
        full = [0] * ncols
        for j, c in row:
            full[j] = c
        out.append(tuple(full))
    return tuple(out)


def sparse(rows):
    """The (column, value) rows of a dense matrix."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)


def imat_mul(a, b):
    """The product of two sparse integer matrices, as the canonical rows that
    ``matrix._block`` reads off a ``matrix._mul_into`` accumulator."""
    return _block(_mul_into({}, a, b), len(a))


def dense_mul(a, b, ncols):
    return tuple(
        tuple(sum(x * b[t][j] for t, x in enumerate(row)) for j in range(ncols)) for row in a
    )
