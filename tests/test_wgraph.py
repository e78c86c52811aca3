from pathlib import Path

import pytest

from wgraphs.coxeter import CoxeterSystem
from wgraphs.formats import load_system
from wgraphs.laurent import LaurentPoly, v
from wgraphs.matrix import LMat, _evaluate
from wgraphs.wgraph import (
    OmegaModule,
    edges,
    sign_module,
    to_wgraph,
    trivial_module,
    validate,
)
from wgraphs.hy import induce, p_mu_table

from oracles import braid_relations_lmat, dense, dense_mul, hecke_matrix, sparse, zero_classes

_ROOT = Path(__file__).resolve().parent.parent


def kl_module(system):
    module = trivial_module(system, frozenset())
    table = p_mu_table(frozenset(), module)
    return induce(frozenset(), module, table), table


class TestValidate:
    def test_trivial_rank_one(self, systems):
        module = OmegaModule(systems["a2"], {0, 1}, 1, {0: sparse(((1,),)), 1: sparse(((1,),))}, {})
        assert validate(module).ok

    def test_non_idempotent(self, systems):
        module = OmegaModule(systems["a2"], {0}, 1, {0: sparse(((2,),))}, {})
        report = validate(module)
        assert not report.ok and "E_1^2" in report.failures[0]

    def test_infinite_bond(self, systems):
        """An infinite bond has no braid relation: only the E/X relations are checked."""
        system = load_system(str(_ROOT / "systems/affine_a1.json"))
        for make in (sign_module, trivial_module):
            assert str(validate(make(system, {0, 1}))).endswith("ok [3 checks]")
        # the W-graph of the infinite dihedral group: labels {1} and {2}, one edge each way
        e = {0: sparse(((1, 0), (0, 0))), 1: sparse(((0, 0), (0, 1)))}
        x = {(0, 0): sparse(((0, 1), (0, 0))), (1, 0): sparse(((0, 0), (1, 0)))}
        assert str(validate(OmegaModule(system, {0, 1}, 2, e, x))).endswith("ok [7 checks]")

    def test_kl_graph_a2_valid(self, systems):
        module, _ = kl_module(systems["a2"])
        assert validate(module).ok

    def test_braid_failure_detected(self, systems):
        # a rank-1 "module" with idempotents 1, 0 for the two generators of A2:
        # both defining products differ (one side acts by -v^-1 * v), so the
        # braid relation must fail.
        module = OmegaModule(systems["a2"], {0, 1}, 1, {0: sparse(((1,),)), 1: sparse(((0,),))}, {})
        report = validate(module)
        assert not report.ok and any("braid" in f for f in report.failures)

    def test_dimension_mismatch(self, systems):
        with pytest.raises(ValueError):
            OmegaModule(systems["a2"], {0}, 2, {0: sparse(((1,),))}, {})

    def test_x_exponent_range(self, systems):
        with pytest.raises(ValueError):
            OmegaModule(systems["a2"], {0}, 1, {0: sparse(((1,),))}, {(0, 1): sparse(((1,),))})

    @pytest.mark.parametrize("mat", [
        (((0, 1),),),  # one row for rank 2
        (((0, 1),), (), ()),  # three rows
        (((2, 1),), ()),  # column outside 0..1
        (((-1, 1),), ()),
        (((1, 1), (0, 1)), ()),  # unsorted columns
        (((0, 1), (0, 1)), ()),  # repeated column
        (((0, 0),), ()),  # explicit zero
        ((1, 0), (0, 0)),  # dense rows
        (((True, 1),), ()),  # bool column
        (((0.0, 1),), ()),  # float column
        (((0, 1, 2),), ()),  # three-entry pair
        ([[(1, 1), (0, 1)]], [[]]),  # list rows, unsorted
        lambda: (row for row in (((0, 1),), ((0, 0),))),  # generator of rows, explicit zero
    ])
    def test_sparse_input_checked(self, systems, mat):
        with pytest.raises(ValueError):
            OmegaModule(systems["a2"], {0}, 2, {0: mat() if callable(mat) else mat}, {})
        with pytest.raises(ValueError):
            OmegaModule(systems["a2"], {0}, 2, {}, {(0, 0): mat() if callable(mat) else mat})

    @pytest.mark.parametrize("mat", [
        [[(1, 1)], [[0, 2], (1, -1)]],  # list rows and list pairs
        lambda: (iter(row) for row in (((1, 1),), ((0, 2), (1, -1)))),  # generator of rows
        (((1, 1),), ((0, 2), (1, -1))),  # canonical: kept as given
    ])
    def test_sparse_input_normalised(self, systems, mat):
        canonical = (((1, 1),), ((0, 2), (1, -1)))
        given = mat() if callable(mat) else mat
        module = OmegaModule(systems["a2"], {0}, 2, {0: given}, {})
        assert module.e[0] == canonical and (module.e[0] is given) == (given == canonical)
        assert all(type(row) is tuple and all(type(e) is tuple for e in row) for row in module.e[0])

    @pytest.mark.parametrize("mat,message", [
        ((((True, 1),), ()), "row 0 needs strictly increasing columns in 0..1"),
        (((), ((1, 1), (1, 2))), "row 1 needs strictly increasing columns in 0..1"),
        (((), ((0, 1), (1, 0))), "row 1 holds an explicit zero"),
        ((((0, 1),),), "matrix has 1 rows, not 2"),
        (((0, 1),), "a sparse row holds (column, value) pairs"),
    ])
    def test_sparse_input_message(self, systems, mat, message):
        with pytest.raises(ValueError) as err:
            OmegaModule(systems["a2"], {0}, 2, {0: mat}, {})
        assert str(err.value) == message


class TestConversions:
    def test_round_trip_kl_graph(self, systems):
        module, table = kl_module(systems["a2"])
        names = [str(w) for w in table.reps]
        graph = to_wgraph(module, names)
        assert graph.module == module and graph.vertices == tuple(names)
        listed = edges(module)
        assert listed == sorted(listed)
        assert {(s, g, i, j): c for (s, i, j), weights in listed for g, c in weights.items()} == {
            (s, g, i, j): c
            for (s, g), mat in module.x.items()
            for i, row in enumerate(dense(mat, module.rank))
            for j, c in enumerate(row)
            if c
        }
        # the label condition: an s-edge leaves a vertex without s and enters one with it
        for (s, i, j), _ in listed:
            assert s in module.vertex_label(i) and s not in module.vertex_label(j)

    def test_sign_module_graph(self, systems):
        module = sign_module(systems["a2"], {0, 1})
        assert to_wgraph(module, ["m0"]).vertices == ("m0",)
        assert module.vertex_label(0) == frozenset({0, 1})
        assert edges(module) == []

    def test_trivial_module_graph(self, systems):
        module = trivial_module(systems["a2"], {0, 1})
        assert to_wgraph(module, ["m0"]).module == module
        assert module.vertex_label(0) == frozenset()

    def test_to_wgraph_needs_diagonal(self, systems):
        module = OmegaModule(systems["a2"], {0}, 2, {0: sparse(((0, 1), (1, 0)))}, {})
        with pytest.raises(ValueError):
            to_wgraph(module, ["a", "b"])

    @pytest.mark.parametrize("e", [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 0))])
    def test_has_diagonal_idempotents_rejects(self, systems, e):
        assert not OmegaModule(systems["a2"], {0}, 2, {0: sparse(e)}, {}).has_diagonal_idempotents()

    def test_to_wgraph_needs_one_distinct_name_per_vertex(self, systems):
        module = trivial_module(systems["a2"], {0, 1}).restrict({0})
        with pytest.raises(ValueError):
            to_wgraph(module, ["a", "b"])
        module, _ = kl_module(systems["a1"])
        with pytest.raises(ValueError, match="distinct"):
            to_wgraph(module, ["a", "a"])

    def test_support_condition_violation_reported(self, systems):
        # an s-edge out of a vertex whose label contains s: X E_s != 0
        module = OmegaModule(
            systems["a2"], {0, 1}, 2,
            {0: sparse(((1, 0), (0, 1))), 1: sparse(((0, 0), (0, 0)))},
            {(0, 0): sparse(((0, 1), (0, 0)))},
        )
        report = validate(module)
        assert not report.ok and "X_(1,0) E_1 != 0" in report.failures


class TestHeckeMatrices:
    def test_identity(self, systems):
        module = sign_module(systems["a2"], {0, 1})
        assert hecke_matrix(module, systems["a2"].identity) == LMat.identity(1)

    def test_sign_eigenvalue(self, systems):
        module = sign_module(systems["a2"], {0, 1})
        assert hecke_matrix(module, systems["a2"].generator(0)) == LMat([[v(-1, -1)]])

    def test_trivial_eigenvalue(self, systems):
        module = trivial_module(systems["b2_unequal"], {1})
        assert hecke_matrix(module, systems["b2_unequal"].generator(1)) == LMat([[v(2)]])

    def test_outside_parabolic(self, systems):
        module = sign_module(systems["a2"], {0})
        with pytest.raises(ValueError):
            hecke_matrix(module, systems["a2"].generator(1))

    @pytest.mark.parametrize("name", ["a2", "b2_unequal"])
    def test_quadratic_relation(self, systems, name):
        module, _ = kl_module(systems[name])
        identity = LMat.identity(module.rank)
        for s in range(systems[name].rank):
            t_mat = module.iota_t(s)
            ls = systems[name].weight(s)
            delta = LaurentPoly({ls: 1, -ls: -1})
            assert t_mat @ t_mat == identity + t_mat.scale(delta)

    @pytest.mark.parametrize("name", ["a2", "b2_unequal"])
    def test_inverse_formula(self, systems, name):
        module, _ = kl_module(systems[name])
        identity = LMat.identity(module.rank)
        for s in range(systems[name].rank):
            t_mat = module.iota_t(s)
            ls = systems[name].weight(s)
            inverse = t_mat - identity.scale(LaurentPoly({ls: 1, -ls: -1}))
            assert t_mat @ inverse == identity
            assert module.iota_t(s, inverse=True) == inverse

    @pytest.mark.parametrize("name", ["a2", "b2"])
    def test_eigenspace_iff(self, systems, name):
        """T_s a = -v_s^-1 a iff E_s a = a, on every basis vector."""
        module, _ = kl_module(systems[name])
        n = module.rank
        for s in range(systems[name].rank):
            t_mat = module.iota_t(s)
            e_mat = dense(module.e_mat(s), n)
            for j in range(n):
                eigen = all(
                    t_mat[i, j] == (v(-systems[name].weight(s), -1) if i == j else LaurentPoly.zero())
                    for i in range(n)
                )
                fixed = all(e_mat[i][j] == (1 if i == j else 0) for i in range(n))
                assert eigen == fixed


class TestConjugateRestrict:
    def test_identity_conjugation(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        conj = module.conjugate(zero_classes(a2, {0}, {0}, a2.identity))
        assert conj == module

    def test_cross_conjugation(self, systems):
        a2 = systems["a2"]
        # d = st maps t back into J = {s}: d^-1 t d = s
        d = a2.element((0, 1))
        module = sign_module(a2, {0})
        relabel = zero_classes(a2, {0}, {1}, d)
        assert relabel == {1: 0}
        conj = module.conjugate(relabel)
        assert conj.gens == frozenset({1})
        assert dense(conj.e_mat(1), 1) == ((1,),)
        assert validate(conj).ok

    def test_conjugate_of_sign_is_sign(self, systems):
        a2 = systems["a2"]
        d = a2.element((0, 1))
        conj = sign_module(a2, {0}).conjugate(zero_classes(a2, {0}, {1}, d))
        assert conj == sign_module(a2, {1})

    def test_rejects_unequal_weights(self, systems):
        """No zero class pairs generators of different weights; a map given
        by hand can, and is refused."""
        b2 = systems["b2_unequal"]
        with pytest.raises(ValueError, match="generators 1 and 2 carry different weights"):
            sign_module(b2, {1}).conjugate({0: 1})

    def test_restrict_kl_graph(self, systems):
        module, _ = kl_module(systems["a2"])
        restricted = module.restrict({0})
        assert restricted.rank == 6 and restricted.gens == frozenset({0})
        assert validate(restricted).ok
        assert restricted.e_mat(0) == module.e_mat(0)
        assert restricted.x == {key: mat for key, mat in module.x.items() if key[0] == 0}

    def test_restrict_to_empty(self, systems):
        module, _ = kl_module(systems["a2"])
        bare = module.restrict(frozenset())
        assert bare.rank == module.rank and bare.gens == frozenset()
        assert validate(bare).ok and not bare.x

    def test_restrict_to_everything_is_identity(self, systems):
        module, _ = kl_module(systems["a2"])
        assert module.restrict(module.gens) == module

    def test_restrict_to_vertices(self, systems):
        """Each kept E and X is cut to vertices x vertices and renumbered in
        the order given; entries in a row or column outside them are dropped."""
        module, _ = kl_module(systems["a2"])
        vertices = [4, 1, 2]
        cut = module.restrict({1}, vertices)
        assert cut.rank == 3 and cut.gens == frozenset({1})
        full = [module.e_mat(1), module.x_mat(1, 0)]
        for mat, kept in zip(full, [cut.e_mat(1), cut.x_mat(1, 0)]):
            rows = dense(mat, module.rank)
            assert dense(kept, 3) == tuple(tuple(rows[i][j] for j in vertices) for i in vertices)
        # the X of the regular W-graph has entries that leave the vertices
        assert sum(map(len, full[1])) > sum(len(full[1][i]) for i in vertices) > 0
        assert sum(map(len, cut.x_mat(1, 0))) < sum(len(full[1][i]) for i in vertices)

    @pytest.mark.parametrize("vertices", [[0, 3, 0], [0, 6], [-1]])
    def test_restrict_rejects_repeated_or_missing_vertex(self, systems, vertices):
        module, _ = kl_module(systems["a2"])
        with pytest.raises(ValueError, match="distinct basis positions"):
            module.restrict({0}, vertices)

    def test_restrict_to_every_vertex_in_order(self, systems):
        module, _ = kl_module(systems["b2"])
        for J in (frozenset(), frozenset({1}), module.gens):
            assert module.restrict(J, range(module.rank)) == module.restrict(J)


def _braid_modules(name):
    """The modules whose braid relations are compared with the reference."""
    if name in ("b3_211", "i2_8_13"):  # induced regular W-graphs
        return kl_module(load_system(str(_ROOT / f"perfbench/systems/{name}.json")))[0]
    d4 = load_system(str(_ROOT / "perfbench/systems/d4.json"))  # hy verify --check axioms
    regular, k = trivial_module(d4, frozenset()), frozenset({0, 1, 2})
    inner = induce(frozenset(), regular, p_mu_table(frozenset(), regular, ambient=k))
    return induce(k, inner, p_mu_table(k, inner))


def _with_x(module, s, g, i, c):
    """A copy of ``module`` with c added to the first entry of row i of X_{s,g}."""
    x = dict(module.x)
    rows = [list(row) for row in x[(s, g)]]
    j, old = rows[i][0]
    rows[i][0] = (j, old + c)
    x[(s, g)] = tuple(tuple(e for e in row if e[1]) for row in rows)
    return OmegaModule(module.system, module.gens, module.rank, module.e, x)


def _conjugated(module, n, at=(0, 1)):
    """P M P^-1 for P = 1 + n e_at, ``at`` off the diagonal: every relation
    holds as in M, and the entries grow to about n^2."""
    r = module.rank
    p = [[int(i == j) + (n if (i, j) == at else 0) for j in range(r)] for i in range(r)]
    q = [[int(i == j) - (n if (i, j) == at else 0) for j in range(r)] for i in range(r)]

    def conj(mat):
        return sparse(dense_mul(dense_mul(p, dense(mat, r), r), q, r))

    return OmegaModule(module.system, module.gens, r,
                       {s: conj(module.e_mat(s)) for s in module.gens},
                       {key: conj(mat) for key, mat in module.x.items()})


def _braid_failures(report):
    return [f for f in report.failures if "braid" in f]


def _broken(module, relation):
    """``module`` with one E/X relation of generator 1, or for "commute" of
    the pair (1, 2), broken and the stored keys kept: E_1 doubled, 1 - E_1 or
    E_1 added to X_(1,0), or E_2 and X_(2,0) conjugated by 1 + e_(2,1)."""
    r = module.rank
    e, x = dict(module.e), dict(module.x)
    e1, x1 = dense(module.e[0], r), dense(module.x[(0, 0)], r)
    if relation == "square":
        e[0] = sparse([[2 * c for c in row] for row in e1])
    elif relation == "fix":
        x[(0, 0)] = sparse([[c + int(i == j) - d for j, (c, d) in enumerate(zip(*rows))]
                            for i, rows in enumerate(zip(x1, e1))])
    elif relation == "kill":
        x[(0, 0)] = sparse([[c + d for c, d in zip(*rows)] for rows in zip(x1, e1)])
    else:
        shifted = _conjugated(module, 1, at=(2, 1))
        e[1], x[(1, 0)] = shifted.e[1], shifted.x[(1, 0)]
    return OmegaModule(module.system, module.gens, r, e, x)


class TestRelationFailures:
    """``validate`` decides the E/X relations on accumulators of products of
    the stored rows.  On regular A2 conjugated so that no E_s is diagonal,
    each relation broken in turn fails with its exact message, and the count
    of checks stays that of the valid module."""

    @pytest.mark.parametrize("relation,failures", [
        ("square", ["E_1^2 != E_1", "E_1 X_(1,0) != X_(1,0)"]),
        ("fix", ["E_1 X_(1,0) != X_(1,0)"]),
        ("kill", ["X_(1,0) E_1 != 0"]),
        ("commute", ["E_1 E_2 != E_2 E_1"]),
    ])
    def test_exact_message(self, systems, relation, failures):
        base = kl_module(systems["a2"])[0]
        valid = validate(_conjugated(base, 3))
        module = _conjugated(_broken(base, relation), 3)
        assert valid.ok and valid.checks == 8 and not module.has_diagonal_idempotents()
        report = validate(module)
        assert report.checks == valid.checks
        assert [f for f in report.failures if "braid" not in f] == failures


class TestBraidProducts:
    """``validate`` decides each braid relation on one accumulator of integer
    products; ``oracles.braid_relations_lmat`` chains Laurent-matrix products.
    Same verdicts, same failure texts."""

    @pytest.mark.parametrize("name", ["b3_211", "i2_8_13", "d4-K123"])
    def test_matches_reference(self, name):
        module = _braid_modules(name)
        report, reference = validate(module), braid_relations_lmat(module)
        assert report.ok and reference.ok and reference.checks > 0
        if name == "d4-K123":
            assert module.rank == 192 and report.checks == 24
            s, g = min(module.x)
            bumped = _with_x(module, s, g, next(i for i, row in enumerate(module.x[(s, g)]) if row), 1)
            reference = braid_relations_lmat(bumped)
            assert not reference.ok and len(reference.failures) < reference.checks
            assert _braid_failures(validate(bumped)) == reference.failures

    def test_sides_from_shared_products(self, systems, monkeypatch):
        """Regular B3 (bonds 4, 2 and 3): (st)^2 against (ts)^2, st against ts,
        and (st)s against t(st) take 4 + 2 + 3 integer products, not
        6 + 2 + 4; an X entry bumped by 1 fails only with the reference's
        braid messages.  The E/X relations take products of the stored
        matrices: E_s^2, E_s X_(s,0) and X_(s,0) E_s for each of the three s,
        and both sides of E_s E_t for each of the three pairs, 15 in all."""
        import wgraphs.wgraph as wgraph

        module = kl_module(systems["b3"])[0]
        stored = [*module.e.values(), *module.x.values()]
        calls = []  # whether each product multiplies a stored E or X
        real = wgraph._mul_into
        monkeypatch.setattr(wgraph, "_mul_into", lambda acc, a, b: calls.append(
            any(a is mat for mat in stored)) or real(acc, a, b))
        report = validate(module)
        assert report.ok and calls.count(False) == 9 and calls.count(True) == 15
        for s, g in sorted(module.x):
            bumped = _with_x(module, s, g, next(i for i, row in enumerate(module.x[(s, g)]) if row), 1)
            assert validate(bumped).failures == braid_relations_lmat(bumped).failures != []

    def test_coefficients_beyond_64_bits(self, systems):
        module = _conjugated(kl_module(systems["a2"])[0], 2 ** 70)
        assert max(abs(c) for mat in module.x.values() for row in mat for _, c in row) >= 2 ** 64
        assert validate(module).ok and braid_relations_lmat(module).ok
        for c in (1, 2 ** 64, -(2 ** 140)):
            s, g = min(module.x)
            bumped = _with_x(module, s, g, next(i for i, row in enumerate(module.x[(s, g)]) if row), c)
            reference = braid_relations_lmat(bumped)
            assert not reference.ok
            assert _braid_failures(validate(bumped)) == reference.failures

    @pytest.mark.parametrize("base", [3, 8, 64])
    def test_defect_that_vanishes_at_a_fixed_base(self, base):
        """A1 x A1 with L = (2, 1) on rank 2, E_s = E_t = diag(1, 0),
        X_(1,0) = -(4^b + 1) e_01 and X_(1,1) = 2^b e_01: entry (0, 1) of
        T_s T_t - T_t T_s is 2^b (v^2 + v^-2) - (4^b + 1)(v + v^-1) + 2^(b+1),
        nonzero but zero at v = 2^b, so only a width taken from the
        coefficients tells it from zero."""
        system = CoxeterSystem(((1, 2), (2, 1)), (2, 1))
        e = {0: (((0, 1),), ()), 1: (((0, 1),), ())}
        x = {(0, 0): (((1, -(4 ** base + 1)),), ()), (0, 1): (((1, 2 ** base),), ())}
        module = OmegaModule(system, {0, 1}, 2, e, x)
        defect = module.iota_t(0) @ module.iota_t(1) - module.iota_t(1) @ module.iota_t(0)
        assert not defect.is_zero() and _evaluate(defect, base, 3) == ((), ())
        assert _braid_failures(validate(module)) == braid_relations_lmat(module).failures == [
            "braid relation of length 2 fails for (1,2)"]
