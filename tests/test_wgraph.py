import pytest

from wgraphs.laurent import LaurentPoly, v
from wgraphs.matrix import LMat
from wgraphs.wgraph import (
    OmegaModule,
    edges,
    sign_module,
    to_wgraph,
    trivial_module,
    validate,
)
from wgraphs.hy import induce, p_mu_table

from oracles import dense, hecke_matrix, sparse


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
    ])
    def test_sparse_input_checked(self, systems, mat):
        with pytest.raises(ValueError):
            OmegaModule(systems["a2"], {0}, 2, {0: mat}, {})
        with pytest.raises(ValueError):
            OmegaModule(systems["a2"], {0}, 2, {}, {(0, 0): mat})


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
            to_wgraph(module)

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
        conj = module.conjugate(a2.identity, {0})
        assert conj == module

    def test_cross_conjugation(self, systems):
        a2 = systems["a2"]
        # d = st maps t back into J = {s}: d^-1 t d = s
        d = a2.element((0, 1))
        module = sign_module(a2, {0})
        conj = module.conjugate(d, {1})
        assert conj.gens == frozenset({1})
        assert dense(conj.e_mat(1), 1) == ((1,),)
        assert validate(conj).ok

    def test_conjugate_of_sign_is_sign(self, systems):
        a2 = systems["a2"]
        d = a2.element((0, 1))
        conj = sign_module(a2, {0}).conjugate(d, {1})
        assert conj == sign_module(a2, {1})

    def test_rejects_d_outside_d_j(self, systems):
        """t = d^-1 s d is read from Deodhar's zero class, which needs d in D_J."""
        a2 = systems["a2"]
        with pytest.raises(ValueError, match="not a minimal coset representative"):
            sign_module(a2, {0}).conjugate(a2.element((1, 0)), {1})

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
