import itertools
from array import array
from itertools import chain, compress
from pathlib import Path

import pytest

from wgraphs import hy
from wgraphs.cells import cell_partition, induced_cells_check
from wgraphs.coxeter import CoxeterSystem
from wgraphs.formats import load_system
from wgraphs.laurent import LaurentPoly, v
from wgraphs.matrix import LMat, _evaluate
from wgraphs.wgraph import (
    OmegaModule,
    serial_array,
    sign_module,
    to_wgraph,
    trivial_module,
    validate,
)
from wgraphs.hy import (
    PMuTable,
    _defects,
    _tower_positions,
    canonical_matrix,
    e_fix_check,
    induce,
    induce_along,
    mackey_check,
    mu_factorize_check,
    mu_inductive,
    oracle_check,
    p_mu_table,
    transitivity_check,
    verify_h_linearity,
)

from oracles import (
    block_columns,
    KLOracle,
    check_invariants_fourcase,
    compose_perms,
    defects_lmat,
    dense,
    e_fix_check_lmat,
    eval_word,
    imat_mul,
    peel,
    sparse,
    store_block,
    sym_group_generators,
    zero_classes,
)

ROOT = Path(__file__).resolve().parent.parent


class TestPValues:
    def test_diagonal_is_identity(self, systems):
        table = p_mu_table(frozenset(), trivial_module(systems["b2"], frozenset()))
        for z in table.reps:
            assert table.p[(z, z)] == LMat.identity(1)

    def test_a1_generator(self):
        a1 = CoxeterSystem(((1,),))
        table = p_mu_table(frozenset(), trivial_module(a1, frozenset()))
        assert table.p[(a1.identity, a1.generator(0))] == LMat([[v(1, -1)]])

    def test_weighted_generator(self):
        a1w = CoxeterSystem(((1,),), (3,))
        table = p_mu_table(frozenset(), trivial_module(a1w, frozenset()))
        assert table.p[(a1w.identity, a1w.generator(0))] == LMat([[v(3, -1)]])

    def test_mu_example_a2(self, systems):
        a2 = systems["a2"]
        table = p_mu_table(frozenset(), trivial_module(a2, frozenset()))
        t_elt = a2.generator(1)
        st = a2.element((0, 1))
        assert table.mu[(t_elt, st, 1)] == LMat([[LaurentPoly.one()]])

    def test_mu_vanishes_at_identity(self, systems):
        a2 = systems["a2"]
        table = p_mu_table(frozenset(), trivial_module(a2, frozenset()))
        for (x, z, s) in table.mu:
            assert not x.is_identity()

    def test_descent_choice_irrelevant(self, systems):
        for name, j in [("a3", frozenset()), ("b2", frozenset({0}))]:
            module = sign_module(systems[name], j)
            low = p_mu_table(j, module, descent_choice="min")
            high = p_mu_table(j, module, descent_choice="max")
            assert low.p == high.p and low.mu == high.mu

    def test_invariants_small_sweep(self, systems):
        cases = [
            ("a2", frozenset(), trivial_module(systems["a2"], frozenset())),
            ("a2", frozenset({0}), sign_module(systems["a2"], {0})),
            ("b2_unequal", frozenset(), trivial_module(systems["b2_unequal"], frozenset())),
            ("b2_unequal", frozenset({1}), trivial_module(systems["b2_unequal"], {1})),
        ]
        for _, j, module in cases:
            table = p_mu_table(j, module)
            report = table.check_invariants()
            assert report.ok, str(report)

    def test_oracle_on_unequal_parameters(self, systems):
        module = sign_module(systems["b2_unequal"], {0})
        assert oracle_check({0}, module).ok

    def test_oracle_failure_messages(self, systems, monkeypatch):
        """A changed, a deleted and an added direct p-block fail with the
        check's messages in (z, x) order; an added zero block is one more
        passing check."""
        import wgraphs.hy as hy

        module = trivial_module(systems["b2"], frozenset())
        real = hy.p_mu_table
        reps = real(frozenset(), module).reps
        # (x, z) by position
        changed, deleted = (0, 3), (1, 7)
        added, added_zero = (2, 1), (3, 2)  # x not below z

        def corrupted(*args, **kwargs):
            table = real(*args, **kwargs)
            store_block(table, changed, table._at((0, 3)) + LMat.identity(1))
            store_block(table, deleted, None)
            store_block(table, added, LMat.identity(1))
            store_block(table, added_zero, LMat.zeros(1))
            return table

        monkeypatch.setattr(hy, "p_mu_table", corrupted)
        report = oracle_check(frozenset(), module)
        assert report.checks == 33 + 2
        messages = {changed: "p-blocks differ", deleted: "oracle has extra nonzero entry",
                    added: "direct table has extra nonzero entry"}
        bad = sorted(messages, key=lambda key: (key[1], key[0]))
        assert report.failures == [f"{messages[x, z]} at {(reps[x], reps[z])}" for x, z in bad]


class TestBlockViews:
    """p, mu and the oracle's entries are read-only views, keyed by group
    elements, of the blocks the tables store by position."""

    @staticmethod
    def _pairs(table):
        """The Element-keyed dict of a block table's columns, z up and x down."""
        reps = table.reps
        return {(reps[x], reps[z]): table.values[col[x]] for z, col in enumerate(table.cols)
                for x in range(len(col) - 1, -1, -1) if col[x]}

    @classmethod
    def _element_dicts(cls, table):
        """The Element-keyed dicts the recursion used to fill: p(x, z) for z
        up, the diagonal first and then x down; mu in the order found."""
        reps = table.reps
        mu = {(reps[x], reps[z], s): mat for (x, z, s), mat in table.mu_pos.items()}
        return cls._pairs(table), mu

    @classmethod
    def _views(cls, table, j, module):
        """(view, the Element dict it must equal) for p, mu, rho and pi."""
        from wgraphs.canon import pi_recursion, rho_table

        rho = rho_table(j, module)
        pi = pi_recursion(rho)
        p, mu = cls._element_dicts(table)
        return [(table.p, p), (table.mu, mu), (rho.entries, cls._pairs(rho)),
                (pi.entries, cls._pairs(pi))]

    @pytest.mark.parametrize("name,j,make", [("b3", frozenset(), trivial_module),
                                             ("b3", frozenset({0}), sign_module),
                                             ("b2_unequal", frozenset({1}), trivial_module)])
    def test_views_equal_the_element_dicts(self, systems, name, j, make):
        from oracles import rho_expanded

        module = make(systems[name], j)
        table = p_mu_table(j, module)
        views = self._views(table, j, module)
        (_, p), (_, mu), (rho, rho_dict), (pi, pi_dict) = views
        assert pi == p == table.p and table.p == pi and pi_dict == p  # the oracle's pairs
        assert rho == rho_dict == rho_expanded(j, module)
        assert dict(mu_inductive([j, systems[name].generator_set], module)) == mu
        for view, want in views:
            assert view == want and len(view) == len(want) and list(view) == list(want)
            assert list(view.items()) == list(want.items())
            assert list(view.values()) == list(want.values())
            assert all(view[key] is mat and key in view for key, mat in want.items())
        # what the benchmark's recorder reads
        zero = LMat.zeros(module.rank)
        keys = set(table.p) | set(pi)
        assert all(table.p.get(k, zero) == pi.get(k, zero) for k in keys)
        top, outside = table.reps[-1], systems[name].generator(min(j)) if j else None
        assert table.p.get((top, table.reps[0])) is None  # x not below z
        assert table.mu.get((top, top, 0)) is None
        assert rho.get((top, table.reps[0])) is None and pi.get((top, table.reps[0])) is None
        if outside is not None:  # not a representative
            assert (outside, top) not in table.p and table.p.get((outside, top)) is None
            assert (outside, top) not in rho and (outside, top) not in pi

    def test_views_are_read_only(self, systems):
        module = trivial_module(systems["a2"], frozenset())
        table = p_mu_table(frozenset(), module)
        views = self._views(table, frozenset(), module)
        for view, _ in views:
            key = next(iter(view))
            with pytest.raises(TypeError):
                view[key] = table.zero
            with pytest.raises(TypeError):
                del view[key]
        assert all(dict(view) == want for view, want in views)

    def test_views_iterate_without_hashing(self, systems, monkeypatch):
        """Iterating a view, its items or its values, and taking its length,
        read the position storage: only a lookup hashes group elements."""
        from wgraphs.coxeter import Element

        module = trivial_module(systems["b3"], frozenset())
        views = self._views(p_mu_table(frozenset(), module), frozenset(), module)
        calls = []
        real = Element.__hash__

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(Element, "__hash__", counted)
        for view, expected in views:
            assert len(view) == len(expected) and len(view.items()) == len(expected)
            assert list(view) == list(expected)
            assert list(view.items()) == list(expected.items())
            assert list(view.values()) == list(expected.values())
        assert not calls
        for view, expected in views:
            key = next(iter(expected))
            calls.clear()
            assert view[key] is expected[key] and (key, expected[key]) in view.items() and calls

    def test_table_writer_hashes_no_element(self, monkeypatch):
        """Regular D4: the recursion, induce and the table writer hash group
        elements only to index the representatives once, and the writer
        shares equal p-blocks without hashing a Laurent matrix."""
        from wgraphs.coxeter import Element
        from wgraphs.formats import dumps, table_to_json

        system = load_system(str(ROOT / "perfbench/systems/d4.json"))
        module = trivial_module(system, frozenset())
        calls = []
        real = Element.__hash__

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(Element, "__hash__", counted)
        table = p_mu_table(frozenset(), module)
        induce(frozenset(), module, table)
        lmat_hashes = []
        real_lmat = LMat.__hash__

        def counted_lmat(self):
            lmat_hashes.append(1)
            return real_lmat(self)

        monkeypatch.setattr(LMat, "__hash__", counted_lmat)
        doc = table_to_json(table)
        assert not lmat_hashes
        text = dumps(doc)
        assert len(calls) <= len(table.reps) == 192
        assert text.count("|") == 9817 + 2 * len(table.mu_pos)

    def test_oracle_route_hashes_no_pair(self, monkeypatch):
        """Regular D4: rho, pi and the comparison are stored, solved and
        compared by position, so oracle_check hashes group elements at
        most twice per representative."""
        from wgraphs.coxeter import Element

        module = trivial_module(load_system(str(ROOT / "perfbench/systems/d4.json")), frozenset())
        calls = []
        real = Element.__hash__

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(Element, "__hash__", counted)
        report = oracle_check(frozenset(), module)
        assert report.summary().endswith("ok [9817 checks]")
        assert len(calls) <= 2 * 192


class TestInduce:
    def test_full_j_is_identity(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0, 1})
        table = p_mu_table({0, 1}, module)
        assert induce({0, 1}, module, table) == module

    def test_a2_sign_labels(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        table = p_mu_table({0}, module)
        induced = induce({0}, module, table)
        assert induced.rank == 3
        labels = [induced.vertex_label(i) for i in range(3)]
        assert labels == [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        assert validate(induced).ok

    def test_regular_graph_rank(self, systems):
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        table = p_mu_table(frozenset(), module)
        induced = induce(frozenset(), module, table)
        assert induced.rank == 6
        assert validate(induced).ok

    def test_mismatched_table(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        table = p_mu_table({0}, module)
        with pytest.raises(ValueError):
            induce({0}, trivial_module(a2, {0}), table)

    def test_carry_edges_present(self, systems):
        """Length-increasing carries are weight-1 entries at exponent 0."""
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        table = p_mu_table(frozenset(), module)
        induced = induce(frozenset(), module, table)
        index = {w: i for i, w in enumerate(table.reps)}
        for zi, z in enumerate(table.reps):
            for s in range(2):
                sz = a2.mult(a2.generator(s), z)
                if sz.length > z.length:
                    assert dense(induced.x_mat(s, 0), induced.rank)[index[sz]][zi] == 1


class TestCanonicalMatrix:
    def test_a1_matrix(self):
        a1 = CoxeterSystem(((1,),))
        module = trivial_module(a1, frozenset())
        table = p_mu_table(frozenset(), module)
        cmat = canonical_matrix(frozenset(), module, table)
        assert cmat == LMat([[1, v(1, -1)], [0, 1]])

    def test_unitriangular(self, systems):
        b2 = systems["b2"]
        module = trivial_module(b2, frozenset())
        table = p_mu_table(frozenset(), module)
        cmat = canonical_matrix(frozenset(), module, table)
        n = cmat.nrows
        for i in range(n):
            assert cmat[i, i] == LaurentPoly.one()
            for j in range(i):
                assert cmat[i, j].is_zero()

    def test_full_j_identity(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0, 1})
        table = p_mu_table({0, 1}, module)
        assert canonical_matrix({0, 1}, module, table) == LMat.identity(1)


class TestHLinearity:
    @pytest.mark.parametrize(
        "name,j,builder",
        [
            ("a2", frozenset(), trivial_module),
            ("a2", frozenset({0}), sign_module),
            ("a2", frozenset({0}), trivial_module),
            ("b2", frozenset({0}), trivial_module),
            ("b2_unequal", frozenset({0}), sign_module),
        ],
    )
    def test_passes(self, systems, name, j, builder):
        system = systems[name]
        report = verify_h_linearity(j, builder(system, j))
        assert report.ok, str(report)


class TestIntertwiningDefect:
    """The recurrence verdicts of check_invariants and the per-generator
    verdicts of verify_h_linearity come from one intertwining defect; the
    four-case loop of ``oracles.check_invariants_fourcase`` is the reference."""

    CASES = [("perfbench/systems/b3_211.json", frozenset(), trivial_module),
             ("perfbench/systems/a4.json", frozenset({0}), sign_module),
             ("systems/b2_unequal.json", frozenset(), trivial_module)]

    @staticmethod
    def _clean(path, j, make):
        system = load_system(str(ROOT / path))
        module = make(system, j)
        return module, p_mu_table(j, module)

    @staticmethod
    def _corrupted(table):
        """(name, x of the changed block, table) for a changed, a deleted and an
        added p-block, the last at x not below z, and a changed mu-block."""
        reps = table.reps
        classes, _ = table.arrays
        bits = table.system.bruhat_ideals(reps, table.gens, table.ambient)
        # keys by position, (x, z) and (x, z, s)
        off = sorted((k for k, _ in table.pos_items() if k[0] != k[1]), key=lambda k: (k[1], k[0]))
        one = LMat.identity(table.module.rank)
        stray = (len(reps) - 1, 1)  # the longest representative is below no other
        assert not bits[1] >> len(reps) - 1 & 1
        mu_key = next(k for k in sorted(table.mu_pos, key=lambda k: (k[2], k[1], k[0]))
                      if classes[k[2]][k[0]].tag == "minus"
                      and classes[k[2]][k[1]].tag == "plus")
        changed, deleted = off[len(off) // 2], off[len(off) // 3]
        out = []
        for name, key in [("changed", changed), ("deleted", deleted), ("added", stray),
                          ("mu", mu_key)]:
            copy = PMuTable(table.system, table.gens, table.ambient, table.module, reps,
                            [col[:] for col in table.cols], list(table.values),
                            dict(table.mu_pos), table.arrays)
            if name == "changed":
                store_block(copy, key, copy._at(key) + one.scale(v(1)))
            elif name == "deleted":
                store_block(copy, key, None)
            elif name == "added":
                store_block(copy, key, one.scale(v(1)))
            else:  # in range, bar-symmetric, away from the zero classes
                copy.mu_pos[key] = copy.mu_pos[key] + one
            out.append((name, str(reps[key[0]]), copy))
        return out

    @pytest.mark.parametrize("path,j,make", CASES)
    def test_clean(self, path, j, make):
        module, table = self._clean(path, j, make)
        reference = check_invariants_fourcase(table)
        assert reference.ok and reference.checks == len(table.reps) ** 2 * len(table.ambient)
        report = table.check_invariants()
        assert report.ok and report.checks > reference.checks
        assert verify_h_linearity(j, module, table).ok

    @pytest.mark.parametrize("path,j,make", CASES)
    def test_corruptions(self, path, j, make):
        module, table = self._clean(path, j, make)
        for name, x, copy in self._corrupted(table):
            report = copy.check_invariants()
            assert not report.ok, name
            found = [m for m in report.failures if m.startswith("recurrence fails")]
            assert found == report.failures, name  # the structural checks pass
            reference = check_invariants_fourcase(copy).failures
            assert reference
            rest = iter(found)
            assert all(m in rest for m in reference), name  # in the reference's order
            if name == "added":
                # the reference's sums over y skip p(x, y) with x not below y
                assert all(m.startswith(f"recurrence fails at (x={x},")
                           for m in found if m not in reference)
            else:
                assert found == reference, name
            gens = sorted({int(m.rsplit("s=", 1)[1][:-1]) - 1 for m in found})
            assert {int(m.rsplit("s=", 1)[1][:-1]) - 1 for m in reference} <= set(gens)
            h_lin = verify_h_linearity(j, module, copy)
            assert h_lin.checks == len(table.ambient)
            assert h_lin.failures == [f"c(C_{s+1} . ) != C_{s+1} c( . )" for s in gens], name

    def test_induce_stays_under_the_check(self, monkeypatch):
        """A carry entry of the induced module flipped from 1 to -1 fails
        verify_h_linearity at that generator."""
        import wgraphs.hy as hy

        module, table = self._clean(*self.CASES[0])
        s = min(table.ambient)
        classes, shifted = table.arrays
        assert classes[s][0].tag == "plus"
        real = hy.induce

        def flipped(*args):
            induced = real(*args)
            x = dict(induced.x)
            rows = list(x[(s, 0)])
            rows[shifted[s][0]] = tuple((j, -c if j == 0 else c)
                                        for j, c in rows[shifted[s][0]])
            x[(s, 0)] = tuple(rows)
            return OmegaModule(induced.system, induced.gens, induced.rank, induced.e, x)

        monkeypatch.setattr(hy, "induce", flipped)
        report = verify_h_linearity(frozenset(), module, table)
        assert report.failures == [f"c(C_{s+1} . ) != C_{s+1} c( . )"]

    def test_mu_exponent_out_of_range(self, systems):
        """induce refuses a mu-block with an exponent outside (-L(s), L(s))."""
        module = trivial_module(systems["a2"], frozenset())
        table = p_mu_table(frozenset(), module)
        xi, zi, s = key = sorted(table.mu_pos)[0]
        x, z = table.reps[xi], table.reps[zi]
        table.mu_pos[key] = LMat([[v(1) + v(-1)]])
        with pytest.raises(ValueError, match=rf"mu\({x},{z},s={s+1}\) has exponents "
                                             r"outside \(-1,1\)"):
            induce(frozenset(), module, table)
        report = table.check_invariants()  # the range check comes first; no recurrence
        assert report.failures == [f"mu({x},{z},s={s+1}) has exponents outside (-1,1)"]

    @pytest.mark.parametrize("mutation,message", [
        ("diagonal", "p(12,12) is not the identity"),
        ("support", "p(e,12) has non-positive support"),
        ("mu", "mu(1,2,s=1) stored outside its support condition"),
    ])
    def test_structural_messages(self, systems, mutation, message):
        """Each structural check of regular A2, broken alone, fails with its message."""
        table = p_mu_table(frozenset(), trivial_module(systems["a2"], frozenset()))
        pos = {str(w): i for i, w in enumerate(table.reps)}
        one = LMat.identity(1)
        if mutation == "diagonal":
            copy = _copy_with_p(table, (pos["12"], pos["12"]), one.scale(LaurentPoly({0: 2})))
        elif mutation == "support":
            copy = _copy_with_p(table, (pos["e"], pos["12"]), one)
        else:
            copy = _copy_with_p(table, (0, 0), one)  # p(e,e) is 1 already: a plain copy
            copy.mu_pos[(pos["1"], pos["2"], 0)] = one
        report = copy.check_invariants()
        assert not report.ok and report.failures == [message]

    def test_ball_raises(self):
        """On a ball of an infinite group s*x can leave the ball, so the
        induced module and with it the recurrence are not defined there."""
        system = load_system(str(ROOT / "systems/affine_a1.json"))
        module = trivial_module(system, frozenset())
        table = p_mu_table(frozenset(), module, max_length=4)
        with pytest.raises(ValueError, match=r"carry target s\*x for s=1 and x=2121 is not among"):
            table.check_invariants()


def _copy_with_p(table, key, mat):
    """A copy of ``table`` with p-block ``mat`` at position ``key``."""
    copy = PMuTable(table.system, table.gens, table.ambient, table.module, table.reps,
                    [col[:] for col in table.cols], list(table.values), dict(table.mu_pos),
                    table.arrays)
    store_block(copy, key, mat)
    return copy


class TestDefectReference:
    """``hy._defects``, decided by integer products, against
    ``oracles.defects_lmat``, the same defect from n x n Laurent-matrix
    products: the same (z, x) lists for every s."""

    @staticmethod
    def _a4_rank_12():
        """A4, K = {1,2,3}, on the rank-12 module induced from J = {1} sign:
        zero classes and rank > 1."""
        system = load_system(str(ROOT / "perfbench/systems/a4.json"))
        inner = sign_module(system, {0})
        k = frozenset({0, 1, 2})
        module = induce({0}, inner, p_mu_table({0}, inner, k))
        return k, module, p_mu_table(k, module)

    @pytest.mark.parametrize("path,j,make", TestIntertwiningDefect.CASES)
    def test_cases_and_corruptions(self, path, j, make):
        module, table = TestIntertwiningDefect._clean(path, j, make)
        expected = defects_lmat(j, module, table)
        assert _defects(j, module, table) == expected and not any(expected.values())
        for name, _, copy in TestIntertwiningDefect._corrupted(table):
            expected = defects_lmat(j, module, copy)
            assert _defects(j, module, copy) == expected and any(expected.values()), name

    def test_induced_module_with_zero_classes(self):
        k, module, table = self._a4_rank_12()
        assert module.rank == 12
        classes, _ = table.arrays
        assert any(c.tag == "zero" for row in classes.values() for c in row)
        expected = defects_lmat(k, module, table)
        assert _defects(k, module, table) == expected and not any(expected.values())
        key = next(key for key, _ in table.pos_items() if key[0] != key[1])  # and one changed
        copy = _copy_with_p(table, key, table._at(key)
                            + LMat.identity(12).scale(v(1)))
        expected = defects_lmat(k, module, copy)
        assert _defects(k, module, copy) == expected and any(expected.values())

    @pytest.mark.parametrize("path,j,make", [("perfbench/systems/h3.json", {0, 1}, sign_module),
                                             ("systems/b2_unequal.json", {0}, trivial_module)])
    def test_parabolic_modules(self, path, j, make):
        system = load_system(str(ROOT / path))
        module = make(system, frozenset(j))
        table = p_mu_table(j, module)
        expected = defects_lmat(j, module, table)
        assert _defects(j, module, table) == expected and not any(expected.values())

    def test_wide_coefficient(self):
        """A p-block with a coefficient of 2^70: the width comes from it."""
        module, table = TestIntertwiningDefect._clean(*TestIntertwiningDefect.CASES[0])
        key = next(k for k, _ in table.pos_items() if k[0] != k[1])
        bump = LMat.identity(1).scale(LaurentPoly({2: 2 ** 70}))
        copy = _copy_with_p(table, key, table._at(key) + bump)
        expected = defects_lmat(frozenset(), module, copy)
        assert _defects(frozenset(), module, copy) == expected and any(expected.values())

    @staticmethod
    def _a1_defects(g):
        """Both defects of A1 (trivial module) with p(e, s) = -v + g: the
        blocks of D_s are -g, g/v and g, nonzero for g != 0."""
        module = trivial_module(CoxeterSystem(((1,),)), frozenset())
        table = p_mu_table(frozenset(), module)
        copy = _copy_with_p(table, (0, 1), table._at((0, 1)) + g)
        return _defects(frozenset(), module, copy), defects_lmat(frozenset(), module, copy)

    @pytest.mark.parametrize("base", [3, 8, 64])
    def test_defect_that_vanishes_at_a_fixed_base(self, base):
        """g = v^2 - 2^b v is zero at v = 2^b, so only a width taken from the
        coefficients tells the defect from zero."""
        g = LMat([[LaurentPoly({2: 1, 1: -2 ** base})]])
        assert _evaluate(g, base, 0) == ((),)
        found, expected = self._a1_defects(g)
        assert found == expected == {0: [(0, 0), (1, 0), (1, 1)]}

    def test_negative_exponent(self):
        """g = v^-2: P has an exponent below 0 and is shifted before it is
        evaluated."""
        found, expected = self._a1_defects(LMat([[v(-2)]]))
        assert found == expected == {0: [(0, 0), (1, 0), (1, 1)]}

    @pytest.mark.parametrize("case", ["b3_211", "a4-rank-12"])
    def test_no_laurent_arithmetic(self, case, monkeypatch):
        """With T_u on the module computed beforehand, the defect makes no
        Laurent-matrix product, sum or scaling and no kernel call."""
        import wgraphs.hy as hy

        if case == "b3_211":
            j = frozenset()
            module, table = TestIntertwiningDefect._clean(*TestIntertwiningDefect.CASES[0])
        else:
            j, module, table = self._a4_rank_12()
        expected = defects_lmat(j, module, table)
        for u in module.gens:
            module.iota_t(u)

        def refuse(*args, **kwargs):
            raise AssertionError("Laurent-matrix arithmetic in _defects")

        for name in ("__matmul__", "__add__", "__sub__", "scale"):
            monkeypatch.setattr(LMat, name, refuse)
        monkeypatch.setattr(hy, "_dot", refuse)
        assert hy._defects(j, module, table) == expected


class TestFunctoriality:
    def test_scalar_map_commutes(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        table = p_mu_table({0}, module)
        induced = induce({0}, module, table)
        # multiplication by 2 on every block commutes with everything
        n = induced.rank
        doubled = sparse(tuple(2 * x for x in row) for row in dense(induced.e_mat(0), n))
        assert doubled == imat_mul(induced.e_mat(0), sparse(((2, 0, 0), (0, 2, 0), (0, 0, 2))))

    def test_projection_map_commutes(self, systems):
        """The projection (sign + trivial) -> sign induces a module map."""
        a2 = systems["a2"]
        j = frozenset({0})
        summed = OmegaModule(a2, j, 2, {0: sparse(((1, 0), (0, 0)))}, {})
        sign = sign_module(a2, j)
        t_sum = p_mu_table(j, summed)
        t_sign = p_mu_table(j, sign)
        ind_sum = induce(j, summed, t_sum)
        ind_sign = induce(j, sign, t_sign)
        reps = t_sum.reps
        phi = [[0] * (2 * len(reps)) for _ in range(len(reps))]
        for i in range(len(reps)):
            phi[i][2 * i] = 1
        phi = sparse(phi)
        for s in range(2):
            assert imat_mul(phi, ind_sum.e_mat(s)) == imat_mul(ind_sign.e_mat(s), phi)
            for g in range(a2.weight(s)):
                assert imat_mul(phi, ind_sum.x_mat(s, g)) == imat_mul(
                    ind_sign.x_mat(s, g), phi
                )


class TestTransitivity:
    def test_degenerate_flags(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        assert transitivity_check({0}, {0}, module).ok
        assert transitivity_check({0}, {0, 1}, module).ok

    @pytest.mark.parametrize("name", ["a2", "a3"])
    def test_through_first_generator(self, systems, name):
        module = trivial_module(systems[name], frozenset())
        report = transitivity_check(frozenset(), frozenset({0}), module)
        assert report.ok, str(report)

    def test_higher_rank_module(self, systems):
        a2 = systems["a2"]
        summed = OmegaModule(a2, {0}, 2, {0: sparse(((1, 0), (0, 0)))}, {})
        report = transitivity_check({0}, {0, 1}, summed)
        assert report.ok, str(report)

    @pytest.mark.parametrize("k", [{0}, {0, 1}])
    def test_check_count_a3(self, systems, k):
        """One check per E_s and per X_(s,g)."""
        report = transitivity_check({0}, k, sign_module(systems["a3"], {0}))
        assert report.ok and report.checks == 7, str(report)

    def test_one_listing_per_table(self, monkeypatch):
        """A4, J = {1}, K = {1,2,3}, sign: the listings of the two levels and
        of the direct table are built once each, and the walk to D_J reads
        the direct table's arrays."""
        system = CoxeterSystem(A4)
        J, K, S = frozenset({0}), frozenset({0, 1, 2}), system.generator_set
        calls, real = [], CoxeterSystem.coset_listing

        def counted(self, J, K=None, max_length=None):
            calls.append((frozenset(J), self.generator_set if K is None else frozenset(K)))
            return real(self, J, K, max_length)

        monkeypatch.setattr(CoxeterSystem, "coset_listing", counted)
        report = transitivity_check(J, K, sign_module(system, J))
        assert str(report) == "transitivity through K=[1, 2, 3]: ok [9 checks]"
        assert calls == [(J, K), (K, S), (J, S)]

    @pytest.mark.parametrize("path,checks", [("systems/a3.json", 378),
                                             ("perfbench/systems/b3_211.json", 432),
                                             ("perfbench/systems/i2_8_13.json", 126)])
    def test_every_pair_of_subsets(self, path, checks):
        """Every J <= K with the sign and trivial modules: the nested induction
        is the direct one cut to the walked order, with pinned check totals."""
        system = load_system(str(ROOT / path))
        subsets = [frozenset(c) for size in range(system.rank + 1)
                   for c in itertools.combinations(range(system.rank), size)]
        total = 0
        for J, K in itertools.product(subsets, repeat=2):
            for make in (sign_module, trivial_module):
                if J <= K:
                    report = transitivity_check(J, K, make(system, J))
                    assert report.ok, str(report)
                    total += report.checks
        assert total == checks

    @pytest.mark.parametrize("J,K,s,make,failures", [
        ({0}, {0, 1}, 1, sign_module, ["X_(2,0) differs between nested and direct induction"]),
        ((), {0, 1}, 0, trivial_module, ["X_(1,0) differs between nested and direct induction"]),
    ])
    def test_doubled_entry_of_direct_module(self, systems, monkeypatch, J, K, s, make, failures):
        """A3: one X entry of the direct module doubled fails exactly its matrix."""
        J = frozenset(J)
        _double_in_direct_module(monkeypatch, systems["a3"], J, s, ends=(0,))
        report = transitivity_check(J, K, make(systems["a3"], J))
        assert report.failures == failures and report.checks == 7


TOWER_SYSTEMS = ["systems/a3.json", "systems/b3.json", "perfbench/systems/h3.json",
                 "perfbench/systems/b3_211.json", "perfbench/systems/i2_8_13.json"]


class TestInduceAlong:
    """The tower {} <= K <= S through a maximal parabolic K gives the regular
    W-graph of W, relabelled by its positions."""

    @pytest.mark.parametrize("path,drop", [(path, s) for path in TOWER_SYSTEMS
                                           for s in range(load_system(str(ROOT / path)).rank)])
    def test_one_step_tower_cells(self, path, drop):
        system = load_system(str(ROOT / path))
        regular = trivial_module(system, frozenset())
        direct = p_mu_table(frozenset(), regular)
        names = [str(w) for w in direct.reps]
        want = {frozenset(names[v] for v in block)
                for block in cell_partition(induce(frozenset(), regular, direct)).blocks}
        K = system.generator_set - {drop}
        tables = induce_along([(), K, system.generator_set], regular)
        assert [t.ambient for t in tables] == [K, system.generator_set]
        top = induce(K, tables[-1].module, tables[-1])
        at = _tower_positions([t.reps for t in tables], system.coset_listing(())[1])
        assert sorted(at) == list(range(len(names)))  # a bijection onto D_{}
        assert {frozenset(names[at[v]] for v in block)
                for block in cell_partition(top).blocks} == want

    def test_chain_is_validated(self, systems):
        regular = trivial_module(systems["a3"], frozenset())
        with pytest.raises(ValueError, match="start at the module's generator subset"):
            induce_along([{0}, {0, 1}], regular)
        with pytest.raises(ValueError, match="contain the one before"):
            induce_along([(), {0, 1}, {1}], regular)


class TestMackey:
    def test_k_full_single_coset(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        report = mackey_check({0}, {0, 1}, module)
        assert report.ok, str(report)

    @pytest.mark.parametrize("name", ["a2", "b2"])
    def test_k_equals_j(self, systems, name):
        module = sign_module(systems[name], {0})
        report = mackey_check({0}, {0}, module)
        assert report.ok, str(report)

    def test_empty_j(self, systems):
        module = trivial_module(systems["a2"], frozenset())
        report = mackey_check(frozenset(), {1}, module)
        assert report.ok, str(report)

    def test_higher_rank_module(self, systems):
        a2 = systems["a2"]
        summed = OmegaModule(a2, {0}, 2, {0: sparse(((1, 0), (0, 0)))}, {})
        report = mackey_check({0}, {0}, summed)
        assert report.ok, str(report)

    def test_a3_mixed_subsets(self, systems):
        module = sign_module(systems["a3"], {0})
        report = mackey_check({0}, {1, 2}, module)
        assert report.ok, str(report)

    @pytest.mark.parametrize("k,checks", [({0}, 28), ({1, 2}, 24), ({0, 1}, 24)])
    def test_check_count_a3(self, systems, k, checks):
        report = mackey_check({0}, k, sign_module(systems["a3"], {0}))
        assert report.ok and report.checks == checks, str(report)

    @pytest.mark.parametrize("path,checks", [("systems/a3.json", 2304),
                                             ("perfbench/systems/b3_211.json", 4544),
                                             ("perfbench/systems/h3.json", 8496),
                                             ("perfbench/systems/i2_8_13.json", 528)])
    def test_every_pair_of_subsets(self, path, checks):
        """Every (J, K) with the sign and trivial modules: the parts stripped
        by position give a filtration whose check totals are pinned."""
        system = load_system(str(ROOT / path))
        subsets = [frozenset(c) for size in range(system.rank + 1)
                   for c in itertools.combinations(range(system.rank), size)]
        total = 0
        for J, K in itertools.product(subsets, repeat=2):
            for make in (sign_module, trivial_module):
                report = mackey_check(J, K, make(system, J))
                assert report.ok, str(report)
                total += report.checks
        assert total == checks

    @pytest.mark.parametrize("J,K,s,make,first,failures,checks", [
        ({0}, {1, 2}, 1, sign_module, True, ["subquotient at d=e: X_(2,0) mismatch"], 24),
        ({0}, {1, 2}, 1, sign_module, False, ["subquotient at d=123: X_(2,0) mismatch"], 24),
        ((), {0, 1}, 0, trivial_module, False, ["subquotient at d=321: X_(1,0) mismatch"], 32),
    ])
    def test_doubled_entry_inside_a_slice(self, systems, monkeypatch, J, K, s, make, first,
                                          failures, checks):
        """A3: one X entry inside a double coset's slice doubled fails that
        slice's matrix alone; the later slices are still compared."""
        J = frozenset(J)
        _double_in_direct_module(monkeypatch, systems["a3"], J, s, (0,) if first else (-1,))
        report = mackey_check(J, K, make(systems["a3"], J))
        assert report.failures == failures and report.checks == checks

    def test_doubled_entries_in_two_slices(self, systems, monkeypatch):
        """A3, J = {1}, K = {2,3}: a failure at d = e does not hide the one at
        d = 123; each double coset is compared on its own."""
        J = frozenset({0})
        _double_in_direct_module(monkeypatch, systems["a3"], J, 1, (0, -1))
        report = mackey_check(J, {1, 2}, sign_module(systems["a3"], J))
        assert report.failures == ["subquotient at d=e: X_(2,0) mismatch",
                                   "subquotient at d=123: X_(2,0) mismatch"]
        assert report.checks == 24


def _double_in_direct_module(monkeypatch, system, J, s, ends):
    """Make ``induce`` of J inside all of W double entries of X_(s,0): for
    ``ends`` 0 the first of its first nonzero row, for -1 the last of its last."""
    real = induce

    def doubled(gens, module, table):
        out = real(gens, module, table)
        if table.gens != J or table.ambient != system.generator_set:
            return out
        rows = list(out.x[(s, 0)])
        for end in ends:
            i = [i for i, row in enumerate(rows) if row][end]
            j, c = rows[i][end]
            rows[i] = tuple((k, 2 * c if k == j else d) for k, d in rows[i])
        return OmegaModule(system, out.gens, out.rank, out.e, {**out.x, (s, 0): tuple(rows)})

    monkeypatch.setattr(hy, "induce", doubled)


def transport(system, d, inner):
    """The mu-blocks of ``inner`` moved along (y, w) -> (yd, wd)."""
    return {
        (system.mult(y, d), system.mult(w, d), s): mat
        for (y, w, s), mat in inner.mu.items()
    }


class TestMackeyHeadStart:
    """Inner mu-blocks over K n dJd^-1, transported along (y, w) -> (yd, wd),
    are entries of the direct table."""

    def test_identity_coset(self, systems):
        a2 = systems["a2"]
        module = sign_module(a2, {0})
        table = p_mu_table({0}, module)
        assert transport(a2, a2.identity, table) == dict(table.mu)

    def test_nontrivial_cosets_a3(self, systems):
        a3 = systems["a3"]
        K, J = frozenset({1, 2}), frozenset({0})
        module = sign_module(a3, J)
        direct = p_mu_table(J, module)
        nontrivial = 0
        for d in a3.min_coset_reps(J):
            if a3.left_descents(d) & K:  # not a double coset representative
                continue
            conj = module.conjugate(zero_classes(a3, J, K, d))
            inner = p_mu_table(conj.gens, conj, ambient=K)
            predicted = transport(a3, d, inner)
            for key, mat in predicted.items():
                assert direct.mu.get(key, direct.zero) == mat
            if predicted and not d.is_identity():
                nontrivial += 1
        assert nontrivial  # the transported entries actually exercised something

    def test_partiality(self, systems):
        """Only pairs of the form (yd, wd) receive a prediction."""
        a3 = systems["a3"]
        K, J = frozenset({1, 2}), frozenset({0})
        module = sign_module(a3, J)
        direct = p_mu_table(J, module)
        d = a3.element((0, 1))
        conj = module.conjugate(zero_classes(a3, J, K, d))
        inner = p_mu_table(conj.gens, conj, ambient=K)
        predicted = transport(a3, d, inner)
        assert predicted
        for (x, z, s), mat in predicted.items():
            _, a1 = peel(a3, J, K, x, left=True)
            _, a2 = peel(a3, J, K, z, left=True)
            assert a1 == d and a2 == d
            assert direct.mu.get((x, z, s), direct.zero) == mat


class TestMuFactorize:
    @pytest.mark.parametrize("name,j,k", [("a2", frozenset(), frozenset({0})),
                                          ("a3", frozenset(), frozenset({0})),
                                          ("a3", frozenset({0}), frozenset({0, 1}))])
    def test_corollary(self, systems, name, j, k):
        system = systems[name]
        # at J = {1}, also sign + trivial: the level blocks split into 2 x 2 sub-blocks
        modules = [trivial_module(system, j)] if not j else [
            sign_module(system, j), OmegaModule(system, j, 2, {0: sparse(((1, 0), (0, 0)))}, {})]
        for module in modules:
            table_js = p_mu_table(j, module)
            table_jk = p_mu_table(j, module, ambient=k)
            inner = induce(j, module, table_jk)
            table_ks = p_mu_table(k, inner)
            report = mu_factorize_check(j, k, table_js, table_jk, table_ks)
            assert report.ok, str(report)

    @staticmethod
    def a3_tables(systems):
        a3 = systems["a3"]
        j, k = frozenset({0}), frozenset({0, 1})
        module = sign_module(a3, j)
        table_js = p_mu_table(j, module)
        table_jk = p_mu_table(j, module, ambient=k)
        table_ks = p_mu_table(k, induce(j, module, table_jk))
        return j, k, table_js, table_jk, table_ks

    def test_one_check_per_triple(self, systems):
        j, k, table_js, table_jk, table_ks = self.a3_tables(systems)
        report = mu_factorize_check(j, k, table_js, table_jk, table_ks)
        assert report.ok, str(report)
        assert report.checks == len(table_js.reps) ** 2 * len(table_js.ambient) == 432

    def test_missing_direct_entry_fails(self, systems):
        j, k, table_js, table_jk, table_ks = self.a3_tables(systems)
        del table_js.mu_pos[next(iter(table_js.mu_pos))]
        assert not mu_factorize_check(j, k, table_js, table_jk, table_ks).ok

    def test_failure_messages(self, systems):
        """A changed, a deleted and an added direct entry fail with the check's
        messages in (z, w, s) order, among the same 432 checks."""
        j, k, table_js, table_jk, table_ks = self.a3_tables(systems)
        reps, mu = table_js.reps, table_js.mu_pos
        changed, deleted = list(mu)[:2]  # (w, z, s) by position
        added = (3, 3, 1)  # mu is never stored on the diagonal
        mu[changed] = mu[changed] + mu[changed]
        del mu[deleted]
        mu[added] = LMat.identity(1)
        bad = sorted([changed, deleted, added], key=lambda t: (t[1], t[0], t[2]))
        report = mu_factorize_check(j, k, table_js, table_jk, table_ks)
        assert report.checks == 432
        assert report.failures == [f"mu({reps[w]},{reps[z]},s={s+1}) does not factor through K"
                                   for w, z, s in bad]

    def test_tables_must_form_the_tower(self, systems):
        j, k, table_js, table_jk, table_ks = self.a3_tables(systems)
        with pytest.raises(ValueError, match="need the tables"):
            mu_factorize_check(j, frozenset({0, 2}), table_js, table_jk, table_ks)
        with pytest.raises(ValueError, match="need the tables"):
            mu_factorize_check(j, k, table_js, table_ks, table_jk)
        sign_k = p_mu_table(k, sign_module(systems["a3"], k))  # rank 1, not 3
        with pytest.raises(ValueError, match="not computed on the induced module"):
            mu_factorize_check(j, k, table_js, table_jk, sign_k)

    def test_doubled_level_entry_fails(self, systems):
        j, k, table_js, table_jk, table_ks = self.a3_tables(systems)
        key = next(iter(table_ks.mu_pos))
        table_ks.mu_pos[key] = table_ks.mu_pos[key] + table_ks.mu_pos[key]
        assert not mu_factorize_check(j, k, table_js, table_jk, table_ks).ok


@pytest.fixture()
def table_calls(monkeypatch):
    """Record (J, ambient, system) of every p_mu_table call made by the flag
    loop, and every CoxeterSystem built meanwhile."""
    import wgraphs.hy as hy

    calls, built = [], []
    real_table, real_init = hy.p_mu_table, CoxeterSystem.__init__

    def counting_table(J, module, ambient=None, **kwargs):
        calls.append((frozenset(J), frozenset(ambient), module.system))
        return real_table(J, module, ambient, **kwargs)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(hy, "p_mu_table", counting_table)
    monkeypatch.setattr(CoxeterSystem, "__init__", counting_init)
    return calls, built


class TestMuInductive:
    def test_degenerate_flag(self, systems):
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        direct = p_mu_table(frozenset(), module)
        flagged = mu_inductive([frozenset(), a2.generator_set], module)
        assert flagged == direct.mu

    @pytest.mark.parametrize(
        "name,flag",
        [
            ("a3", [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]),
            ("b2", [frozenset(), frozenset({0}), frozenset({0, 1})]),
            ("b2_unequal", [frozenset(), frozenset({1}), frozenset({0, 1})]),
            ("b3", [frozenset({1}), frozenset({0, 1}), frozenset({0, 1, 2})]),
        ],
    )
    def test_matches_direct(self, systems, name, flag):
        """Trivial module at J = {}, sign module at a nonempty J."""
        system = systems[name]
        builder = sign_module if flag[0] else trivial_module
        module = builder(system, flag[0])
        direct = p_mu_table(flag[0], module)
        flagged = mu_inductive(flag, module)
        assert flagged == direct.mu

    def test_from_nonempty_j(self, systems):
        a3 = systems["a3"]
        j = frozenset({0})
        flag = [j, frozenset({0, 1}), a3.generator_set]
        summed = OmegaModule(a3, j, 2, {0: sparse(((1, 0), (0, 0)))}, {})  # sign + trivial
        for module in (sign_module(a3, j), summed):
            direct = p_mu_table(j, module)
            assert mu_inductive(flag, module) == direct.mu
        # rank 2 over three levels: each level splits the blocks of the one below
        a4 = CoxeterSystem([[1 if i == k else 3 if abs(i - k) == 1 else 2 for k in range(4)]
                            for i in range(4)])
        summed = OmegaModule(a4, j, 2, {0: sparse(((1, 0), (0, 0)))}, {})
        direct = p_mu_table(j, summed)
        assert len(direct.mu_pos) == 116
        flag = [j, frozenset({0, 1}), frozenset({0, 1, 2}), a4.generator_set]
        assert mu_inductive(flag, summed) == direct.mu

    def test_one_table_per_level(self, systems, table_calls):
        b3 = systems["b3"]
        module = sign_module(b3, {1})
        flag = [frozenset({1}), frozenset({0, 1}), b3.generator_set]
        mu_inductive(flag, module)
        calls, built = table_calls
        assert calls == [(lower, upper, b3) for lower, upper in zip(flag, flag[1:])]
        assert all(system is b3 for _, _, system in calls)
        assert built == []

    def test_tower_index_rule(self, systems):
        """At each level, block u*n + v of the tower is the product of the
        level's representative u with block v's element, which right peeling
        splits back into them, and the factored mu-blocks, moved onto D_J,
        are those of J inside the level's ambient."""
        from wgraphs.hy import _factor_mu

        a3 = systems["a3"]
        module = trivial_module(a3, frozenset())
        flag = [frozenset(), frozenset({0}), frozenset({0, 1}), a3.generator_set]
        tables = induce_along(flag, module)
        J, mu, elements = flag[0], {}, [a3.identity]  # the element of each block
        for i, level in enumerate(tables, 1):
            reps, arrays = a3.coset_listing(J, K=flag[i])
            at = _tower_positions([t.reps for t in tables[:i]], arrays)
            n = len(elements)
            assert len(at) == len(level.reps) * n == len(reps)
            for u, rep in enumerate(level.reps):
                for v, inner in enumerate(elements):
                    w = reps[at[u * n + v]]
                    assert w == a3.mult(rep, inner)
                    assert peel(a3, J, flag[i - 1], w, left=False) == (rep, inner)
            mu = _factor_mu(mu, level, module.rank)
            moved = {(reps[at[x]], reps[at[z]], s): mat for (x, z, s), mat in mu.items()}
            assert moved == p_mu_table(J, module, ambient=flag[i]).mu
            elements = [reps[pos] for pos in at]

    def test_jobs_do_not_change_output(self, systems, table_calls):
        """``jobs`` is accepted and ignored: same blocks, same tables."""
        a3 = systems["a3"]
        module = trivial_module(a3, frozenset())
        flag = [frozenset(), frozenset({0}), frozenset({0, 1}), a3.generator_set]
        calls, built = table_calls
        serial = mu_inductive(flag, module, jobs=1)
        serial_calls = list(calls)
        calls.clear()
        assert mu_inductive(flag, module, jobs=4) == serial
        assert calls == serial_calls and len(calls) == 3
        assert built == []

    def test_bad_flags_rejected(self, systems):
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        with pytest.raises(ValueError):
            mu_inductive([frozenset()], module)
        with pytest.raises(ValueError):
            mu_inductive([frozenset(), frozenset({0})], module)
        with pytest.raises(ValueError):
            mu_inductive([frozenset(), frozenset(), a2.generator_set], module)


class TestInfiniteWithCutoff:
    def test_oracle_equivalence_on_ball(self):
        from wgraphs.canon import pi_recursion, rho_table

        inf_dihedral = CoxeterSystem(((1, 0), (0, 1)))
        module = trivial_module(inf_dihedral, frozenset())
        table = p_mu_table(frozenset(), module, max_length=5)
        pi = pi_recursion(rho_table(frozenset(), module, max_length=5))
        assert set(table.p) == set(pi.entries)
        assert all(table.p[key] == pi.entries[key] for key in table.p)
        e = inf_dihedral.identity
        assert table.p[(e, inf_dihedral.generator(0))] == LMat([[v(1, -1)]])

    def test_ball_restriction_consistency(self):
        inf_dihedral = CoxeterSystem(((1, 0), (0, 1)))
        module = trivial_module(inf_dihedral, frozenset())
        small = p_mu_table(frozenset(), module, max_length=3)
        large = p_mu_table(frozenset(), module, max_length=5)
        for key, mat in small.p.items():
            assert large.p[key] == mat
        for key, mat in small.mu.items():
            assert large.mu[key] == mat

    def test_negative_cutoff_is_refused(self):
        from wgraphs.canon import rho_table

        inf_dihedral = CoxeterSystem(((1, 0), (0, 1)))
        module = trivial_module(inf_dihedral, frozenset())
        for build in (p_mu_table, rho_table):
            with pytest.raises(ValueError, match="max_length must be at least 0, not -1"):
                build(frozenset(), module, max_length=-1)

    def test_induce_needs_whole_group(self):
        inf_dihedral = CoxeterSystem(((1, 0), (0, 1)))
        module = trivial_module(inf_dihedral, frozenset())
        table = p_mu_table(frozenset(), module, max_length=3)
        with pytest.raises(ValueError):
            induce(frozenset(), module, table)


class TestEFix:
    def test_all_subsets_a2(self, systems):
        a2 = systems["a2"]
        for size in range(3):
            for j in itertools.combinations(range(2), size):
                assert e_fix_check(a2, frozenset(j)).ok

    @pytest.mark.parametrize("name", ["a3", "b3"])
    def test_matches_the_product(self, systems, name):
        system = systems[name]
        for size in range(4):
            for j in itertools.combinations(range(3), size):
                report = e_fix_check(system, frozenset(j))
                assert report.ok and report == e_fix_check_lmat(system, frozenset(j))

    def test_broken_idempotent_fails(self, systems, monkeypatch):
        """An induced E_1 with one extra entry, (1, 0): E_1 e_0 = e_0 + e_1,
        so the product moves e_0, and the vector walk and the Laurent-matrix
        product on the module ``induce`` builds fail with the same text."""
        import wgraphs.hy as hy

        a2 = systems["a2"]
        real = hy._idempotents

        def broken(*args):
            e = real(*args)
            assert e[0][1] == ()
            e[0] = (e[0][0], ((0, 1),)) + e[0][2:]
            return e

        monkeypatch.setattr(hy, "_idempotents", broken)
        report = e_fix_check(a2, frozenset({0}))
        assert report.failures == ["E_J does not fix the generating vector"]
        assert report == e_fix_check_lmat(a2, frozenset({0}))

    @pytest.mark.parametrize("path", ["perfbench/systems/b4.json", "perfbench/systems/d4.json",
                                      "perfbench/systems/b3_211.json",
                                      "perfbench/systems/i2_8_13.json"])
    def test_matches_the_full_table_route(self, path):
        """The reference builds the p/mu table and ``induce``; the check reads
        the idempotents from the Deodhar classes alone: equal on every J."""
        system = load_system(str(ROOT / path))
        for size in range(system.rank + 1):
            for j in itertools.combinations(range(system.rank), size):
                report = e_fix_check(system, frozenset(j))
                assert report.ok and report == e_fix_check_lmat(system, frozenset(j)), j

    def test_builds_no_table(self, systems, monkeypatch):
        import wgraphs.hy as hy

        def refuse(*args, **kwargs):
            raise AssertionError("e_fix_check built a table")

        monkeypatch.setattr(hy, "p_mu_table", refuse)
        monkeypatch.setattr(hy, "induce", refuse)
        for j in ({0}, {1, 2}, {0, 1, 2}):
            assert e_fix_check(systems["b3"], j).ok

    def test_idempotents_are_those_of_induce(self):
        """On the regular W_K-graph of D4, K = {1,2,3} (rank 24), the zero
        classes carry the module's E-blocks of the conjugated generators."""
        from wgraphs.hy import _idempotents

        d4 = load_system(str(ROOT / "perfbench/systems/d4.json"))
        k, trivial = frozenset({0, 1, 2}), trivial_module(d4, frozenset())
        module = induce(frozenset(), trivial, p_mu_table(frozenset(), trivial, ambient=k))
        table = p_mu_table(k, module)
        classes, _ = table.arrays
        assert module.rank == 24 and any(
            c.tag == "zero" and c.conj != s for s, column in classes.items() for c in column)
        e = _idempotents(module, classes)
        assert e == induce(k, module, table).e


class TestClassicalComparison:
    """The scalar table at equal parameters carries classical KL data."""

    CANDIDATES = {
        "v^(lz-lx) P(v^-2)": (1, -2),
        "v^(lz-lx) P(v^2)": (1, 2),
        "v^(lx-lz) P(v^-2)": (-1, -2),
        "v^(lx-lz) P(v^2)": (-1, 2),
    }

    @staticmethod
    def _transform(p_classical, l_diff, expdir, qexp):
        sign = -1 if l_diff % 2 else 1
        return LaurentPoly(
            {expdir * l_diff + qexp * d: sign * c for d, c in p_classical.items()}
        )

    def matching_candidates(self, system, n):
        gens = sym_group_generators(n)
        ident = tuple(range(n))
        oracle = KLOracle(n)
        module = trivial_module(system, frozenset())
        table = p_mu_table(frozenset(), module)
        to_perm = {x: eval_word(x.word, gens, compose_perms, ident) for x in table.reps}
        matches = dict.fromkeys(self.CANDIDATES, True)
        for x in table.reps:
            for z in table.reps:
                classical = oracle.p_poly(to_perm[x], to_perm[z])
                ours = table.p.get((x, z))
                assert (ours is not None) == oracle.leq(to_perm[x], to_perm[z])
                if ours is None:
                    continue
                value = ours[0, 0]
                l_diff = z.length - x.length
                for name, (expdir, qexp) in self.CANDIDATES.items():
                    if value != self._transform(classical, l_diff, expdir, qexp):
                        matches[name] = False
        return [name for name, good in matches.items() if good], table, oracle, to_perm

    def test_s3_resolves_one_convention(self, systems):
        winners, _, _, _ = self.matching_candidates(systems["a2"], 3)
        # S3 has only trivial KL polynomials; the two bar-directions agree,
        # but the exponent direction is already pinned down.
        assert winners and all(name.startswith("v^(lz-lx)") for name in winners)


class TestParabolicOrdinary:
    """Deodhar's relations between the parabolic tables of the sign and the
    trivial module and the ordinary table (of the regular module), for every
    proper nonempty J, with w_J the longest element of W_J."""

    @pytest.mark.parametrize("name", ["a3", "b2", "b2_unequal", "b3", "i2_5"])
    def test_relations(self, systems, name):
        system = systems[name]
        ordinary = p_mu_table(frozenset(), trivial_module(system, frozenset())).p
        zero = LMat.zeros(1)
        for size in range(1, system.rank):
            for J in map(frozenset, itertools.combinations(range(system.rank), size)):
                w_j = system.min_coset_reps((), J)
                sign = p_mu_table(J, sign_module(system, J)).p
                trivial = p_mu_table(J, trivial_module(system, J)).p
                reps = system.min_coset_reps(J)
                for x, z in itertools.product(reps, reps):
                    # sign: p^J_{x,z} = p_{x w_J, z w_J}
                    longest = (system.mult(x, w_j[-1]), system.mult(z, w_j[-1]))
                    assert sign.get((x, z), zero) == ordinary.get(longest, zero)
                    # trivial: p^J_{x,z} = sum over y in W_J of v^L(y) p_{xy,z}
                    total = zero
                    for y in w_j:
                        term = ordinary.get((system.mult(x, y), z))
                        if term is not None:
                            total = total + term.scale(v(sum(map(system.weight, y.word))))
                    assert trivial.get((x, z), zero) == total


A4 = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))


class TestSparseStorage:
    def test_no_negation_in_recursion(self, systems, monkeypatch):
        calls = []
        negate = LMat.__neg__
        monkeypatch.setattr(LMat, "__neg__", lambda self: calls.append(1) or negate(self))
        p_mu_table(frozenset(), trivial_module(systems["b3"], frozenset()))
        assert calls == []

    def test_sums_of_products_are_fused(self, systems, monkeypatch):
        """Regular B3: each sum of products is one kernel call, so the
        recursion applies no ``@`` and at most one ``+`` or ``-`` per stored
        pair, not one per term; so does the rho recursion, also with the
        zero classes of B3 over J = {1}.  The oracle's composition check and
        triangular engine sum integer products and make no Laurent-matrix
        kernel call at all."""
        from wgraphs.canon import canonicalise_shadow, check_rho, rho_table

        calls = dict.fromkeys(("__matmul__", "__add__", "__sub__"), 0)
        for name in calls:
            def counted(self, other, _original=getattr(LMat, name), _name=name):
                calls[_name] += 1
                return _original(self, other)

            monkeypatch.setattr(LMat, name, counted)

        def run(thunk):
            calls.update(dict.fromkeys(calls, 0))
            return thunk(), calls["__matmul__"], calls["__add__"] + calls["__sub__"]

        system = systems["b3"]
        module = trivial_module(system, frozenset())
        table, products, sums = run(lambda: p_mu_table(frozenset(), module))
        assert (len(table.p), products) == (847, 0) and sums <= len(table.p)
        for j, make in ((frozenset(), trivial_module), (frozenset({0}), sign_module)):
            # the column recursion: one + or - per block, products only in
            # zero classes, each one kernel call
            rho, products, sums = run(lambda: rho_table(j, make(system, j)))
            assert products == 0 and sums <= len(rho.entries)
        rho = rho_table(frozenset(), module)
        report, products, sums = run(lambda: check_rho(rho))
        assert report.ok and products == sums == 0
        bits = system.bruhat_ideals(rho.reps)
        pi, products, sums = run(lambda: canonicalise_shadow(rho.reps, bits, rho.cols,
                                                             rho.values, 1))
        assert block_columns(*pi) == block_columns(table.cols, table.values)
        assert products == sums == 0

    def test_equal_unit_blocks_are_shared(self):
        a4 = CoxeterSystem(A4)
        table = p_mu_table(frozenset(), trivial_module(a4, frozenset()))
        first = {}
        blocks = [b for mats in (table.p, table.mu) for mat in mats.values()
                  for b in mat.blocks.values()]
        assert len(blocks) > 4000 and all(first.setdefault(b, b) is b for b in blocks)

    def test_induced_module_stores_its_nonzeros(self):
        """Regular A4: 664 nonzero entries in 8 matrices of size 120x120."""
        a4 = CoxeterSystem(A4)
        module = trivial_module(a4, frozenset())
        induced = induce(frozenset(), module, p_mu_table(frozenset(), module))
        mats = [*induced.e.values(), *induced.x.values()]
        stored = sum(len(row) for mat in mats for row in mat)
        nonzero = sum(1 for mat in mats for row in dense(mat, induced.rank) for c in row if c)
        assert (induced.rank, len(mats), stored, nonzero) == (120, 8, 664, 664)


class TestSerialColumns:
    """A table's columns are arrays of serial numbers into one ``values``
    list, whose slot 0 means no block; both routes fill this one form."""

    @staticmethod
    def _tables(name):
        """The direct and the oracle's table of the regular module of ``name``."""
        from wgraphs.canon import pi_recursion, rho_table

        module = trivial_module(TestInverseColumns._case(name)[0], frozenset())
        rho = rho_table(frozenset(), module)
        return p_mu_table(frozenset(), module), rho, pi_recursion(rho)

    @pytest.mark.parametrize("name", ["b2_unequal", "b3_211", "d4"])
    def test_columns_are_serial_arrays(self, name):
        tables = self._tables(name)
        for table in tables:
            values = table.values
            assert values[0] is None and None not in values[1:]
            assert len(set(values[1:])) == len(values) - 1  # no two serials name equal values
            assert len(values) <= 1 << 16
            assert all(isinstance(col, array) and col.typecode == "H" for col in table.cols)
            assert set(chain.from_iterable(table.cols)) <= set(range(len(values)))
        # the direct route gives a serial only to a block that it stores, in
        # a column or in mu_pos
        direct = tables[0]
        stored, mu = set(chain.from_iterable(direct.cols)), set(map(id, direct.mu_pos.values()))
        assert all(i in stored or id(v) in mu for i, v in enumerate(direct.values[1:], 1))

    def test_typecode_follows_the_count(self):
        assert serial_array([0, 1], 1 << 16).typecode == "H"
        column = serial_array([0, 1 << 16, 7], (1 << 16) + 1)
        assert column.typecode == "I" and list(column) == [0, 1 << 16, 7]

    @pytest.mark.parametrize("name", ["b3_211", "d4"])
    def test_inverse_columns_as_serials(self, name):
        """For J = {}, column z is column z^-1 read through x -> x^-1, serial
        for serial, and every slot at an x not below z is 0."""
        table = self._tables(name)[0]
        index = {z.word: i for i, z in enumerate(table.reps)}
        inv = [index[z.inverse().word] for z in table.reps]
        bits = table.system.bruhat_ideals(table.reps)
        for zi, col in enumerate(table.cols):
            below = [xi for xi in range(zi + 1) if bits[zi] >> xi & 1]
            assert list(compress(range(len(col)), col)) == below
            assert [table.cols[inv[zi]][inv[xi]] for xi in below] == [col[xi] for xi in below]

    def test_one_value_under_two_serials_writes_the_same_bytes(self):
        from wgraphs import formats

        table = self._tables("d4")[0]
        serial = max(range(1, len(table.values)),
                     key=lambda k: sum(col.count(k) for col in table.cols))
        twin = LMat._new(table.values[serial].shape, dict(table.values[serial].blocks))
        cols = [col[:] for col in table.cols]
        for col in cols[::2]:  # every other column names the twin
            for xi, k in enumerate(col):
                if k == serial:
                    col[xi] = len(table.values)
        copy = PMuTable(table.system, table.gens, table.ambient, table.module, table.reps,
                        cols, table.values + [twin], table.mu_pos, table.arrays)
        assert copy.p == table.p and {id(mat) for mat in copy.p.values()} >= {id(twin)}
        assert (formats.dumps(formats.table_to_json(copy))
                == formats.dumps(formats.table_to_json(table)))


class TestInterning:
    """``p_mu_table`` interns the values it stores, within one call: one
    object per distinct p- or mu-value, and no state kept between calls."""

    @staticmethod
    def case(systems, name):
        if name == "a4":
            return frozenset(), trivial_module(CoxeterSystem(A4), frozenset())
        if name == "b3_211":
            b3 = CoxeterSystem(((1, 4, 2), (4, 1, 3), (2, 3, 1)), (2, 1, 1))
            return frozenset(), trivial_module(b3, frozenset())
        # the regular W_{1,2}-graph of A3, a module of rank 6
        a3, inner = systems["a3"], frozenset({0, 1})
        trivial = trivial_module(a3, frozenset())
        module = induce(frozenset(), trivial, p_mu_table(frozenset(), trivial, ambient=inner))
        assert (module.gens, module.rank) == (inner, 6)
        return inner, module

    @pytest.mark.parametrize("name", ["a4", "b3_211", "a3_over_regular_a2"])
    def test_one_object_per_value(self, systems, name):
        J, module = self.case(systems, name)
        table = p_mu_table(J, module)
        def values(table):
            return [mat for _, mat in table.pos_items()] + list(table.mu_pos.values())

        ids = {id(mat) for mat in values(table)}
        assert len(ids) == len(set(values(table))) < len(values(table))
        high = p_mu_table(J, module, descent_choice="max")  # equal blocks, other serials
        assert high.p == table.p and high.mu == table.mu
        again = p_mu_table(J, module)  # equal, and built from no object of the first call
        assert again == table and not ids & {id(mat) for mat in values(again)}

    @pytest.mark.parametrize("name", ["d4", "a3_over_regular_a2"])
    def test_keys_read_from_the_columns(self, systems, monkeypatch, name):
        """The columns hold serial numbers while the recursion runs, so every
        memo key is read from them and no value is looked up by ``id``."""
        import wgraphs.hy as hy

        if name == "d4":
            d4 = load_system(str(ROOT / "perfbench/systems/d4.json"))
            J, module = frozenset(), trivial_module(d4, frozenset())
        else:
            J, module = self.case(systems, name)
        expected = p_mu_table(J, module)

        def no_id(obj):
            raise AssertionError("p_mu_table looked a value up by id")

        monkeypatch.setattr(hy, "id", no_id, raising=False)
        assert p_mu_table(J, module) == expected


class TestIndexKernel:
    """Both triangular routes run on representative positions, read from the
    coset table: no product, descent or Bruhat query reaches the Coxeter
    system, and the table of (J, ambient) is built once."""

    QUERIES = ("bruhat_leq", "mult", "inverse", "left_descents", "right_descents")

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = dict.fromkeys(self.QUERIES, 0)
        for name in counts:
            original = getattr(CoxeterSystem, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(CoxeterSystem, name, counted)
        return counts

    @pytest.fixture()
    def builds(self, monkeypatch):
        """The (J, K) of every table of D_J inside W_K that is built."""
        from wgraphs import coxeter

        builds = []
        real = coxeter._ElementTable.__init__

        def counted(self, system, J, K):
            builds.append((J, K))
            real(self, system, J, K)

        monkeypatch.setattr(coxeter._ElementTable, "__init__", counted)
        return builds

    @staticmethod
    def _steps(system, j, module):
        """Run p_mu_table, a fresh table's check_invariants, rho_table,
        check_rho and pi_recursion in turn, yielding the name of each."""
        from wgraphs.canon import check_rho, pi_recursion, rho_table

        table = p_mu_table(j, module)
        yield "p_mu_table"
        # a table built without the recursion, on the same listing and arrays
        fresh = PMuTable(system, table.gens, table.ambient, module, table.reps,
                         table.cols, table.values, table.mu_pos, table.arrays)
        assert fresh.check_invariants().ok
        yield "check_invariants"
        rho = rho_table(j, module)
        yield "rho_table"
        assert check_rho(rho).ok
        yield "check_rho"
        assert pi_recursion(rho).entries == table.p
        yield "pi_recursion"

    @pytest.mark.parametrize("j,make", [(frozenset(), trivial_module),
                                        (frozenset({0}), sign_module)])
    def test_no_per_pair_queries(self, systems, counts, j, make):
        system = systems["b3"]
        module = make(system, j)
        for step in self._steps(system, j, module):
            assert not any(counts.values()), (step, counts)
        table = p_mu_table(j, module)
        assert len(table.p) > 3 * len(table.reps) * system.rank  # many pairs to query
        zeros = sum(c.tag == "zero" for row in table.arrays[0].values() for c in row)
        assert (zeros == 0) == (not j)

    @pytest.mark.parametrize("name,j,make", [("b3", frozenset(), trivial_module),
                                             ("a4", frozenset({0}), sign_module)])
    def test_one_table_per_subset(self, systems, builds, name, j, make):
        """Regular B3 and A4 over J = {1} with the sign module, on fresh systems."""
        system = CoxeterSystem(A4 if name == "a4" else systems[name].matrix)
        module = make(system, j)
        for _ in self._steps(system, j, module):
            pass
        assert builds == [(j, system.generator_set)]

    @pytest.mark.parametrize("path,J,K,make", [
        ("systems/a3.json", {0}, {1, 2}, sign_module),
        ("perfbench/systems/b3_211.json", (), {1, 2}, trivial_module),
    ], ids=["a3-J1-K23-sign", "b3_211-regular"])
    def test_checks_form_no_product(self, counts, path, J, K, make):
        """Every ``hy verify`` check, ``induce`` with ``cell_partition``,
        ``induced_cells_check`` and ``mu_inductive`` read positions alone; the
        nested checks go through L = J u {1, 2}."""
        system = load_system(str(ROOT / path))
        J, S = frozenset(J), system.generator_set
        L = J | {0, 1}
        module = make(system, J)
        table = p_mu_table(J, module)
        induced = induce(J, module, table)
        assert cell_partition(induced).blocks
        reports = [validate(induced), verify_h_linearity(J, module), oracle_check(J, module),
                   transitivity_check(J, L, module), mackey_check(J, K, module),
                   mu_factorize_check(J, L, table, *induce_along([J, L, S], module)),
                   e_fix_check(system, J), induced_cells_check(system, L)]
        assert all(report.ok for report in reports), [str(r) for r in reports]
        assert mu_inductive([J, L, S], module) == table.mu
        assert not any(counts.values()), counts


class TestNoWholeGroup:
    def test_e7_over_e6_sign(self):
        """E7 has 2,903,040 elements; the induction from E6 reads only the
        coset table of its 56 representatives."""
        matrix = [[1 if s == t else 2 for t in range(7)] for s in range(7)]
        for s, t in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]:  # Bourbaki
            matrix[s][t] = matrix[t][s] = 3
        system = CoxeterSystem(matrix)
        J = frozenset(range(6))
        module = sign_module(system, J)
        table = p_mu_table(J, module)
        assert len(table.reps) == 56
        assert validate(induce(J, module, table)).ok
        report = oracle_check(J, module)
        assert report.ok and report.checks == 1463
        assert "table" not in system._cache

    @staticmethod
    def _e6():
        matrix = [[1 if s == t else 2 for t in range(6)] for s in range(6)]
        for s, t in [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]:  # Bourbaki
            matrix[s][t] = matrix[t][s] = 3
        return CoxeterSystem(matrix)

    def test_e6_coset_checks(self):
        """E6 has 51,840 elements; Mackey from D5 = {1..5} to {2..6} and the
        flag {1..5} < S split cosets in coset tables only."""
        system = self._e6()
        J, S = frozenset(range(5)), system.generator_set
        module = sign_module(system, J)
        report = mackey_check(J, frozenset(range(1, 6)), module)
        assert str(report) == "Mackey filtration for K=[2, 3, 4, 5, 6]: ok [60 checks]"
        mu = mu_inductive([J, S], module)
        assert len(mu) == 37 and mu == p_mu_table(J, module).mu
        assert "table" not in system._cache

    def test_e6_transitivity(self):
        """Induction from A4 = {1..4} through D5 = {1..5} to E6 reindexes by
        walks in the coset table of {1..4}, so no ball of E6 is grown."""
        system = self._e6()
        J = frozenset(range(4))
        report = transitivity_check(J, frozenset(range(5)), sign_module(system, J))
        assert str(report) == "transitivity through K=[1, 2, 3, 4, 5]: ok [13 checks]"
        assert "table" not in system._cache


class TestMuWindow:
    """mu reads only the exponents <= 0 of the mu-step's alpha, and only those
    are formed."""

    @pytest.mark.parametrize("path", ["systems/b2_unequal.json",
                                      "perfbench/systems/b3_211.json",
                                      "perfbench/systems/i2_8_13.json"])
    def test_unequal_parameters(self, path):
        """p.mu terms reach the window here: 1, 36 and 5 of them in the
        regular tables of these systems."""
        system = load_system(str(Path(__file__).resolve().parent.parent / path))
        gens = range(system.rank)
        for j in [frozenset(c) for k in range(system.rank + 1)
                  for c in itertools.combinations(gens, k)]:
            for make in (sign_module, trivial_module):
                module = make(system, j)
                low = p_mu_table(j, module, descent_choice="min")
                high = p_mu_table(j, module, descent_choice="max")
                assert low.p == high.p and low.mu == high.mu
                assert low.check_invariants().ok
                assert validate(induce(j, module, low)).ok

    def test_regular_a4_forms_no_mu_step_product(self, monkeypatch):
        """Equal parameters: p(x, y) has only exponents > 0 and mu is constant,
        so no p.mu term reaches the window and the mu-step forms no windowed
        sum at all."""
        import wgraphs.hy as hy

        original = hy._dot
        windows = []  # the bound of every call, () for a full sum

        def dot(shape, pairs, *top):
            windows.append(top)
            return original(shape, pairs, *top)

        monkeypatch.setattr(hy, "_dot", dot)
        a4 = CoxeterSystem(A4)
        table = p_mu_table(frozenset(), trivial_module(a4, frozenset()))
        assert len(table.mu) == 184
        assert windows and not any(windows)  # the p-step's full sums only


class TestInverseColumns:
    """For J = {} a column whose z^-1 is done is copied through x -> x^-1,
    since p(x, z) = p(x^-1, z^-1); the mu-step of such a column still runs."""

    @staticmethod
    def _case(name):
        """(system, ambient, radius): unequal weights with non-empty windows,
        a ball of an infinite group, and J = {} inside a parabolic of D4."""
        if name == "d4_K123":
            return load_system(str(ROOT / "perfbench/systems/d4.json")), {0, 1, 2}, None
        path = "systems/b2_unequal.json" if name == "b2_unequal" else f"perfbench/systems/{name}.json"
        return load_system(str(ROOT / path)), None, 8 if name == "affine_a2" else None

    @pytest.mark.parametrize("name", ["b2_unequal", "b3_211", "i2_8_13", "affine_a2", "d4_K123"])
    def test_copied_columns(self, name):
        from wgraphs.canon import pi_recursion, rho_table

        system, ambient, radius = self._case(name)
        module = trivial_module(system, frozenset())
        table = p_mu_table(frozenset(), module, ambient, max_length=radius)
        index = {z.word: i for i, z in enumerate(table.reps)}
        inv = [index[z.inverse().word] for z in table.reps]
        assert any(i < zi for zi, i in enumerate(inv))  # some column is copied
        for zi, col in enumerate(table.cols):
            for xi, serial in enumerate(col):
                if serial:
                    assert table.cols[inv[zi]][inv[xi]] == serial
        high = p_mu_table(frozenset(), module, ambient, descent_choice="max", max_length=radius)
        assert high.p == table.p and high.mu == table.mu
        if radius is None:
            assert oracle_check(frozenset(), module, ambient).ok
            assert table.check_invariants().ok
        else:  # the oracle route on the ball; the invariants need the whole group
            pi = pi_recursion(rho_table(frozenset(), module, max_length=radius))
            assert block_columns(pi.cols, pi.values) == block_columns(table.cols, table.values)


class TestMemo:
    """``p_mu_table`` memoises its p-steps and its mu-steps, each by the
    serial numbers of all of its interned inputs, within one call."""

    def test_work_count_regular_d4(self, monkeypatch):
        """Regular D4 has 9,817 p-blocks over 60 values: each distinct sum and
        product is formed once, so few products and matrices are built."""
        import wgraphs.hy as hy

        counts = {"dot": 0, "new": 0}
        dot, new = hy._dot, LMat._new.__func__

        def counted_dot(*args):
            counts["dot"] += 1
            return dot(*args)

        def counted_new(cls, *args):
            counts["new"] += 1
            return new(cls, *args)

        d4 = load_system(str(ROOT / "perfbench/systems/d4.json"))
        d4.elements()
        monkeypatch.setattr(hy, "_dot", counted_dot)
        monkeypatch.setattr(LMat, "_new", classmethod(counted_new))
        table = p_mu_table(frozenset(), trivial_module(d4, frozenset()))
        assert (len(table.p), len(table.mu)) == (9817, 372)
        assert counts["dot"] <= 150 and counts["new"] <= 600, counts

    @staticmethod
    def case(systems, name):
        if name == "b3_211":
            b3 = CoxeterSystem(((1, 4, 2), (4, 1, 3), (2, 3, 1)), (2, 1, 1))
            return frozenset(), trivial_module(b3, frozenset())
        if name == "i2_8_13":
            i2 = load_system(str(ROOT / "perfbench/systems/i2_8_13.json"))
            return frozenset(), trivial_module(i2, frozenset())
        if name in ("b4_3111", "b4_2111_J2_trivial"):
            weights = (3, 1, 1, 1) if name == "b4_3111" else (2, 1, 1, 1)
            b4 = CoxeterSystem(((1, 4, 2, 2), (4, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)), weights)
            J = frozenset() if name == "b4_3111" else frozenset({1})
            return J, trivial_module(b4, J)
        if name == "a4_J1_sign":
            return frozenset({0}), sign_module(CoxeterSystem(A4), frozenset({0}))
        return TestInterning.case(systems, name)

    @staticmethod
    def paths(table) -> set:
        """The keyed inputs of the mu-step that the table exercises: a window
        term p(x, y) mu(y, z, s) with exponents adding up to <= 0, and a
        zero class of s on x or on z."""
        classes, _ = table.arrays
        bits = table.system.bruhat_ideals(table.reps, table.gens, table.ambient)
        found = set()
        for (yi, zi, s), mu in table.mu_pos.items():
            for xi, p in enumerate(map(table.values.__getitem__, table.cols[yi][:yi])):
                if (p is not None and p.blocks and classes[s][xi].tag != "plus"
                        and min(p.blocks) + min(mu.blocks) <= 0):
                    found.add("window")
        for zi in range(len(table.reps)):
            for s, row in classes.items():
                for xi in range(zi):
                    if (bits[zi] >> xi & 1 and row[zi].tag != "minus"
                            and row[xi].tag != "plus"):
                        found.update(f"zero {side}" for side, c in (("x", row[xi]), ("z", row[zi]))
                                     if c.tag == "zero")
        return found

    CASES = {  # the oracle's check count, and the paths each case exercises
        "b3_211": (847, {"window"}),
        "i2_8_13": (129, {"window"}),
        "b4_3111": (40249, {"window"}),
        "a4_J1_sign": (1128, {"zero x", "zero z"}),
        "a3_over_regular_a2": (10, {"zero x", "zero z"}),
        # window terms and zero classes together; a term-sum key that leaves
        # out the mu-factors gives a wrong table here
        "b4_2111_J2_trivial": (11051, {"window", "zero x", "zero z"}),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_memo_paths(self, systems, name):
        """Each memoised path gives the table of the other descent choice and
        of the triangular oracle."""
        checks, paths = self.CASES[name]
        J, module = self.case(systems, name)
        table = p_mu_table(J, module)
        assert self.paths(table) == paths
        high = p_mu_table(J, module, descent_choice="max")  # equal blocks, other serials
        assert high.p == table.p and high.mu == table.mu
        report = oracle_check(J, module)
        assert report.ok and report.checks == checks
