import itertools
import random
from pathlib import Path

import pytest

from wgraphs.canon import (
    CanonicalisationError,
    canonicalise_shadow,
    check_rho,
    pi_recursion,
    rho_table,
)
from wgraphs.coxeter import DEODHAR_ZERO, CoxeterSystem
from wgraphs.formats import load_system
from wgraphs.hy import induce, p_mu_table
from wgraphs.laurent import LaurentPoly, v
from wgraphs.matrix import LMat, _evaluate
from wgraphs.wgraph import BlockTable, hecke_t_column, interner, sign_module, trivial_module

from oracles import (block_columns, canonicalise_shadow_lmat, certified_widths, check_rho_entrywise,
                     iota_expand, pi_recursion_checked_first, rho_expanded, serial_columns,
                     store_block)

_ROOT = Path(__file__).resolve().parent.parent


class TestIotaExpand:
    def test_identity(self, systems):
        a2 = systems["a2"]
        assert iota_expand(a2.identity) == {a2.identity: LaurentPoly.one()}

    def test_generator(self, systems):
        a2 = systems["a2"]
        s = a2.generator(0)
        assert iota_expand(s) == {
            s: LaurentPoly.one(),
            a2.identity: LaurentPoly({-1: 1, 1: -1}),
        }

    def test_weighted_generator(self, systems):
        b2u = systems["b2_unequal"]
        t = b2u.generator(1)
        assert iota_expand(t)[b2u.identity] == LaurentPoly({-2: 1, 2: -1})

    def test_st_product(self, systems):
        a2 = systems["a2"]
        s, t = a2.generator(0), a2.generator(1)
        expansion = iota_expand(s * t)
        delta = LaurentPoly({-1: 1, 1: -1})
        assert expansion[s * t] == LaurentPoly.one()
        assert expansion[s] == delta
        assert expansion[t] == delta
        assert expansion[a2.identity] == delta * delta

    def test_top_coefficient_always_one(self, systems):
        for z in systems["b2"].elements():
            assert iota_expand(z)[z] == LaurentPoly.one()

    def test_support_below_in_bruhat_order(self, systems):
        system = systems["a3"]
        for z in system.elements():
            for w in iota_expand(z):
                assert system.bruhat_leq(w, z)


class TestRhoTable:
    def test_diagonal_identity(self, systems):
        rho = rho_table({0}, sign_module(systems["a2"], {0}))
        for z in rho.reps:
            assert rho.entries[(z, z)] == LMat.identity(1)

    def test_empty_j_scalar_r(self, systems):
        a2 = systems["a2"]
        rho = rho_table(frozenset(), trivial_module(a2, frozenset()))
        for z in rho.reps:
            expansion = iota_expand(z)
            for x in rho.reps:
                expected = expansion.get(x, LaurentPoly.zero())
                assert rho.entries.get((x, z), rho.zero) == LMat([[expected]])

    def test_absent_pairs_share_one_zero(self, systems):
        a2 = systems["a2"]
        rho = rho_table(frozenset(), trivial_module(a2, frozenset()))
        top = rho.reps[-1]
        zeros = [rho.entries.get((top, x), rho.zero) for x in rho.reps[:-1]]
        assert zeros[0] == LMat.zeros(1) and all(z is zeros[0] for z in zeros)

    def test_a1_value(self):
        from wgraphs.coxeter import CoxeterSystem

        a1 = CoxeterSystem(((1,),))
        rho = rho_table(frozenset(), trivial_module(a1, frozenset()))
        assert rho.entries[(a1.identity, a1.generator(0))] == LMat([[LaurentPoly({-1: 1, 1: -1})]])

    @pytest.mark.parametrize("name,j", [("a2", frozenset()), ("a2", frozenset({0})),
                                        ("b2", frozenset({1})), ("i2_5", frozenset())])
    def test_composition_identity(self, systems, name, j):
        module = sign_module(systems[name], j)
        assert check_rho(rho_table(j, module)).ok


def _rho_of(case):
    """The involution blocks of one test system, by name."""
    if case == "b3_211":
        system = load_system(str(_ROOT / "perfbench/systems/b3_211.json"))
        return rho_table(frozenset(), trivial_module(system, frozenset()))
    if case == "a4-J1-sign":
        system = load_system(str(_ROOT / "perfbench/systems/a4.json"))
        return rho_table({0}, sign_module(system, {0}))
    if case == "b2_unequal":
        system = load_system(str(_ROOT / "systems/b2_unequal.json"))
        return rho_table(frozenset(), trivial_module(system, frozenset()))
    if case == "a4-induced-rank-12":  # zero classes, rank 12
        system = load_system(str(_ROOT / "perfbench/systems/a4.json"))
        inner = sign_module(system, {0})
        k = frozenset({0, 1, 2})
        return rho_table(k, induce({0}, inner, p_mu_table({0}, inner, k)))
    if case == "a4-induced-trivial-rank-3":  # some pi_{yz} = 0 with y <= z
        system = load_system(str(_ROOT / "perfbench/systems/a4.json"))
        inner = trivial_module(system, {0})
        k = frozenset({0, 1})
        return rho_table(k, induce({0}, inner, p_mu_table({0}, inner, k)))
    system = load_system(str(_ROOT / "perfbench/systems/affine_a2.json"))
    return rho_table(frozenset(), trivial_module(system, frozenset()), max_length=6)


def _with_block(rho, x, y, mat):
    """A copy of ``rho`` with ``mat`` stored at (x, y), by position, also
    where x is not below y."""
    copy = BlockTable(rho.system, rho.gens, rho.ambient, rho.module, rho.reps,
                      [col[:] for col in rho.cols], list(rho.values))
    store_block(copy, (rho.index[x], rho.index[y]), mat)
    return copy


def _bumped(rho, x, y, i, j, g, c):
    """``rho`` with c v^g added at entry (i, j) of the block at (x, y)."""
    r = rho.module.rank
    rows = tuple(((j, c),) if k == i else () for k in range(r))
    bump = LMat.from_coeffs((r, r), {g: rows})
    return _with_block(rho, x, y, rho.entries.get((x, y), rho.zero) + bump)


_CASES = ["b3_211", "a4-J1-sign", "b2_unequal", "a4-induced-rank-12", "affine-a2-ball-6"]


def _seeded_tables(case):
    """The rho of ``case`` and six seeded corruptions of it: one entry bumped
    anywhere (twice), beyond the largest exponent E, by +-2^80, and on the
    diagonal."""
    rho = _rho_of(case)
    rng = random.Random(case)
    reps, r = rho.reps, rho.module.rank
    top = max(abs(g) for mat in rho.entries.values() for g in mat.blocks)
    below = [key for key in rho.entries if key[0] != key[1]]

    def spot():
        return rng.randrange(r), rng.randrange(r)

    tables = [rho]
    for c in (1, -1):  # one seeded entry anywhere, stored or not, comparable or not
        x, y = rng.choice(reps), rng.choice(reps)
        tables.append(_bumped(rho, x, y, *spot(), rng.randint(-top, top), c))
    tables.append(_bumped(rho, *rng.choice(below), *spot(), top + 2, 1))  # beyond E
    for c in (2 ** 80, -2 ** 80):
        tables.append(_bumped(rho, *rng.choice(below), *spot(), rng.randint(-top, top), c))
    z = rng.choice(reps)
    tables.append(_bumped(rho, z, z, *spot(), 0, 1))  # a non-identity diagonal block
    return tables


class TestCheckRhoProduct:
    """The integer product of ``check_rho`` decides every pair exactly as the
    entrywise Laurent sums of the reference do: same outcome, same count,
    same failures in the same order."""

    @pytest.mark.parametrize("case", _CASES)
    def test_matches_entrywise_reference(self, case):
        outcomes = []
        for table in _seeded_tables(case):
            report, reference = check_rho(table), check_rho_entrywise(table)
            assert (report.ok, report.checks, report.failures) == \
                (reference.ok, reference.checks, reference.failures)
            outcomes.append(report.ok)
        assert outcomes[0] and not all(outcomes)

    def test_no_laurent_arithmetic(self, monkeypatch):
        """No Laurent-matrix product, sum or fused kernel call: only the
        evaluation of each block and one integer product."""
        import wgraphs.canon as canon

        rho = _rho_of("a4-induced-rank-12")

        def refuse(*args, **kwargs):
            raise AssertionError("Laurent-matrix arithmetic in check_rho")

        for name in ("__matmul__", "__add__", "__sub__", "__neg__", "scale"):
            monkeypatch.setattr(LMat, name, refuse)
        assert not hasattr(canon, "_dot")
        report = check_rho(rho)
        assert report.ok and report.checks == 15

    def test_failures_in_column_order(self):
        """Two bumped blocks, one at the top of the last column and one low
        in an early column: their failures interleave, and the report names
        them column by column, (z, x), as the entrywise reference does."""
        rho = _rho_of("b2_unequal")
        reps = rho.reps
        bad = _bumped(_bumped(rho, reps[0], reps[-1], 0, 0, 1, 1), reps[1], reps[3], 0, 0, 1, 1)
        report, reference = check_rho(bad), check_rho_entrywise(bad)
        assert report.failures == reference.failures
        early, late = (report.failures.index(f"composition fails at ({x},{z})")
                       for x, z in [(reps[1], reps[3]), (reps[0], reps[-1])])
        assert early < late

    @pytest.mark.parametrize("base", [3, 8, 64])
    def test_defect_that_vanishes_at_a_fixed_base(self, base):
        """A1 with r_(e,s) = f = 2^(b+1) v - (2^(2b) + 1): the defect at (e, s)
        is f + bar(f), a nonzero polynomial whose value at v = 2^b is 0, so
        only a width taken from the coefficients tells it from zero."""
        a1 = CoxeterSystem(((1,),))
        rho = rho_table(frozenset(), trivial_module(a1, frozenset()))
        e, s = rho.reps
        f = LMat([[LaurentPoly({1: 2 ** (base + 1), 0: -(2 ** (2 * base) + 1)})]])
        assert _evaluate(f + f.bar(), base, 1) == ((),)
        bad = _with_block(rho, e, s, f)
        report = check_rho(bad)
        assert report.failures == check_rho_entrywise(bad).failures == ["composition fails at (e,1)"]


def _subsets(gens):
    return [frozenset(c) for k in range(len(gens) + 1) for c in itertools.combinations(gens, k)]


class TestRhoRecursion:
    """The one-letter recursion on D_J against the T-basis expansion over W,
    block for block."""

    @pytest.mark.parametrize("path", [
        *(f"systems/{name}.json" for name in ("a1", "a1_weighted", "a2", "a3", "affine_a1",
                                               "b2", "b2_unequal", "b3", "i2_5")),
        *(f"perfbench/systems/{name}.json" for name in ("a4", "h3", "b3_211", "i2_8_13")),
    ])
    def test_every_subset(self, path):
        system = load_system(str(_ROOT / path))
        max_length = None if system.is_finite else 6
        memo: dict = {}
        for j in _subsets(range(system.rank)):
            for make in (sign_module, trivial_module):
                module = make(system, j)
                rho = rho_table(j, module, max_length=max_length)
                assert rho.entries == rho_expanded(j, module, max_length=max_length, memo=memo)

    @pytest.mark.parametrize("name", ["d4", "b4"])
    def test_maximal_parabolics(self, name):
        system = load_system(str(_ROOT / f"perfbench/systems/{name}.json"))
        memo: dict = {}
        for s in range(system.rank):
            j = system.generator_set - {s}
            for make in (sign_module, trivial_module):
                module = make(system, j)
                assert rho_table(j, module).entries == rho_expanded(j, module, memo=memo)

    def test_induced_module_with_zero_classes(self):
        """A4, the sign module of J = {1} induced to K = {1,2,3} (rank 12)."""
        a4 = load_system(str(_ROOT / "perfbench/systems/a4.json"))
        inner = sign_module(a4, {0})
        k = frozenset({0, 1, 2})
        module = induce({0}, inner, p_mu_table({0}, inner, k))
        rho = rho_table(k, module)
        assert module.rank == 12 and len(rho.reps) == 5
        assert any(a4.deodhar_class(k, s, x).tag == DEODHAR_ZERO
                   for x in rho.reps for s in range(4))
        assert rho.entries == rho_expanded(k, module)

    @pytest.mark.parametrize("max_length", [6, 8])
    def test_affine_a2_ball(self, max_length):
        system = load_system(str(_ROOT / "perfbench/systems/affine_a2.json"))
        module = trivial_module(system, frozenset())
        rho = rho_table(frozenset(), module, max_length=max_length)
        assert rho.entries == rho_expanded(frozenset(), module, max_length=max_length)

    def test_ambient_subset(self, systems):
        b3 = systems["b3"]
        module = sign_module(b3, {0})
        rho = rho_table({0}, module, ambient={0, 1})
        assert rho.entries == rho_expanded({0}, module, ambient={0, 1})

    @pytest.mark.parametrize("case", ["b3_211", "a4-J1-sign", "a4-induced-rank-12"])
    def test_columns_stop_at_z(self, case):
        rho = _rho_of(case)
        assert [len(col) for col in rho.cols] == list(range(1, len(rho.reps) + 1))

    def test_block_after_z_rejected(self, systems, monkeypatch):
        """A nonzero block that the T_s^-1 step puts after z is an error naming
        (x, z), not a block dropped with the slots after z."""
        import wgraphs.canon as canon

        real = canon.hecke_t_column

        def misplaced(*args, **kwargs):
            col = real(*args, **kwargs)
            col[-1] = col[-1] or 1
            return col

        monkeypatch.setattr(canon, "hecke_t_column", misplaced)
        with pytest.raises(AssertionError, match=r"nonzero block r_\(121,1\) after z"):
            rho_table(frozenset(), trivial_module(systems["a2"], frozenset()))

    @pytest.mark.parametrize("case", ["b3_211", "a4-J1-sign"])
    def test_block_operations_once_per_serial(self, case, monkeypatch):
        """The products, diagonal terms and sums of the column step are
        memoised by serial: regular B3 (2,1,1) stores 847 blocks over 70
        values and A4 J = {1} sign 1,128 over 39, and the Laurent-matrix
        products, scalings and sums number fewer than twice the values."""
        import wgraphs.wgraph as wgraph

        calls = []
        monkeypatch.setattr(wgraph, "_dot", lambda *args, _real=wgraph._dot: calls.append(1)
                            or _real(*args))
        for name in ("scale", "__add__"):
            monkeypatch.setattr(LMat, name, lambda *args, _real=getattr(LMat, name):
                                calls.append(1) or _real(*args))
        rho = _rho_of(case)
        stored = sum(map(bool, itertools.chain.from_iterable(rho.cols)))
        assert len(calls) < 2 * len(rho.values) < stored / 5

    def test_missing_shorter_rep_rejected(self, systems):
        """T_s and T_s^-1 cannot move the block at x when s*x is missing from
        the listing: a plus class whose ``shifted`` entry is None is refused."""
        a2 = systems["a2"]
        reps, (classes, shifted) = a2.coset_listing(frozenset())
        values = [None]
        share = interner(values)
        column = [share(LMat.identity(1))] + [0] * (len(reps) - 1)
        assert classes[0][0].tag == "plus"
        up = [None] + shifted[0][1:]
        for inverse in (False, True):
            with pytest.raises(ValueError, match="not among the representatives"):
                hecke_t_column(trivial_module(a2, frozenset()), 0, classes[0], up, column,
                               values, share, ({}, {}, {}), inverse=inverse)


def _blocks(table):
    """The columns of a block table, as blocks."""
    return block_columns(table.cols, table.values)


def _recursion_outcome(run, rho):
    """The columns ``run(rho)`` returns, as blocks, or the message it raises."""
    try:
        return _blocks(run(rho))
    except CanonicalisationError as error:
        return str(error)


class TestPiRecursion:
    def test_diagonal(self, systems):
        pi = pi_recursion(rho_table({0}, sign_module(systems["a2"], {0})))
        for z in pi.reps:
            assert pi.entries[(z, z)] == LMat.identity(1)

    def test_a1_value(self):
        from wgraphs.coxeter import CoxeterSystem

        a1 = CoxeterSystem(((1,),))
        pi = pi_recursion(rho_table(frozenset(), trivial_module(a1, frozenset())))
        assert pi.entries[(a1.identity, a1.generator(0))] == LMat([[v(1, -1)]])

    def test_strictly_positive_above_diagonal(self, systems):
        pi = pi_recursion(rho_table(frozenset(), trivial_module(systems["b2"], frozenset())))
        for (x, z), mat in pi.entries.items():
            if x != z:
                neg, zero, _ = mat.split()
                assert neg.is_zero() and zero.is_zero()

    def test_involution_block_identity(self, systems):
        """R * bar(C) = C for the assembled block matrices."""
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        rho = rho_table(frozenset(), module)
        pi = pi_recursion(rho)
        pos = {x: i for i, x in enumerate(rho.reps)}
        n = len(pos)
        r_block = LMat.from_blocks(
            (n, n), [(pos[x], pos[z], mat) for (x, z), mat in rho.entries.items()]
        )
        c_block = LMat.from_blocks(
            (n, n), [(pos[x], pos[z], mat) for (x, z), mat in pi.entries.items()]
        )
        assert r_block @ c_block.bar() == c_block

    @staticmethod
    def _fixed_point_holds(system, rho, entries):
        for (x, z) in entries:
            total = LMat.zeros(1)
            for y in rho.reps:
                if system.bruhat_leq(x, y) and system.bruhat_leq(y, z):
                    if (y, z) in entries:
                        total = total + rho.entries.get((x, y), rho.zero) @ entries[(y, z)].bar()
            if total != entries[(x, z)]:
                return False
        return True

    def test_uniqueness_by_mutation(self, systems):
        """Bar-symmetric perturbations violate the defining constraints.

        At a non-minimal entry the fixed-point equation itself breaks (the
        perturbation leaks into lower pairs); at any entry the strict
        positivity requirement breaks, since a nonzero bar-symmetric
        element always has non-positive support.
        """
        a2 = systems["a2"]
        rho = rho_table(frozenset(), trivial_module(a2, frozenset()))
        pi = pi_recursion(rho)
        bump = LMat([[LaurentPoly({-1: 1, 0: 1, 1: 1})]])
        assert self._fixed_point_holds(a2, rho, dict(pi.entries))
        for x0 in (a2.generator(0), a2.generator(1), a2.element((0, 1))):
            z0 = a2.element((0, 1, 0))
            mutated = dict(pi.entries)
            mutated[(x0, z0)] = mutated[(x0, z0)] + bump
            assert not self._fixed_point_holds(a2, rho, mutated)
        for (x0, z0) in pi.entries:
            if x0 == z0:
                continue
            mutated = dict(pi.entries)
            mutated[(x0, z0)] = mutated[(x0, z0)] + bump
            equation = self._fixed_point_holds(a2, rho, mutated)
            neg, zero, _ = mutated[(x0, z0)].split()
            positive = neg.is_zero() and zero.is_zero()
            assert not (equation and positive)

    def test_order_ideal_restriction(self, systems):
        """The recursion on a principal ideal reproduces the restricted table."""
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        rho = rho_table(frozenset(), module)
        full = pi_recursion(rho)
        bits = a2.bruhat_ideals(rho.reps)
        for top in range(len(rho.reps)):
            ideal = [y for y in range(top + 1) if bits[top] >> y & 1]

            def restricted(table):
                """The columns of ``table`` on the ideal, by position in it, as blocks."""
                return [[table._at((x, z)) for x in ideal[:k + 1]] for k, z in enumerate(ideal)]

            sub_reps = tuple(rho.reps[y] for y in ideal)
            sub_rho = BlockTable(a2, rho.gens, rho.ambient, module, sub_reps,
                                 *serial_columns(restricted(rho)))
            assert _blocks(pi_recursion(sub_rho)) == restricted(full)
            assert _blocks(pi_recursion_checked_first(sub_rho)) == restricted(full)

    def test_bad_rho_rejected(self, systems):
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        rho = rho_table(frozenset(), module)
        s = a2.generator(0)
        bad = _with_block(rho, a2.identity, s, LMat([[v(1)]]))  # not antisymmetric
        with pytest.raises(CanonicalisationError):
            pi_recursion(bad)
        outcome = _recursion_outcome(pi_recursion, bad)  # check_rho's report, as when it ran first
        assert outcome.startswith("rho composition identity: FAILED")
        assert outcome == _recursion_outcome(pi_recursion_checked_first, bad)


class TestEngineFirst:
    """``pi_recursion`` runs the engine first and ``check_rho`` only on a rho
    the engine rejects; ``oracles.pi_recursion_checked_first`` checks first.
    Both give the same columns or raise the same text."""

    @pytest.mark.parametrize("case", ["b3_211", "a4-J1-sign"])
    def test_valid_rho_runs_no_check_rho(self, case, monkeypatch):
        import wgraphs.canon as canon

        rho = _rho_of(case)
        expected = _blocks(pi_recursion_checked_first(rho))
        calls = []
        real = canon.check_rho
        monkeypatch.setattr(canon, "check_rho", lambda table: calls.append(table) or real(table))
        assert _blocks(pi_recursion(rho)) == expected
        assert calls == []

    @pytest.mark.parametrize("case", _CASES)
    def test_seeded_corruptions(self, case):
        tables = _seeded_tables(case)
        outcomes = [_recursion_outcome(pi_recursion, table) for table in tables]
        assert outcomes == [_recursion_outcome(pi_recursion_checked_first, table)
                            for table in tables]
        assert not isinstance(outcomes[0], str)
        assert any(isinstance(outcome, str) for outcome in outcomes)

    def test_engine_error_when_check_rho_passes(self, systems):
        """-R passes the composition identity, since (-R) bar(-R) = R bar(R),
        but its diagonal is -1, so the engine's error is raised."""
        a2 = systems["a2"]
        rho = rho_table(frozenset(), trivial_module(a2, frozenset()))
        values = [None if mat is None else mat.scale(-1) for mat in rho.values]
        negated = BlockTable(a2, rho.gens, rho.ambient, rho.module, rho.reps, rho.cols, values)
        assert check_rho(negated).ok
        outcome = _recursion_outcome(pi_recursion, negated)
        assert outcome == "fixed-point residual nonzero at (e,e)"
        assert outcome == _recursion_outcome(pi_recursion_checked_first, negated)


class TestGenericEngine:
    """The engine on an abstract two-element poset a < b, given by position:
    no Coxeter data."""

    ITEMS = ["a", "b"]
    IDEALS = [0b01, 0b11]  # a <= a; a, b <= b

    def test_two_element_poset(self):
        cols = [[LMat.identity(1)], [LMat([[LaurentPoly({1: 1, -1: -1})]]), LMat.identity(1)]]
        pi = _on_blocks(self.ITEMS, self.IDEALS, cols, 1)
        assert pi[1][0] == LMat([[v(1)]])
        assert pi == [[LMat.identity(1)], [LMat([[v(1)]]), LMat.identity(1)]]

    def test_rejects_non_involution(self):
        cols = [[LMat.identity(1)], [LMat([[v(1)]]), LMat.identity(1)]]
        with pytest.raises(CanonicalisationError, match=r"correction term at \(a,b\)"):
            _on_blocks(self.ITEMS, self.IDEALS, cols, 1)

    def test_wide_coefficients(self):
        """r_ab = 2^100 (v - v^-1): the width comes from the coefficients."""
        cols = [[LMat.identity(1)],
                [LMat([[LaurentPoly({1: 2 ** 100, -1: -2 ** 100})]]), LMat.identity(1)]]
        pi = _on_blocks(self.ITEMS, self.IDEALS, cols, 1)
        assert pi[1][0] == LMat([[LaurentPoly({1: 2 ** 100})]])

    @pytest.mark.parametrize("base", [3, 8, 64])
    def test_defect_that_vanishes_at_a_fixed_base(self, base):
        """r_ab = f = 2^(b+1) v - (2^(2b) + 1): alpha = f is not antisymmetric,
        but its defect f + bar(f) is zero at v = 2^b, so only a width taken
        from the coefficients tells it from zero."""
        f = LMat([[LaurentPoly({1: 2 ** (base + 1), 0: -(2 ** (2 * base) + 1)})]])
        assert _evaluate(f + f.bar(), base, 1) == ((),)
        cols = [[LMat.identity(1)], [f, LMat.identity(1)]]
        with pytest.raises(CanonicalisationError,
                           match=r"correction term at \(a,b\) is not antisymmetric"):
            _on_blocks(self.ITEMS, self.IDEALS, cols, 1)

    def test_residual_catches_non_identity_diagonal(self):
        # rho(a, a) = 2 I: no correction term is wrong, only the residual
        # pi(a, a) = rho(a, a) bar(pi(a, a)) can catch it
        cols = [[LMat.identity(1).scale(2)],
                [LMat([[LaurentPoly({1: 1, -1: -1})]]), LMat.identity(1)]]
        with pytest.raises(CanonicalisationError, match="fixed-point residual"):
            _on_blocks(self.ITEMS, self.IDEALS, cols, 1)


def _on_blocks(items, ideals, cols, rank):
    """``canonicalise_shadow`` on columns of blocks, its result read back as blocks."""
    return block_columns(*canonicalise_shadow(items, ideals, *serial_columns(cols), rank))


def _engine_outcome(engine, items, ideals, cols, values, rank):
    """The columns of blocks an engine returns, or the message it raises."""
    try:
        pi = engine(items, ideals, cols, values, rank)
    except CanonicalisationError as error:
        return str(error)
    return block_columns(*pi) if engine is canonicalise_shadow else pi


_TWO = ["a", "b"], [0b01, 0b11]


def _unit(poly):
    return LMat([[poly]])


class TestEngineReference:
    """The integer engine against ``oracles.canonicalise_shadow_lmat``, the
    same recursion with Laurent-matrix sums: equal columns, equal errors."""

    @pytest.mark.parametrize("case", ["b3_211", "a4-J1-sign", "b2_unequal",
                                      "a4-induced-rank-12", "affine-a2-ball-6"])
    def test_equal_columns(self, case):
        rho = _rho_of(case)
        bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
        args = (rho.reps, bits, rho.cols, rho.values, rho.module.rank)
        pi = block_columns(*canonicalise_shadow(*args))
        assert pi == canonicalise_shadow_lmat(*args)
        assert any(mat is not None and not mat.is_zero()
                   for col in pi for mat in col[:-1])

    @pytest.mark.parametrize("case", ["b3_211", "a4-induced-rank-12"])
    def test_equal_errors_on_corrupted_blocks(self, case):
        """Seeded single-entry corruptions of rho, below and on the diagonal:
        each engine returns the same columns or raises the same message."""
        rho = _rho_of(case)
        rng = random.Random(case)
        bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
        r = rho.module.rank
        top = max(abs(g) for mat in rho.entries.values() for g in mat.blocks)
        below = [key for key in rho.entries if key[0] != key[1]]
        messages = set()
        for _ in range(12):
            x, y = rng.choice(below)
            table = _bumped(rho, x, y, rng.randrange(r), rng.randrange(r),
                            rng.randint(-top, top), rng.choice([1, -1, 2 ** 70]))
            args = (table.reps, bits, table.cols, table.values, r)
            outcome = _engine_outcome(canonicalise_shadow, *args)
            assert outcome == _engine_outcome(canonicalise_shadow_lmat, *args)
            messages.add(outcome.split(" at ")[0] if isinstance(outcome, str) else "ok")
        z = rng.choice(rho.reps)
        table = _bumped(rho, z, z, rng.randrange(r), rng.randrange(r), 0, 1)
        args = (table.reps, bits, table.cols, table.values, r)
        outcome = _engine_outcome(canonicalise_shadow, *args)
        assert outcome == _engine_outcome(canonicalise_shadow_lmat, *args)
        assert "residual" in outcome and "correction term" in messages

    @pytest.mark.parametrize("cols", [
        [[LMat.identity(1)], [_unit(LaurentPoly({1: 1, -1: -1})), LMat.identity(1)]],
        [[LMat.identity(1)], [_unit(v(1)), LMat.identity(1)]],
        [[LMat.identity(1).scale(2)], [_unit(LaurentPoly({1: 1, -1: -1})), LMat.identity(1)]],
        [[LMat.identity(1)], [_unit(LaurentPoly({1: 2 ** 100, -1: -2 ** 100})), LMat.identity(1)]],
        *([[LMat.identity(1)], [_unit(LaurentPoly({1: 2 ** (b + 1), 0: -(2 ** (2 * b) + 1)})),
                                LMat.identity(1)]] for b in (3, 8, 64)),
        [[LMat.identity(1)], [None, LMat.identity(1).scale(v(1))]],
    ], ids=["involution", "not-antisymmetric", "diagonal-2", "wide", "base-3", "base-8",
            "base-64", "diagonal-v"])
    def test_two_element_posets(self, cols):
        items, ideals = _TWO
        args = (items, ideals, *serial_columns(cols), 1)
        assert _engine_outcome(canonicalise_shadow, *args) == \
            _engine_outcome(canonicalise_shadow_lmat, *args)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_residual_off_the_diagonal(self, rank):
        """With a <= a given, a non-identity rho_aa fails at (a, a) before any
        column above it, so off the diagonal the residual can only fail where
        the poset omits a <= a: then rho_aa is not read, pi_ab = v is the
        positive part of alpha_a = v - v^-1, and alpha_a + 0 != pi_ab."""
        delta = LMat.identity(rank).scale(LaurentPoly({1: 1, -1: -1}))
        cols = [[LMat.identity(rank)], [delta, LMat.identity(rank)]]
        for engine in (canonicalise_shadow, canonicalise_shadow_lmat):
            with pytest.raises(CanonicalisationError,
                               match=r"fixed-point residual nonzero at \(a,b\)"):
                engine(["a", "b"], [0b00, 0b11], *serial_columns(cols), rank)

    @pytest.mark.parametrize("case", ["b3_211", "a4-induced-rank-12"])
    def test_no_laurent_arithmetic(self, case, monkeypatch):
        """No Laurent-matrix product, sum or kernel call: ``canon`` has no
        ``_dot``, and the engine only evaluates blocks and multiplies
        integers."""
        import wgraphs.canon as canon

        rho = _rho_of(case)
        bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
        args = (rho.reps, bits, rho.cols, rho.values, rho.module.rank)
        expected = canonicalise_shadow_lmat(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("Laurent-matrix arithmetic in canonicalise_shadow")

        for name in ("__matmul__", "__add__", "__sub__", "__neg__", "scale"):
            monkeypatch.setattr(LMat, name, refuse)
        assert not hasattr(canon, "_dot")
        assert block_columns(*canonicalise_shadow(*args)) == expected


class TestPushOrder:
    """Once pi_{yz} is solved, the engine pushes rho_{xy} bar(pi_{yz}) into the
    sum of every x with rho_{xy} stored, and pushes nothing for a zero pi_{yz}:
    it forms exactly the products the interval sums need."""

    @pytest.mark.parametrize("case", ["a4-induced-rank-12", "a4-induced-trivial-rank-3"])
    def test_products_only(self, case, monkeypatch):
        """The products of the completed columns are the pairs (x, y), x < y,
        with rho_{xy} stored, y <= z and pi_{yz} != 0; a column restarted at a
        wider B forms its products again from the start.  The rank-3 module
        has pi_{yz} = 0 at some y <= z below which rho is stored."""
        import wgraphs.canon as canon

        rho = _rho_of(case)
        bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
        args = (rho.reps, bits, rho.cols, rho.values, rho.module.rank)
        counts = {"column": 0, "kept": 0, "restarted": 0}
        mul_into, evaluate, serial_array = canon._mul_into, canon._evaluate, canon.serial_array

        def counted_mul_into(*mul_args):
            counts["column"] += 1
            return mul_into(*mul_args)

        def counted_evaluate(*eval_args):  # rho is evaluated afresh only before a (re)start
            counts["restarted"] += counts["column"]
            counts["column"] = 0
            return evaluate(*eval_args)

        def counted_serial_array(*array_args):  # a column is complete
            counts["kept"] += counts["column"]
            counts["column"] = 0
            return serial_array(*array_args)

        monkeypatch.setattr(canon, "_mul_into", counted_mul_into)
        monkeypatch.setattr(canon, "_evaluate", counted_evaluate)
        monkeypatch.setattr(canon, "serial_array", counted_serial_array)
        pi = block_columns(*canonicalise_shadow(*args))
        assert pi == canonicalise_shadow_lmat(*args)
        stored = [[x for x, serial in enumerate(col[:y]) if serial and bits[y] >> x & 1
                   and not rho.values[serial].is_zero()] for y, col in enumerate(rho.cols)]
        expected = sum(len(stored[y]) for z, col in enumerate(pi) for y, mat in enumerate(col)
                       if bits[z] >> y & 1 and mat is not None and not mat.is_zero())
        assert counts["kept"] == expected
        if case == "a4-induced-rank-12":
            assert counts["restarted"] > 0


def _chain(rank, ideal_a, r_ab, r_ac, r_bc):
    """A chain a < b < c, with a <= a stated iff ``ideal_a``; each rho block
    is a Laurent polynomial times the identity of this rank."""
    def block(poly):
        return None if poly is None else LMat.identity(rank).scale(poly)

    ideals = [ideal_a, 0b011, 0b111]
    cols = [[block(1)], [block(r_ab), block(1)], [block(r_ac), block(r_bc), block(1)]]
    return (["a", "b", "c"], ideals, *serial_columns(cols), rank)


def _family(j, k, l):
    """rho_ab = j delta, rho_bc = k delta, rho_ac = jk (v^-2 - 1) + l delta,
    delta = v - v^-1: pi_bc = k v, alpha_a = l delta in column c, pi_ac = l v,
    R_a = 2j + 2jk + 2l, and M = k when a is solved in column c."""
    delta = LaurentPoly({1: 1, -1: -1})
    return delta * j, LaurentPoly({-2: j * k, 0: -j * k}) + delta * l, delta * k


class TestAdaptiveWidth:
    """The engine starts at the width of the bounds with M = 1 and restarts
    a column at the width its failing bound asks for; the widths it runs at
    are those of ``oracles.certified_widths``, and its result or error is
    that of the Laurent-matrix reference."""

    @staticmethod
    def _run(args, monkeypatch):
        """The engine's outcome, and the widths it evaluated rho at, in order."""
        import wgraphs.canon as canon

        widths, evaluate = [], canon._evaluate

        def recorded(mat, bits, shift):
            if not widths or widths[-1] != bits:
                widths.append(bits)
            return evaluate(mat, bits, shift)

        monkeypatch.setattr(canon, "_evaluate", recorded)
        return _engine_outcome(canonicalise_shadow, *args), widths

    @pytest.mark.parametrize("case", ["b3_211", "a4-J1-sign", "b2_unequal",
                                      "a4-induced-rank-12", "affine-a2-ball-6"])
    def test_hecke_columns_restart(self, case, monkeypatch):
        rho = _rho_of(case)
        bits = rho.system.bruhat_ideals(rho.reps, rho.gens, rho.ambient)
        args = (rho.reps, bits, rho.cols, rho.values, rho.module.rank)
        outcome, widths = self._run(args, monkeypatch)
        assert outcome == canonicalise_shadow_lmat(*args)
        assert widths == certified_widths(*args[1:]) and len(widths) > 1

    @pytest.mark.parametrize("rank", [1, 2])
    def test_largest_m_without_restart(self, rank, monkeypatch):
        """j, k, l = 1, 2, 2: R_a = 10 and B = 7, so at (a, c) the bound
        3 (1 + 10 M) is 63 < 64 for M = 2 = k: no restart, where a bound
        one larger would ask for one."""
        args = _chain(rank, 0b001, *_family(1, 2, 2))
        outcome, widths = self._run(args, monkeypatch)
        assert widths == certified_widths(*args[1:]) == [7]
        assert outcome == canonicalise_shadow_lmat(*args)
        assert outcome[2][0] == LMat.identity(rank).scale(v(1) * 2)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_start_too_small_restarts(self, rank, monkeypatch):
        """j, k, l = 1, 3, 2: R_a = 12 and B = 7 from M = 1, but at (a, c)
        M = 3 and the bound is 111 >= 64: the column restarts at B = 8 and
        pi is the reference's."""
        args = _chain(rank, 0b001, *_family(1, 3, 2))
        outcome, widths = self._run(args, monkeypatch)
        assert widths == certified_widths(*args[1:]) == [7, 8]
        assert outcome == canonicalise_shadow_lmat(*args)
        assert outcome[2][0] == LMat.identity(rank).scale(v(1) * 2)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_bound_equal_to_the_limit_restarts(self, rank, monkeypatch):
        """a <= a not stated, so 2 + nu(rho_aa) is 2; rho_ac = 5v and
        pi_bc = 3v: B = 6, and at (a, c) the bound 2 (1 + 5 * 3) is 32 =
        2^(B-1) exactly, which restarts the column at B = 7 before the
        correction term fails."""
        args = _chain(rank, 0b000, None, v(1) * 5, LaurentPoly({1: 3, -1: -3}))
        outcome, widths = self._run(args, monkeypatch)
        assert widths == certified_widths(*args[1:], columns=3) == [6, 7]
        assert outcome == _engine_outcome(canonicalise_shadow_lmat, *args)
        assert outcome == "correction term at (a,c) is not antisymmetric"
