import itertools
from pathlib import Path

import pytest

from wgraphs import coxeter
from wgraphs.coxeter import (
    CoxeterSystem,
    EnumerationError,
    InvalidSystemError,
    MixedSystemsError,
)
from wgraphs.formats import load_system

from oracles import (
    bruhat_leq_subword,
    enumerate_model,
    eval_word,
    model_for,
    normalize_word,
    peel,
)

_ROOT = Path(__file__).resolve().parent.parent
SYSTEM_FILES = sorted(
    str(p.relative_to(_ROOT))
    for folder in ("systems", "perfbench/systems")
    for p in (_ROOT / folder).glob("*.json")
)


def _path(*labels):
    """Coxeter matrix of a path diagram with the given bond labels."""
    n = len(labels) + 1
    matrix = [[1 if s == t else 2 for t in range(n)] for s in range(n)]
    for s, m in enumerate(labels):
        matrix[s][s + 1] = matrix[s + 1][s] = m
    return matrix


AFFINE_A2 = ((1, 3, 3), (3, 1, 3), (3, 3, 1))


def _e8_matrix():
    matrix = [[1 if s == t else 2 for t in range(8)] for s in range(8)]
    for s, t in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]:  # Bourbaki
        matrix[s][t] = matrix[t][s] = 3
    return matrix


def _radius(system):
    """Radius of the system's cached element table (a ball, not the whole group)."""
    return len(system._cache["table"].words[-1])


def _descents_by_rewriting(system, word):
    """(left, right) descent sets of a reduced word, from Tits rewriting."""
    return tuple(
        {s for s in range(system.rank) if len(normalize_word(system, side(s, word))) < len(word)}
        for side in (lambda s, w: (s,) + w, lambda s, w: w + (s,))
    )


def _classes(system, J, max_length=None):
    """The Deodhar class of s on w, keyed by (s, w), read by position from
    ``coset_listing(J, max_length=...)``: w runs over D_J up to that length."""
    reps, (classes, _) = system.coset_listing(J, max_length=max_length)
    return {(s, w): row[i] for s, row in classes.items() for i, w in enumerate(reps)}


def _d(n):
    matrix = _path(*([3] * (n - 2) + [2]))
    matrix[n - 3][n - 1] = matrix[n - 1][n - 3] = 3
    return matrix


def _diagram(n, *bonds):
    """Coxeter matrix on n generators with bonds (s, t) labelled 3 or
    (s, t, m) labelled m, and 2 elsewhere."""
    matrix = [[1 if s == t else 2 for t in range(n)] for s in range(n)]
    for s, t, *m in bonds:
        matrix[s][t] = matrix[t][s] = m[0] if m else 3
    return matrix


# (name, Coxeter matrix, whether the group is finite): the affine types and
# three hyperbolic paths are infinite, the finite types and a product are not
CLASSIFIED = [
    ("affine-A3", _diagram(4, (0, 1), (1, 2), (2, 3), (3, 0)), False),
    ("affine-B4", _diagram(5, (0, 2), (1, 2), (2, 3), (3, 4, 4)), False),
    ("affine-C3", _path(4, 3, 4), False),
    ("affine-D4", _diagram(5, (0, 1), (0, 2), (0, 3), (0, 4)), False),
    ("affine-D5", _diagram(6, (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)), False),
    ("affine-E6", _diagram(7, (0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)), False),
    ("affine-E7", _diagram(8, *[(s, s + 1) for s in range(6)], (3, 7)), False),
    ("affine-E8", _diagram(9, *[(s, s + 1) for s in range(7)], (2, 8)), False),
    ("affine-F4", _path(3, 3, 4, 3), False),
    ("affine-G2", _path(3, 6), False),
    ("hyperbolic-5333", _path(5, 3, 3, 3), False),
    ("hyperbolic-54", _path(5, 4), False),
    ("hyperbolic-73", _path(7, 3), False),
    ("A5", _path(3, 3, 3, 3), True),
    ("B5", _path(4, 3, 3, 3), True),
    ("D5", _d(5), True),
    ("E6", [row[:6] for row in _e8_matrix()[:6]], True),
    ("E7", [row[:7] for row in _e8_matrix()[:7]], True),
    ("E8", _e8_matrix(), True),
    ("F4", _path(3, 4, 3), True),
    ("H3", _path(5, 3), True),
    ("H4", _path(5, 3, 3), True),
    ("I2(7)", _path(7), True),
    ("A1xI2(9)", _diagram(3, (1, 2, 9)), True),
]


class TestNewSystem:
    @pytest.mark.parametrize(("matrix", "finite"), [case[1:] for case in CLASSIFIED],
                             ids=[case[0] for case in CLASSIFIED])
    def test_finite_type_classifier(self, matrix, finite):
        """An infinite group taken for finite would send every whole-group
        query into an endless enumeration."""
        assert CoxeterSystem(matrix).is_finite is finite

    def test_rank_one(self):
        system = CoxeterSystem(((1,),), (1,))
        assert system.rank == 1 and system.is_finite

    def test_a2(self):
        system = CoxeterSystem(((1, 3), (3, 1)), (1, 1))
        assert system.weights == (1, 1)

    def test_odd_bond_unequal_weights(self):
        with pytest.raises(InvalidSystemError):
            CoxeterSystem(((1, 3), (3, 1)), (1, 2))

    def test_even_bond_unequal_weights_ok(self):
        CoxeterSystem(((1, 4), (4, 1)), (1, 2))

    def test_non_symmetric(self):
        with pytest.raises(InvalidSystemError):
            CoxeterSystem(((1, 3), (4, 1)))

    def test_bad_diagonal(self):
        with pytest.raises(InvalidSystemError):
            CoxeterSystem(((2, 3), (3, 1)))

    def test_bad_offdiagonal(self):
        with pytest.raises(InvalidSystemError):
            CoxeterSystem(((1, 1), (1, 1)))

    def test_nonpositive_weight(self):
        with pytest.raises(InvalidSystemError):
            CoxeterSystem(((1,),), (0,))

    def test_infinite_bond_accepted(self):
        system = CoxeterSystem(((1, 0), (0, 1)))
        assert not system.is_finite


class TestNormalize:
    def test_square_cancels(self, systems):
        assert systems["a2"].element((0, 0)).is_identity()

    def test_braid_move(self, systems):
        a2 = systems["a2"]
        assert a2.element((1, 0, 1)) == a2.element((0, 1, 0))
        assert a2.element((1, 0, 1)).word == (0, 1, 0)

    def test_b2_reduction(self, systems):
        b2 = systems["b2"]
        assert b2.element((0, 1, 0, 1, 0)) == b2.element((1, 0, 1))
        longest = max(b2.elements(), key=lambda x: x.length)
        assert longest.length == 4 and longest.word == (0, 1, 0, 1)

    def test_out_of_range(self, systems):
        with pytest.raises(ValueError):
            systems["a2"].element((2,))


class TestRootEnumeration:
    """The root-image element table against the Tits rewriting oracle, entry by entry."""

    @pytest.mark.parametrize(
        "matrix, weights, radius, size",
        [
            (_path(3, 3), None, None, 24),
            (_path(4, 3), None, None, 48),
            (_path(5, 3), None, None, 120),
            (_d(4), None, None, 192),
            (_path(5), None, None, 10),
            (_path(8), (1, 3), None, 16),
            (_path(0), None, 6, 13),
            (((1, 3, 3), (3, 1, 3), (3, 3, 1)), None, 5, 46),
            (_path(5, 4), None, 6, 66),
        ],
        ids=["a3", "b3", "h3", "d4", "i2_5", "i2_8_13", "affine_a1", "affine_a2", "hyperbolic_5_4"],
    )
    def test_table_against_rewriting(self, matrix, weights, radius, size):
        system = CoxeterSystem(matrix, weights)
        table = system._table(radius)
        # the queries below grow the table: compare against it as built
        words, lmult = list(table.words), [list(row) for row in table.lmult]
        assert len(words) == size and table.complete == (radius is None)
        assert [(len(w), w) for w in words] == sorted((len(w), w) for w in words)
        assert all(table.index[w] == i for i, w in enumerate(words))
        for i, word in enumerate(words):
            x = system.element(word)
            assert x.word == word
            assert system.inverse(x).word == normalize_word(system, tuple(reversed(word)))
            descents = set(), set()
            for s in range(system.rank):
                left = normalize_word(system, (s,) + word)
                right = normalize_word(system, word + (s,))
                got = lmult[s][i]
                if got is None:
                    assert radius is not None and len(left) > radius
                else:
                    assert words[got] == left
                assert system.mult(system.generator(s), x).word == left
                assert system.mult(x, system.generator(s)).word == right
                for side, product in zip(descents, (left, right)):
                    if len(product) < len(word):
                        side.add(s)
            assert (x.left_descents(), x.right_descents()) == descents

    @pytest.mark.parametrize(
        "matrix, order, longest",
        [
            (_path(3, 3, 3, 3), 720, 15),
            (_d(5), 1920, 20),
            (_path(4, 3, 3, 3), 3840, 25),
            (_path(3, 4, 3), 1152, 24),
            (_path(5, 3, 3), 14400, 60),
        ],
        ids=["a5", "d5", "b5", "f4", "h4"],
    )
    def test_group_order_and_longest_length(self, matrix, order, longest):
        system = CoxeterSystem(matrix)
        table = system._table()
        assert table.complete and len(table.words) == order
        assert [len(w) for w in table.words].count(longest) == 1
        assert len(table.words[-1]) == longest
        for row in table.lmult:
            assert all(row[row[i]] == i != row[i] for i in range(order))
        gens = [system.generator(s) for s in range(system.rank)]
        for x in system.elements():
            for g in gens:
                xg = x * g
                assert xg * g == x != xg


class TestBallGrowth:
    """Word queries grow the element table on demand and match Tits rewriting.

    A walk that steps out of the ball grows it by one length, in place;
    the same words come from a fresh system, from a small ball that grows
    and from a large ball.
    """

    WORDS = [(0, 0), (1, 0, 1), (0, 1, 2, 1, 0, 2), (2, 1, 0, 1, 2, 1), (0, 1, 2, 0, 1, 2, 0)]

    def _queries(self, system):
        out = []
        for before, word in zip(self.WORDS[-1:] + self.WORDS, self.WORDS):
            x, y = system.element(word), system.element(before)
            out.append((x.word, system.inverse(x).word, system.mult(x, y).word,
                        system.mult(y, x).word))
        return out

    def _rewritten(self, system):
        out = []
        for before, word in zip(self.WORDS[-1:] + self.WORDS, self.WORDS):
            x, y = normalize_word(system, word), normalize_word(system, before)
            out.append((x, normalize_word(system, x[::-1]), normalize_word(system, x + y),
                        normalize_word(system, y + x)))
        return out

    def test_fresh_system(self):
        built = CoxeterSystem(_path(3, 3))
        built.elements()
        fresh = CoxeterSystem(_path(3, 3))
        assert self._queries(fresh) == self._queries(built) == self._rewritten(built)

    def test_small_ball_grows(self):
        large = CoxeterSystem(AFFINE_A2)
        large.elements(max_length=14)  # holds every product of two WORDS
        small = CoxeterSystem(AFFINE_A2)
        small.elements(max_length=3)
        assert self._queries(small) == self._queries(large) == self._rewritten(large)
        assert _radius(large) == 14 and 3 < _radius(small) <= 14

    def test_growth_radius(self):
        fresh = CoxeterSystem(AFFINE_A2)
        assert fresh.element((0, 1, 0, 2)).word == (0, 1, 0, 2) and _radius(fresh) == 4
        system = CoxeterSystem(AFFINE_A2)
        system.elements(max_length=3)
        x, y = system.element((0, 1, 2)), system.element((0, 1))
        assert _radius(system) == 3
        # the walk leaves the ball at length 3 with two letters left
        assert system.mult(x, y).word == normalize_word(system, (0, 1, 2, 0, 1))
        assert _radius(system) == 5

    def test_cancelling_words_stay_small(self):
        # (s s)^n is the identity: the ball must not grow with the word
        for matrix, n in ((_path(5, 4), 12), (AFFINE_A2, 30)):
            fresh = CoxeterSystem(matrix)
            assert fresh.element((0, 0) * n).is_identity()
            assert _radius(fresh) <= 2

    def test_descents_on_the_ball_boundary(self):
        # a neighbour missing from the ball is longer: the ball need not grow
        system = CoxeterSystem(AFFINE_A2)
        ball = system.elements(max_length=3)
        expected = [_descents_by_rewriting(system, x.word) for x in ball]
        assert [(x.left_descents(), x.right_descents()) for x in ball] == expected
        assert _radius(system) == 3

    def test_e8_without_whole_group(self):
        # E8 has 696,729,600 elements; its ball of radius 8 has 9,866
        matrix = _e8_matrix()
        system = CoxeterSystem(matrix)
        assert len(CoxeterSystem(matrix).elements(max_length=8)) == 9866
        word = (0, 2, 3, 1, 4, 3, 5, 6)
        w = system.element(word)
        assert w.word == normalize_word(system, word) and w.length == 8
        assert system.inverse(w).word == normalize_word(system, word[::-1])
        assert (w.left_descents(), w.right_descents()) == _descents_by_rewriting(system, w.word)
        J = frozenset(range(8)) - w.right_descents()
        classes = _classes(system, J, max_length=w.length)
        for s in range(8):
            sw = normalize_word(system, (s,) + w.word)
            assert system.mult(system.generator(s), w).word == sw
            # Deodhar: sw < w, or sw = wt with t in J, or sw is a coset rep
            conj = [t for t in sorted(J) if normalize_word(system, w.word + (t,)) == sw]
            expected = "minus" if len(sw) < w.length else "zero" if conj else "plus"
            got = classes[s, w]
            assert (got.tag, got.conj) == (expected, conj[0] if conj else None)
        below = {normalize_word(system, sub) for k in range(9)
                 for sub in itertools.combinations(w.word, k)}
        pairs = {normalize_word(system, pair) for pair in itertools.product(range(8), repeat=2)}
        for xw in sorted(below | pairs):
            x = system.element(xw)
            assert system.bruhat_leq(x, w) == bruhat_leq_subword(system, x, w) == (xw in below)
        table = system._cache["table"]
        assert not table.complete and _radius(system) == 9 and len(table.words) == 17866

    def test_e8_deodhar_does_not_grow_the_ball(self):
        # the class of s on w at the edge of the ball of radius 8 is read in
        # that ball: its zero classes are recorded as the edge is added and a
        # missing s*w is longer, so no layer is added (radius 9 has 17,866)
        system = CoxeterSystem(_e8_matrix())
        w = system.elements(max_length=8)[-1]
        assert w.length == 8
        classes = system.coset_listing((), max_length=8)[1][0]
        minus = {s for s in range(8) if classes[s][-1].tag == "minus"}
        assert minus == _descents_by_rewriting(system, w.word)[0]
        assert _radius(system) == 8 and len(system._cache["table"].words) == 9866

    def test_e8_coset_splits_read_the_ball_of_w(self):
        # Deodhar classes of w on D_J read the tables of radius l(w), never
        # the whole of D_J (all of E8 for J = {})
        system = CoxeterSystem(_e8_matrix())
        w = system.element((0, 2, 3, 1, 4))
        classes = _classes(system, (), max_length=w.length)
        assert [classes[s, w].tag for s in range(8)] == ["minus"] + ["plus"] * 7
        classes = _classes(system, (0, 2, 3), max_length=w.length)
        assert [(classes[s, w].tag, classes[s, w].conj) for s in range(4)] == [
            ("minus", None), ("plus", None), ("zero", 0), ("zero", 2)]
        assert w not in system.coset_listing((1,), max_length=w.length)[0]
        tables = [t for key, t in system._cache.items() if key == "table" or key[0] == "table"]
        assert tables and all(len(t.words[-1]) <= 5 for t in tables)
        assert max(len(t.words) for t in tables) < 10 ** 4

    def test_deodhar_on_the_ball_edge(self, monkeypatch):
        builds = []
        real = coxeter._ElementTable.__init__

        def counted(self, system, J, K):
            builds.append((id(system), J, K))
            real(self, system, J, K)

        monkeypatch.setattr(coxeter._ElementTable, "__init__", counted)
        small, large = CoxeterSystem(AFFINE_A2), CoxeterSystem(AFFINE_A2)
        small.elements(max_length=8)
        large.elements(max_length=12)
        subsets = [frozenset(J) for k in range(4) for J in itertools.combinations(range(3), k)]
        for length in range(9):  # a table of D_J (J nonempty) is read at its edge
            for J in subsets:
                assert small.coset_listing(J, max_length=length) == large.coset_listing(
                    J, max_length=length)
        assert _radius(small) == 8 and _radius(large) == 12
        # the tables grow: one build per system and (J, K), none per length
        assert len(builds) == len(set(builds)) == 2 * len(subsets)

    @pytest.mark.parametrize("matrix", [AFFINE_A2, _path(5, 4)],
                             ids=["affine_a2", "hyperbolic_5_4"])
    def test_grown_in_steps_equals_grown_at_once(self, matrix):
        # ideals gathered on the smaller balls stay valid as the table grows
        stepped, fresh = CoxeterSystem(matrix), CoxeterSystem(matrix)
        for J, K in [((), None), ((0,), None), ((0, 2), None), ((1,), (0, 1))]:
            J, K = frozenset(J), None if K is None else frozenset(K)
            for radius in (1, 3, 4):
                table = stepped._table(radius, J, K)
                for i in range(len(table.words)):
                    table.ideal(i)
            grown, once = stepped._table(7, J, K), fresh._table(7, J, K)
            assert grown.words == once.words
            assert grown.lmult == once.lmult and grown.conj == once.conj
            assert ([grown.ideal(i) for i in range(len(grown.words))]
                    == [once.ideal(i) for i in range(len(once.words))])


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2", "b3", "i2_5"])
class TestAgainstModelGroups:
    """Canonical words, lengths and products agree with concrete models."""

    def test_enumeration(self, systems, name):
        gens, mult, ident = model_for(name)
        model = enumerate_model(gens, mult, ident)
        ours = systems[name].elements()
        assert len(ours) == len(model)
        model_words = sorted(word for (_, word) in model.values())
        assert sorted(x.word for x in ours) == model_words
        for x in ours:
            elt = eval_word(x.word, gens, mult, ident)
            assert model[elt][0] == x.length

    def test_multiplication(self, systems, name):
        system = systems[name]
        gens, mult, ident = model_for(name)
        elements = system.elements()
        if len(elements) > 24:
            elements = elements[::3]
        for x in elements:
            for y in elements:
                ours = system.mult(x, y)
                model = mult(
                    eval_word(x.word, gens, mult, ident),
                    eval_word(y.word, gens, mult, ident),
                )
                assert eval_word(ours.word, gens, mult, ident) == model

    def test_inverse(self, systems, name):
        system = systems[name]
        for x in system.elements():
            assert system.mult(x, x.inverse()).is_identity()
            assert x.inverse().length == x.length


class TestDescentsAndMult:
    def test_identity_law(self, systems):
        a2 = systems["a2"]
        for x in a2.elements():
            assert a2.mult(a2.identity, x) == x
            assert a2.mult(x, a2.identity) == x

    def test_left_descents_st(self, systems):
        a2 = systems["a2"]
        st = a2.element((0, 1))
        assert a2.left_descents(st) == frozenset({0})

    def test_right_descents_longest(self, systems):
        a2 = systems["a2"]
        sts = a2.element((0, 1, 0))
        assert a2.right_descents(sts) == frozenset({0, 1})

    def test_descents_vs_definition(self, systems):
        for name in ("a2", "b2"):
            system = systems[name]
            for x in system.elements():
                for s in range(system.rank):
                    sx = system.mult(system.generator(s), x)
                    assert (s in system.left_descents(x)) == (sx.length < x.length)
                    xs = system.mult(x, system.generator(s))
                    assert (s in system.right_descents(x)) == (xs.length < x.length)

    def test_mixed_systems(self, systems):
        with pytest.raises(MixedSystemsError):
            systems["a2"].mult(systems["a2"].identity, systems["b2"].identity)


class TestBruhat:
    def test_identity_minimum(self, systems):
        a2 = systems["a2"]
        for z in a2.elements():
            assert a2.bruhat_leq(a2.identity, z)

    def test_a2_examples(self, systems):
        a2 = systems["a2"]
        s, t = a2.generator(0), a2.generator(1)
        assert a2.bruhat_leq(s, t * s)
        assert not a2.bruhat_leq(s * t, t * s)

    @pytest.mark.parametrize("name", ["a2", "a3", "b2", "b3", "i2_5"])
    def test_subword_characterisation(self, systems, name):
        system = systems[name]
        for x in system.elements():
            for z in system.elements():
                assert system.bruhat_leq(x, z) == bruhat_leq_subword(system, x, z)

    @pytest.mark.parametrize(
        "matrix",
        [((1, 0), (0, 1)), ((1, 3, 3), (3, 1, 3), (3, 3, 1))],
        ids=["infinite_dihedral", "affine_a2"],
    )
    def test_subword_characterisation_infinite_ball(self, matrix):
        system = CoxeterSystem(matrix)
        ball = system.elements(max_length=4)
        for x in ball:
            for z in ball:
                assert system.bruhat_leq(x, z) == bruhat_leq_subword(system, x, z)

    @pytest.mark.parametrize("path", SYSTEM_FILES)
    def test_bruhat_ideals_match_pairwise(self, path):
        # every J inside K = S and inside every maximal K of every system file;
        # infinite groups as the ball of radius 8
        system = load_system(str(_ROOT / path))
        radius = None if system.is_finite else 8
        full = system.generator_set
        for size in range(system.rank + 1):
            for J in map(frozenset, itertools.combinations(range(system.rank), size)):
                for K in [full] + [full - {u} for u in sorted(full - J)]:
                    reps = system.min_coset_reps(J, K, radius)
                    bits = system.bruhat_ideals(reps, J, K)
                    assert bits == system.bruhat_ideals(reps)  # as a list of elements of W
                    assert len(bits) == len(reps)
                    for i, z in enumerate(reps):
                        assert bits[i] >> (i + 1) == 0
                        for j in range(i + 1):
                            assert bool(bits[i] >> j & 1) == system.bruhat_leq(reps[j], z)

    @pytest.mark.parametrize("path", ["systems/affine_a1.json", "perfbench/systems/affine_a2.json"])
    def test_ideals_on_a_regrown_ball(self, path):
        """Ideals gathered on the ball of radius 4, where the boundary has
        neighbours outside the ball, and again after it grows to 8."""
        system, fresh = (load_system(str(_ROOT / path)) for _ in range(2))
        small = system.elements(max_length=4)
        bits = system.bruhat_ideals(small)
        for i, z in enumerate(small):
            for j, x in enumerate(small[:i + 1]):
                assert bool(bits[i] >> j & 1) == bruhat_leq_subword(system, x, z)
        ball = system.elements(max_length=8)  # grows the cached table
        grown = system.bruhat_ideals(ball)
        assert grown[:len(small)] == bits
        fresh_ball = fresh.elements(max_length=8)  # radius 8 from the start
        for i, z in enumerate(fresh_ball):
            for j, x in enumerate(fresh_ball):
                assert bool(grown[i] >> j & 1) == fresh.bruhat_leq(x, z)

    def test_bruhat_ideals_need_sorted_input(self, systems):
        a2 = systems["a2"]
        assert a2.bruhat_ideals([]) == []
        with pytest.raises(ValueError):
            a2.bruhat_ideals(a2.elements()[::-1])
        with pytest.raises(ValueError):
            a2.bruhat_ideals([a2.identity, a2.identity])

    def test_fresh_system_without_table(self, systems):
        # every query starts on a system that has enumerated nothing yet
        b2 = systems["b2"]
        for x in b2.elements():
            for z in b2.elements():
                fresh = CoxeterSystem(b2.matrix)
                assert "table" not in fresh._cache
                got = fresh.bruhat_leq(fresh.element(x.word), fresh.element(z.word))
                assert got == bruhat_leq_subword(b2, x, z)

    def test_infinite_ball_grows_for_longer_z(self):
        system = CoxeterSystem(AFFINE_A2)
        small = system.elements(max_length=3)
        # elements of an equal system leave this system's table alone
        other = CoxeterSystem(AFFINE_A2)
        xs = other.elements(max_length=6)
        z3 = system.element((0, 1, 2))
        z5 = other.element((0, 1, 2, 0, 1))
        assert (z3.length, z5.length) == (3, 5)
        before = [system.bruhat_leq(x, z3) for x in small]
        assert _radius(system) == 3
        for x in xs:
            assert system.bruhat_leq(x, z5) == bruhat_leq_subword(system, x, z5)
        assert _radius(system) == 5
        # a walk to z5 stays inside the grown ball
        assert system.element(z5.word) == z5 and _radius(system) == 5
        assert before == [system.bruhat_leq(x, z3) for x in small]
        assert before == [bruhat_leq_subword(system, x, z3) for x in small]


class TestCosets:
    def test_full_j_gives_identity(self, systems):
        for name in ("a2", "b2", "a3"):
            system = systems[name]
            reps = system.min_coset_reps(system.generator_set)
            assert reps == [system.identity]

    def test_a2_j_s(self, systems):
        a2 = systems["a2"]
        reps = a2.min_coset_reps({0})
        assert [str(x) for x in reps] == ["e", "2", "12"]

    def test_empty_j(self, systems):
        a2 = systems["a2"]
        assert len(a2.min_coset_reps(frozenset())) == 6

    def test_full_k_is_whole_group(self, systems):
        a3 = systems["a3"]
        assert a3.generator_set is a3.generator_set == frozenset(range(3))  # built once
        for J in (frozenset(), {0}, {0, 2}):
            assert a3.min_coset_reps(J, K=a3.generator_set) == a3.min_coset_reps(J)
        affine = CoxeterSystem(((1, 3, 3), (3, 1, 3), (3, 3, 1)))
        assert affine.min_coset_reps({0}, K={0, 1, 2}, max_length=4) == (
            affine.min_coset_reps({0}, max_length=4)
        )

    def test_sorted_by_shortlex(self, systems):
        for name in ("a3", "b2"):
            system = systems[name]
            for size in range(system.rank + 1):
                for J in itertools.combinations(range(system.rank), size):
                    reps = system.min_coset_reps(frozenset(J))
                    keys = [(x.length, x.word) for x in reps]
                    assert keys == sorted(keys)

    def test_length_additive_on_cosets(self, systems):
        for name in ("a2", "b2", "a3"):
            system = systems[name]
            for size in range(system.rank + 1):
                for J in itertools.combinations(range(system.rank), size):
                    J = frozenset(J)
                    for x in system.min_coset_reps(J):
                        for u in system.min_coset_reps((), J):
                            assert system.mult(x, u).length == x.length + u.length


class TestCosetTable:
    """The table of D_J inside W_K against the element table filtered by right
    descents: the same words, Deodhar classes and positions of s*x (its
    Bruhat order is checked in ``TestBruhat``)."""

    @staticmethod
    def _reference(table, rows, J, K, radius):
        """(words, classes, shifted) of D_J inside W_K up to ``radius``, from an
        element table that also holds every s*x, and from ``rows[t][i]``, the
        word of x*t for the i-th element x of length at most ``radius``."""
        lefts = table.lmult
        ids = [i for i, w in enumerate(table.words)
               if (radius is None or len(w) <= radius) and set(w) <= K
               and not any(len(rows[t][i]) < len(w) for t in J)]
        position = {ident: pos for pos, ident in enumerate(ids)}
        classes, shifted = {}, {}
        for s in sorted(K):
            classes[s], shifted[s] = [], []
            for i in ids:
                sx = lefts[s][i]
                conj = [t for t in J if rows[t][i] == table.words[sx]]
                tag = "minus" if sx < i else "zero" if conj else "plus"
                classes[s].append((tag, conj[0] if conj else None))
                shifted[s].append(None if conj else position.get(sx))
        return [table.words[i] for i in ids], classes, shifted

    @pytest.mark.parametrize("path", SYSTEM_FILES)
    def test_against_filtered_element_table(self, path):
        # every J inside K = S and inside every maximal K; infinite groups as
        # the ball of radius 8, read from an element table of radius 9
        system = load_system(str(_ROOT / path))
        radius = None if system.is_finite else 8
        elements = system._table(None if radius is None else radius + 1)
        inner = system.elements(radius)
        assert [x.word for x in inner] == elements.words[:len(inner)]
        rows = [[system.mult(x, system.generator(t)).word for x in inner]
                for t in range(system.rank)]
        full = system.generator_set
        for size in range(system.rank + 1):
            for J in map(frozenset, itertools.combinations(range(system.rank), size)):
                for K in [full] + [full - {u} for u in sorted(full - J)]:
                    reps, (got_classes, got_shifted) = system.coset_listing(J, K, radius)
                    words, classes, shifted = self._reference(elements, rows, J, K, radius)
                    assert [x.word for x in reps] == words
                    assert system.min_coset_reps(J, K, radius) == reps
                    assert got_shifted == shifted
                    assert {s: [(c.tag, c.conj) for c in row]
                            for s, row in got_classes.items()} == classes

    def test_bruhat_ideals_need_d_j_in_order(self, systems):
        b3 = systems["b3"]
        reps = b3.min_coset_reps({0})
        for bad in (reps[::-1], reps + [b3.element((0,))]):
            with pytest.raises(ValueError):
                b3.bruhat_ideals(bad, {0})
        with pytest.raises(ValueError):
            b3.bruhat_ideals(reps, {1})

    def test_e8_over_e7_without_the_group(self):
        matrix = [[1 if s == t else 2 for t in range(8)] for s in range(8)]
        for s, t in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]:  # Bourbaki
            matrix[s][t] = matrix[t][s] = 3
        system = CoxeterSystem(matrix)
        J = frozenset(range(7))
        reps, (classes, shifted) = system.coset_listing(J)
        assert len(reps) == 240 and reps[-1].length == 57
        # the longest representative: every s is a left descent or a zero class
        assert all(row[-1].tag != "plus" for row in classes.values())
        for row in shifted.values():  # s*(s*x) = x outside the zero class
            assert all(up is None or row[up] == i for i, up in enumerate(row))
        assert "table" not in system._cache


class TestDeodhar:
    def test_a2_examples(self, systems):
        a2 = systems["a2"]
        reps, (classes, _) = a2.coset_listing({0})
        assert [x.word for x in reps] == [(), (1,), (0, 1)]
        assert [(c.tag, c.conj) for c in classes[0]] == [("zero", 0), ("plus", None),
                                                        ("minus", None)]

    @pytest.mark.parametrize("name", ["a2", "a3", "b2"])
    def test_totality_and_exclusivity(self, systems, name):
        """Exactly one case applies, and the case data is consistent."""
        system = systems[name]
        for size in range(system.rank + 1):
            for J in itertools.combinations(range(system.rank), size):
                J = frozenset(J)
                classes = _classes(system, J)
                d_j = {w for _, w in classes}
                for w in d_j:
                    for s in range(system.rank):
                        cls = classes[s, w]
                        sw = system.mult(system.generator(s), w)
                        if cls.tag == "minus":
                            assert sw.length < w.length and sw in d_j
                        elif cls.tag == "plus":
                            assert sw.length > w.length and sw in d_j
                        else:
                            assert sw.length > w.length and sw not in d_j
                            assert cls.conj in J
                            wt = system.mult(w, system.generator(cls.conj))
                            assert wt == sw

    @pytest.mark.parametrize("matrix,weights", [
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], (2, 1, 1)),
        ([[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], (3, 1, 1, 1)),
        ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]], (2, 2, 1, 1)),
        ([[1, 8], [8, 1]], (1, 3)),
    ])
    def test_zero_class_keeps_the_weight(self, matrix, weights):
        """s*x = x*t makes s and t conjugate, hence joined by odd bonds, which
        force equal weights: every zero class of every listing of D_J inside
        W_K has L(s) = L(t), so induction and conjugation never meet two."""
        system = CoxeterSystem(matrix, weights)
        subsets = [frozenset(c) for size in range(system.rank + 1)
                   for c in itertools.combinations(range(system.rank), size)]
        zeros = 0
        for J, K in itertools.product(subsets, repeat=2):
            if J <= K:
                classes = system.coset_listing(J, K)[1][0]
                for s, row in classes.items():
                    conj = [cls.conj for cls in row if cls.tag == "zero"]
                    assert all(system.weight(t) == system.weight(s) for t in conj)
                    zeros += len(conj)
        assert zeros > 0 and len(set(weights)) > 1


class TestDoubleCosets:
    @pytest.mark.parametrize("name", ["a2", "a3", "b2"])
    def test_factorization_bijection(self, systems, name):
        """D_K x D_J^K -> D_J is a length-additive bijection for J <= K."""
        system = systems[name]
        subsets = [
            frozenset(J)
            for size in range(system.rank + 1)
            for J in itertools.combinations(range(system.rank), size)
        ]
        for J in subsets:
            for K in subsets:
                if not J <= K:
                    continue
                d_j = system.min_coset_reps(J)
                d_k = system.min_coset_reps(K)
                d_jk = system.min_coset_reps(J, K=K)
                pairs = {}
                for x in d_k:
                    for y in d_jk:
                        xy = system.mult(x, y)
                        assert xy.length == x.length + y.length
                        pairs[xy] = (x, y)
                assert set(pairs) == set(d_j)
                for w in d_j:
                    assert peel(system, J, K, w, left=False) == pairs[w]

    @pytest.mark.parametrize("name", ["a2", "a3", "b2"])
    def test_class_partition_of_products(self, systems, name):
        """Deodhar data of xy for the smaller subset, from the K-side data."""
        system = systems[name]
        subsets = [
            frozenset(J)
            for size in range(system.rank + 1)
            for J in itertools.combinations(range(system.rank), size)
        ]
        classes = {J: _classes(system, J) for J in subsets}
        for J in subsets:
            for K in subsets:
                if not J <= K:
                    continue
                for x in system.min_coset_reps(K):
                    for y in system.min_coset_reps(J, K=K):
                        xy = system.mult(x, y)
                        for s in range(system.rank):
                            outer = classes[K][s, x]
                            got = classes[J][s, xy].tag
                            if outer.tag == "plus":
                                assert got == "plus"
                            elif outer.tag == "minus":
                                assert got == "minus"
                            else:
                                inner = classes[J][outer.conj, y]
                                assert got == inner.tag

    @pytest.fixture(params=["a2", "a3", "b2", "b2_unequal", "b3", "i2_5", "affine_a1"])
    def ball(self, request, systems):
        """(system, max_length): a finite system whole, affine A1 up to length 4."""
        if request.param == "affine_a1":
            return load_system(str(_ROOT / "systems/affine_a1.json")), 4
        return systems[request.param], None

    @staticmethod
    def _subsets(system):
        return [frozenset(J) for size in range(system.rank + 1)
                for J in itertools.combinations(range(system.rank), size)]

    @staticmethod
    def _filtered(elements, J=frozenset(), K=None, left=frozenset()):
        """The elements inside W_K with no right descent in J and no left one in ``left``."""
        return [x for x in elements if (K is None or set(x.word) <= K)
                and not x.right_descents() & J and not x.left_descents() & left]

    def test_factorize_against_references(self, ball):
        """Right descent peeling, the reference for the tower's index rule,
        equals the one length-additive split x*y found among all pairs, for
        every J <= K."""
        system, radius = ball
        elements = system.elements(radius)
        for K in self._subsets(system):
            d_k = self._filtered(elements, J=K)
            for J in self._subsets(system):
                if not J <= K:
                    continue
                d_jk = self._filtered(elements, J, K)
                pairs = {system.mult(x, y): (x, y) for x in d_k for y in d_jk
                         if radius is None or x.length + y.length <= radius}
                for w in system.min_coset_reps(J, max_length=radius):
                    assert peel(system, J, K, w, left=False) == pairs[w]

    def test_double_cosets_against_references(self, ball):
        """Left descent peeling, the reference for Mackey's stripping, equals
        the split u*a with u in W_K and a in the descent filter of the
        W_K-W_J double coset representatives."""
        system, radius = ball
        elements = system.elements(radius)
        for K in self._subsets(system):
            w_k = self._filtered(elements, K=K)
            for J in self._subsets(system):
                reps = self._filtered(elements, J, left=K)
                splits = {system.mult(u, a): (u, a) for a in reps for u in w_k
                          if radius is None or u.length + a.length <= radius}
                for x in system.min_coset_reps(J, max_length=radius):
                    assert peel(system, J, K, x, left=True) == splits[x]


class TestInfinite:
    def test_requires_cutoff(self):
        system = CoxeterSystem(((1, 0), (0, 1)))
        with pytest.raises(EnumerationError):
            system.elements()

    def test_ball(self):
        system = CoxeterSystem(((1, 0), (0, 1)))
        ball = system.elements(max_length=5)
        # infinite dihedral: exactly two elements of each positive length
        assert len(ball) == 11
        assert system.element((0, 1, 0, 1)).length == 4

    def test_affine_a2_ball(self):
        system = CoxeterSystem(((1, 3, 3), (3, 1, 3), (3, 3, 1)))
        assert not system.is_finite
        counts = {}
        for x in system.elements(max_length=4):
            counts[x.length] = counts.get(x.length, 0) + 1
        # growth series of the affine A2 group starts 1, 3, 6, 9, 12
        assert counts == {0: 1, 1: 3, 2: 6, 3: 9, 4: 12}
