import itertools
from pathlib import Path

import pytest

from wgraphs.cells import (
    cell_partition,
    down_set_vertices,
    induced_cells_check,
    inner_cells,
    span_is_stable,
)
from wgraphs.coxeter import CoxeterSystem
from wgraphs.formats import load_system
from wgraphs.hy import _tower_positions, induce, induce_along
from wgraphs.report import Report
from wgraphs.wgraph import OmegaModule, sign_module, trivial_module

from oracles import closure_cells, induced_cells_by_products, kl_graph, rs_classes, sparse

ROOT = Path(__file__).resolve().parent.parent


def coxeter_matrix(rank, bonds):
    """The Coxeter matrix with m(s, t) from ``bonds`` ({(s, t): m}) and 2 elsewhere."""
    matrix = [[1 if s == t else 2 for t in range(rank)] for s in range(rank)]
    for (s, t), m in bonds.items():
        matrix[s][t] = matrix[t][s] = m
    return matrix


class TestKnownCellCounts:
    """Left cells of the regular W-graph: type A_n has one per involution of S_(n+1)."""

    @pytest.mark.parametrize(
        "rank,bonds,count",
        [
            (3, {(0, 1): 3, (1, 2): 3}, 10),  # A3
            (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}, 26),  # A4
            (3, {(0, 1): 5, (1, 2): 3}, 22),  # H3
            (4, {(0, 1): 3, (1, 2): 3, (1, 3): 3}, 36),  # D4
            (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}, 72),  # F4 (Takahashi, 1990)
        ],
        ids=["a3", "a4", "h3", "d4", "f4"],
    )
    def test_left_cell_count(self, rank, bonds, count):
        graph = kl_graph(CoxeterSystem(coxeter_matrix(rank, bonds)))[0]
        assert len(cell_partition(graph).blocks) == count

    @pytest.mark.parametrize("rank,count", [(3, 10), (4, 26), (5, 76)], ids=["a3", "a4", "a5"])
    def test_type_a_cells_are_q_symbol_classes(self, rank, count):
        """Left cells are the classes of equal Robinson-Schensted Q-symbol,
        not of equal P-symbol (generator i acting on the right)."""
        bonds = {(s, s + 1): 3 for s in range(rank - 1)}
        graph, elements = kl_graph(CoxeterSystem(coxeter_matrix(rank, bonds)))
        blocks = list(cell_partition(graph).blocks)
        assert len(blocks) == count
        assert blocks == rs_classes(elements, 1) != rs_classes(elements, 0)


def b_involutions(n):
    """The number of involutions of W(B_n), the signed permutations of n
    letters: a(n) = 2 a(n-1) + 2 (n-1) a(n-2), a(0) = 1, a(1) = 2 (n fixes
    itself with either sign, or pairs with one of the n-1 others in two ways)."""
    counts = [1, 2]
    for k in range(2, n + 1):
        counts.append(2 * counts[-1] + 2 * (k - 1) * counts[-2])
    return counts[n]


class TestAsymptoticCellCounts:
    """B_n with weight b on the generator at the 4-bond end and 1 on the rest.

    For b > n - 1, the asymptotic case, every left cell module of the
    regular W-graph is irreducible (Bonnafe and Iancu, Left cells in type
    B_n with unequal parameters, Represent. Theory 7, 2003).  Each
    irreducible character chi occurs chi(1) times in the regular module,
    so the number of left cells is the sum of chi(1) over the
    irreducibles.  Every irreducible representation of a finite Coxeter
    group can be realised over R (Frobenius-Schur indicator +1), so by
    Frobenius-Schur that sum is the number of involutions.  Other weights
    give other counts.
    """

    @staticmethod
    def left_cells(weights):
        n = len(weights)
        bonds = {(0, 1): 4, **{(s, s + 1): 3 for s in range(1, n - 1)}}
        system = CoxeterSystem(coxeter_matrix(n, bonds), weights)
        return len(cell_partition(kl_graph(system)[0]).blocks)

    @pytest.mark.parametrize("weights", [(2, 1), (3, 1), (3, 1, 1), (4, 1, 1, 1)],
                             ids=["b2_21", "b2_31", "b3_311", "b4_4111"])
    def test_asymptotic_counts_are_involutions(self, weights):
        assert self.left_cells(weights) == b_involutions(len(weights))

    @pytest.mark.parametrize("weights,count", [((2, 1, 1), 16), ((3, 1, 1, 1), 68),
                                               ((1, 1, 1, 1), 50)],
                             ids=["b3_211", "b4_3111", "b4_equal"])
    def test_other_weights_differ(self, weights, count):
        assert count != b_involutions(len(weights))
        assert self.left_cells(weights) == count


class TestCellPartition:
    def test_single_vertex(self, systems):
        module = sign_module(systems["a2"], {0, 1})
        partition = cell_partition(module)
        assert partition.blocks == (frozenset({0}),)
        assert partition.order == frozenset()

    def test_a1(self, systems):
        graph, elements = kl_graph(systems["a1"])
        partition = cell_partition(graph)
        names = [str(w) for w in elements]
        cells = [sorted(names[i] for i in block) for block in partition.blocks]
        assert cells == [["e"], ["1"]]

    def test_a2_exact(self, systems):
        graph, elements = kl_graph(systems["a2"])
        partition = cell_partition(graph)
        names = [str(w) for w in elements]
        cells = {frozenset(names[i] for i in block) for block in partition.blocks}
        assert cells == {
            frozenset({"e"}),
            frozenset({"1", "21"}),
            frozenset({"2", "12"}),
            frozenset({"121"}),
        }

    def test_requires_diagonal(self, systems):
        module = OmegaModule(systems["a2"], {0}, 2, {0: sparse(((0, 1), (1, 0)))}, {})
        with pytest.raises(ValueError):
            cell_partition(module)

    @pytest.mark.parametrize("name", ["a2", "b2", "a3", "i2_5"])
    def test_against_closure_oracle(self, systems, name):
        graph, _ = kl_graph(systems[name])
        partition = cell_partition(graph)
        assert sorted(partition.blocks, key=min) == closure_cells(graph)

    @pytest.mark.parametrize("name", ["a2", "b2", "b2_unequal", "a3", "i2_5", "b3"])
    def test_every_down_set_is_stable(self, systems, name):
        graph, _ = kl_graph(systems[name])
        partition = cell_partition(graph)
        n = len(partition.blocks)
        if n <= 12:
            choices = [
                ids
                for size in range(n + 1)
                for ids in itertools.combinations(range(n), size)
            ]
        else:
            choices = [(i,) for i in range(n)] + [tuple(range(n))]
        for ids in choices:
            assert span_is_stable(graph, down_set_vertices(partition, ids))

    def test_preorder_is_strict_order(self, systems):
        graph, _ = kl_graph(systems["a3"])
        partition = cell_partition(graph)
        order = partition.order
        for (a, b) in order:
            assert a != b
            assert (b, a) not in order
        for (a, b) in order:
            for (c, d) in order:
                if b == c:
                    assert (a, d) in order


def translated(system, J, cell):
    """D_J * C and the left cells of W, as sets of element names, read off
    the top of the tower {} <= J <= S through its positions; ``cell`` holds
    element names of W_J."""
    regular = trivial_module(system, frozenset())
    inner, level = induce_along([(), J, system.generator_set], regular)
    graph = induce(level.gens, level.module, level)
    reps, arrays = system.coset_listing(())
    at = _tower_positions([inner.reps, level.reps], arrays)
    names = [str(w) for w in reps]
    n = len(inner.reps)
    image = {names[pos] for k, pos in enumerate(at) if str(inner.reps[k % n]) in cell}
    return image, {frozenset(names[at[v]] for v in block)
                   for block in cell_partition(graph).blocks}


class TestInducedCells:
    def test_whole_parabolic(self, systems):
        """One check per (left cell of W_J, left cell of W): 2 x 4 in A2."""
        report = induced_cells_check(systems["a2"], {0})
        assert str(report) == "induction of cells from J=[1]: ok [8 checks]"

    def test_identity_cell(self, systems):
        image, cells = translated(systems["a2"], {0}, {"e"})
        assert image == {"e", "2", "12"}
        assert {frozenset({"e"}), frozenset({"2", "12"})} <= cells

    def test_generator_cell(self, systems):
        image, cells = translated(systems["a2"], {0}, {"1"})
        assert image == {"1", "21", "121"}
        assert {frozenset({"1", "21"}), frozenset({"121"})} <= cells

    def test_a3(self, systems):
        report = induced_cells_check(systems["a3"], {0})
        assert str(report) == "induction of cells from J=[1]: ok [20 checks]"

    def test_no_element_table(self):
        """On F4 through B3, the top is induced from the coset tables of
        W_J and of D_J alone: W's element table is never built."""
        f4 = coxeter_matrix(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3})
        system = CoxeterSystem(f4)
        graph, inner = inner_cells(system, {0, 1, 2})
        assert (graph.rank, max(inner) + 1) == (1152, 14)
        assert "table" not in system._cache
        system = CoxeterSystem(f4)
        report = induced_cells_check(system, {0, 1, 2})
        assert str(report) == "induction of cells from J=[1, 2, 3]: ok [1008 checks]"
        assert "table" not in system._cache


SWEEP_SYSTEMS = ["systems/a3.json", "systems/b3.json", "perfbench/systems/b3_211.json",
                 "systems/b2_unequal.json", "perfbench/systems/i2_8_13.json"]


class TestInducedCellsByPosition:
    """D_J * C read by position off the top of the tower {} <= J <= S is the
    set of products d * c in W, as element names, since each block (d, c)
    sits at d * c; the inner cell of each vertex is the cell of c for every
    d; and the one-pass check agrees with the products over the regular
    W-graph of the whole group, merged over the left cells C of W_J."""

    @pytest.mark.parametrize("path", SWEEP_SYSTEMS)
    def test_every_cell_of_every_parabolic(self, path):
        system = load_system(str(ROOT / path))
        regular = trivial_module(system, frozenset())
        reps, arrays = system.coset_listing(())
        names = [str(w) for w in reps]
        for size in range(system.rank + 1):
            for J in itertools.combinations(range(system.rank), size):
                inner, level = induce_along([(), J, system.generator_set], regular)
                at = _tower_positions([inner.reps, level.reps], arrays)
                n = len(inner.reps)
                for k, pos in enumerate(at):  # the block (d, c) sits at d * c
                    d, c = level.reps[k // n], inner.reps[k % n]
                    assert names[pos] == str(system.mult(d, c)), (J, k)
                # each product d * c, as an element name, carries the cell of c
                blocks = cell_partition(level.module).blocks
                cell_at = {str(system.mult(d, inner.reps[c])): i
                           for i, block in enumerate(blocks) for c in block for d in level.reps}
                graph, inner_cell = inner_cells(system, J)
                assert graph.rank == len(at) == len(names)
                assert inner_cell == [cell_at[names[pos]] for pos in at], J
                want = Report(f"induction of cells from J={[s + 1 for s in J]}")
                for block in cell_partition(level.module).blocks:
                    report = induced_cells_by_products(system, J, [inner.reps[i] for i in block])
                    want.checks += report.checks
                    want.failures += report.failures
                got = induced_cells_check(system, J)
                assert (got.title, got.checks, got.failures) == (
                    want.title, want.checks, want.failures)
                assert got.ok


class TestStabilityRule:
    """A coordinate span is stable exactly when it is a down-closed union of cells."""

    @pytest.mark.parametrize("name", ["a2", "b2"])
    def test_every_vertex_subset(self, systems, name):
        graph, _ = kl_graph(systems[name])
        partition = cell_partition(graph)
        outcomes = set()
        for bits in range(1 << graph.rank):
            vertices = {i for i in range(graph.rank) if bits >> i & 1}
            inside = [b for b, block in enumerate(partition.blocks) if block <= vertices]
            closed = down_set_vertices(partition, inside) == vertices
            assert span_is_stable(graph, vertices) == closed, sorted(vertices)
            outcomes.add(closed)
        assert outcomes == {False, True}
