"""Kazhdan-Lusztig left cells of a W-graph.

A basis vector y dominates x whenever x occurs in the image of y under
some edge operator; cells are the strongly connected components of that
arc digraph, and the cell preorder is arc reachability, closed in one
pass over the components in Tarjan's completion order.  Down-closed
unions of cells span exactly the submodules with monomial idempotent
action.  :func:`induced_cells_check` reads Geck's induction of cells off
the top of the tower {} <= J <= S of :func:`~wgraphs.hy.induce_along`, the
induction of its last table, for every left cell of W_J at once;
:func:`inner_cells` gives the left cell of W_J that each vertex comes from
by its block alone, so W itself is never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .coxeter import CoxeterSystem, bit_positions
from .hy import induce, induce_along
from .report import Report
from .wgraph import OmegaModule, leaks, trivial_module


@dataclass(frozen=True)
class CellPartition:
    """Blocks of vertices plus the reachability order between blocks.

    ``order`` contains (i, j) whenever block i is reachable from block j
    through arcs (i.e. block i lies below block j); it is a strict partial
    order on block indices.  Blocks are sorted by their minimal vertex.
    """

    blocks: Tuple[FrozenSet[int], ...]
    order: FrozenSet[Tuple[int, int]]

def action_arcs(module: OmegaModule) -> Dict[int, Set[int]]:
    """arcs[y] = set of x hit by some edge operator applied to y."""
    arcs: Dict[int, Set[int]] = {i: set() for i in range(module.rank)}
    for mat in module.x.values():
        for i, row in enumerate(mat):
            for j, _ in row:
                if i != j:
                    arcs[j].add(i)
    return arcs


def cell_partition(module: OmegaModule) -> CellPartition:
    """Strongly connected components of the arc digraph, with reachability.

    Requires the idempotents to act diagonally (W-graph form): only then
    does arc support characterise the stable spans.
    """
    if not module.has_diagonal_idempotents():
        raise ValueError("cell partition requires diagonal idempotents (W-graph form)")
    arcs = action_arcs(module)
    components = _tarjan_scc(module.rank, arcs)
    comp = {x: c for c, vertices in enumerate(components) for x in vertices}
    # Tarjan completes a component only after every component it reaches, so
    # one pass in completion order closes the preorder: below[c] is the
    # bitset of the components reachable from c
    below = [0] * len(components)
    for c, vertices in enumerate(components):
        for d in {comp[x] for y in vertices for x in arcs[y]} - {c}:
            below[c] |= below[d] | 1 << d
    # deterministic order: by minimal vertex
    ordering = sorted(range(len(components)), key=lambda c: min(components[c]))
    renumber = {old: new for new, old in enumerate(ordering)}
    blocks = tuple(frozenset(components[old]) for old in ordering)
    order = frozenset((renumber[d], renumber[c])
                      for c, bits in enumerate(below) for d in bit_positions(bits))
    return CellPartition(blocks, order)


def _tarjan_scc(n: int, arcs: Dict[int, Set[int]]) -> List[List[int]]:
    """Iterative Tarjan; returns the components' vertex lists in the order
    the components complete."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(arcs[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(arcs[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = [stack.pop()]
                while component[-1] != v:
                    component.append(stack.pop())
                on_stack.difference_update(component)
                components.append(component)
    return components


def down_set_vertices(partition: CellPartition, block_ids: Iterable[int]) -> Set[int]:
    """Vertices of the blocks together with everything below them."""
    wanted = set(block_ids)
    closed = set(wanted)
    for below, above in partition.order:
        if above in wanted:
            closed.add(below)
    out: Set[int] = set()
    for b in closed:
        out |= set(partition.blocks[b])
    return out


def span_is_stable(module: OmegaModule, vertices: Set[int]) -> bool:
    """Whether the coordinate span of the vertices is closed under the action."""
    return not any(leaks(mat, vertices) for s in module.gens for mat in module.matrices(s))


def inner_cells(system: CoxeterSystem, J: Iterable[int]) -> Tuple[OmegaModule, List[int]]:
    """The top of the tower {} <= J <= S of :func:`~wgraphs.hy.induce_along`
    on the regular module, :func:`~wgraphs.hy.induce` of its last table,
    and for each of its vertices the left cell of the regular W-graph M of
    W_J that it comes from.

    By transitivity the top is the regular W-graph of W with the block
    (d, c) at d * c, at position d |W_J| + c; its inner cell is the index,
    among the blocks of ``cell_partition(M)``, of the cell holding c.
    """
    regular = trivial_module(system, ())
    level = induce_along([(), J, system.generator_set], regular)[-1]
    graph = induce(level.gens, level.module, level)
    n = level.module.rank
    cell_of = [0] * n
    for i, block in enumerate(cell_partition(level.module).blocks):
        for c in block:
            cell_of[c] = i
    return graph, [cell_of[v % n] for v in range(graph.rank)]


def induced_cells_check(system: CoxeterSystem, J: Iterable[int]) -> Report:
    """Check Geck's induction of cells: D_J * C is a union of left cells of
    W for every left cell C of the regular W-graph M of W_J.

    D_J * C is the set of vertices whose :func:`inner_cells` entry is C.
    One check per (C, cell of W), C in the order of M's blocks: the cell
    of W lies in D_J * C or misses it.
    """
    J = system._subset(J)
    report = Report(f"induction of cells from J={sorted(s + 1 for s in J)}")
    graph, inner = inner_cells(system, J)
    # the cells of M that each cell of W meets; d = e meets every cell of M
    blocks = cell_partition(graph).blocks
    meets = [{inner[v] for v in block} for block in blocks]
    for i in range(max(inner) + 1):
        for block, cells in zip(blocks, meets):
            report.require(cells == {i} or i not in cells,
                           f"cell {sorted(block)} is cut by the translated set")
    return report
