import dataclasses
import functools
import io
import json
from array import array
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgraphs import formats
from wgraphs.cells import cell_partition
from wgraphs.coxeter import CoxeterSystem
from wgraphs.formats import SchemaError
from wgraphs.hy import induce, mu_inductive, p_mu_table
from wgraphs.laurent import LaurentPoly
from wgraphs.matrix import LMat
from wgraphs.wgraph import edges, serial_array, sign_module, to_wgraph, trivial_module

from oracles import kl_graph

_ROOT = Path(__file__).resolve().parent.parent
SYSTEM_FILES = sorted(
    str(p.relative_to(_ROOT))
    for folder in ("systems", "perfbench/systems")
    for p in (_ROOT / folder).glob("*.json")
)


def stdlib_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_text = st.text(st.sampled_from('"\\/\b\n\t\x00\x1f\x7f a\u00e9\u2028\U0001f600') | st.characters(),
                max_size=6)
_scalars = (st.none() | st.booleans() | st.integers() | _text
            | st.sampled_from([10**40, -(10**40), -1, 0]))
_trees = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_text, children, max_size=4)),
    max_leaves=25,
)


class TestWriter:
    @given(_trees, st.lists(_trees, max_size=3))
    def test_matches_stdlib(self, tree, shared):
        # one list object twice at the same depth and once at another depth
        doc = {"tree": tree, "twice": [shared, shared], "deeper": {"once": [shared]}}
        assert formats.dumps(doc) == stdlib_dumps(doc)
        assert formats.dumps(tree) == stdlib_dumps(tree)
        handle = io.StringIO()
        formats.dump(doc, handle)
        assert handle.getvalue() == stdlib_dumps(doc)

    @given(_trees, st.integers(3, 6))
    def test_many_uses_and_nested_sharing(self, tree, times):
        # a container used ``times`` times at one depth, and a shared container
        # inside a shared container, each also reached at a second depth
        inner = [tree, {"same": tree}]
        outer = {"a": inner, "b": inner, "c": [inner] * times}
        doc = {"row": [outer] * times, "pair": {"x": outer, "y": outer}, "inner": [inner] * times}
        assert formats.dumps(doc) == stdlib_dumps(doc)

    @pytest.mark.parametrize("doc", [
        [True, 1, False, 0], {"a": True, "b": 1, "c": [False, 0, "0", None]},
        [[1, "a"]] * 4 + [{"k": [1, "a"]}], [[]] * 3 + [{}] * 2,
    ], ids=["bools-and-ints", "dict-leaves", "one-list-four-times", "empty-containers"])
    def test_leaves_and_repeated_items(self, doc):
        """bool leaves are not written as ints, and a list object that recurs
        within one list (``[x] * 4`` is one object four times) is rendered
        once and repeated."""
        assert formats.dumps(doc) == stdlib_dumps(doc)
        handle = io.StringIO()
        formats.dump(doc, handle)
        assert handle.getvalue() == stdlib_dumps(doc)

    @pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "x"}, {"a": {(1,): 2}}, {1, 2}])
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            formats.dumps(value)


@functools.lru_cache(maxsize=None)
def _documents(path: str) -> dict:
    """A document of every output kind for the system in ``path``."""
    system = formats.load_system(str(_ROOT / path))
    S = system.generator_set
    ball = p_mu_table(frozenset(), trivial_module(system, frozenset()), max_length=4)
    if system.is_finite:  # the sign module of a maximal parabolic, induced to W
        J = S - {0}
        table = p_mu_table(J, sign_module(system, J))
        module = induce(J, table.module, table)
        names = [str(w) for w in table.reps]
        mu = formats.mu_to_json(system, J, mu_inductive([J, S], table.module))
    else:  # the sign module of W, and the mu-blocks of the ball
        module, names = sign_module(system, S), ["e"]
        mu = formats.mu_to_json(system, frozenset(), ball.mu)
    return {
        "system": formats.system_to_json(system),
        "module": formats.module_to_json(module),
        "table": formats.table_to_json(ball),
        "wgraph": formats.wgraph_to_json(to_wgraph(module, names)),
        "cells": formats.cells_to_json(cell_partition(module), names),
        "mu": mu,
    }


def _expand(view):
    """A view as the stdlib can write it: the dict of a mapping, the list of a sequence."""
    return dict(view) if isinstance(view, Mapping) else list(view)


@pytest.mark.parametrize("path", SYSTEM_FILES)
def test_every_output_matches_stdlib(path):
    for kind, doc in _documents(path).items():
        # the p-part of a table and the edges of a W-graph are views
        assert formats.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                                default=_expand) + "\n", kind


@pytest.mark.parametrize("path", SYSTEM_FILES)
def test_dump_writes_what_dumps_joins(path):
    for kind, doc in _documents(path).items():
        handle = io.StringIO()
        formats.dump(doc, handle)
        assert handle.getvalue() == formats.dumps(doc), kind


class TestSystemFormat:
    def test_round_trip(self, tmp_path, systems):
        path = tmp_path / "sys.json"
        path.write_text(formats.dumps(formats.system_to_json(systems["b2_unequal"])))
        assert formats.load_system(str(path)) == systems["b2_unequal"]

    def test_infinite_bond_round_trip(self, tmp_path):
        system = CoxeterSystem(((1, 0), (0, 1)))
        path = tmp_path / "inf.json"
        path.write_text(formats.dumps(formats.system_to_json(system)))
        loaded = formats.load_system(str(path))
        assert loaded.order(0, 1) == 0 and not loaded.is_finite

    def test_shipped_golden_files(self, system_dir):
        for path in sorted(system_dir.glob("*.json")):
            system = formats.load_system(str(path))
            assert formats.dumps(formats.system_to_json(system)) == path.read_text()

    def test_schema_error_mentions_path(self):
        with pytest.raises(SchemaError) as err:
            formats.system_from_json({"rank": 2, "matrix": [[1, "x"], [3, 1]]}, "f.json")
        assert "f.json.matrix[0][1]" in str(err.value)

    def test_decode_error_has_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rank": 1,\n "matrix" [[1]]}\n')
        with pytest.raises(json.JSONDecodeError) as err:
            formats.load_system(str(path))
        assert err.value.lineno == 2


class TestModuleFormat:
    def test_round_trip(self, systems):
        module = sign_module(systems["a2"], {0})
        data = formats.module_to_json(module)
        assert formats.module_from_json(systems["a2"], data) == module

    def test_kl_module_round_trip(self, systems):
        graph_module, _ = kl_graph(systems["a2"])
        data = formats.module_to_json(graph_module)
        assert formats.module_from_json(systems["a2"], data) == graph_module

    def test_bad_generator_key(self, systems):
        with pytest.raises(SchemaError):
            formats.module_from_json(
                systems["a2"], {"J": [1], "rank": 1, "E": {"9": [[1]]}, "X": {}}
            )


def _regular_wgraph(system):
    module = trivial_module(system, frozenset())
    table = p_mu_table(frozenset(), module)
    return to_wgraph(induce(frozenset(), module, table), [str(w) for w in table.reps])


class TestWGraphFormat:
    @pytest.mark.parametrize("name", ["b3", "b3_211"])
    def test_edge_view(self, systems, name):
        """The view's items are the edge dicts made from ``wgraph.edges``,
        and the reader takes the view and their list alike."""
        system = (systems["b3"] if name == "b3"
                  else formats.load_system(str(_ROOT / "perfbench/systems/b3_211.json")))
        graph = _regular_wgraph(system)
        names = graph.vertices
        listed = [{"s": s + 1, "from": names[j], "to": names[i],
                   "weights": {str(g): c for g, c in by_exp.items()}}
                  for (s, i, j), by_exp in edges(graph.module)]
        doc = formats.wgraph_to_json(graph)
        view = doc["edges"]
        assert list(view) == listed and len(view) == len(listed) > 0
        assert view[-1] == listed[-1] and view[-len(listed)] == listed[0]
        with pytest.raises(IndexError):
            view[len(listed)]
        assert formats.wgraph_from_json(system, doc) == graph
        assert formats.wgraph_from_json(system, {**doc, "edges": listed}) == graph

    def test_dump_writes_the_edges_one_at_a_time(self, systems):
        """:func:`dump` writes regular B3's edges in one write each and the
        closing bracket, each far shorter than the document, and the pieces
        join to the text of dumps."""
        doc = formats.wgraph_to_json(_regular_wgraph(systems["b3"]))
        pieces, writes = [], []

        class Handle:
            def write(self, text):
                pieces.append(text)
                writes.append(text)

            def writelines(self, texts):
                pieces.extend(texts)

        formats.dump(doc, Handle())
        text = "".join(pieces)
        assert text == formats.dumps(doc)
        assert len(writes) == len(doc["edges"]) + 1
        assert max(map(len, pieces)) <= len(text) // 10

    def test_round_trip(self, systems):
        graph = _regular_wgraph(systems["a2"])
        data = formats.wgraph_to_json(graph)
        assert formats.wgraph_from_json(systems["a2"], data) == graph

    def test_unknown_vertex(self, systems):
        data = {
            "J": [1],
            "vertices": ["a"],
            "labels": [[1]],
            "edges": [{"s": 1, "from": "a", "to": "zzz", "weights": {"0": 1}}],
        }
        with pytest.raises(SchemaError) as err:
            formats.wgraph_from_json(systems["a2"], data)
        assert "edges[0].to" in str(err.value)

    def test_dot_output_is_deterministic(self, systems):
        graph = _regular_wgraph(systems["a2"])
        assert formats.wgraph_to_dot(graph) == formats.wgraph_to_dot(graph)
        assert formats.wgraph_to_dot(graph).startswith("digraph wgraph {")


class TestTableFormat:
    def test_shares_equal_blocks(self, systems):
        table = p_mu_table(frozenset(), trivial_module(systems["a3"], frozenset()))
        p_part = formats.table_to_json(table)["p"]
        assert p_part == {f"{x}|{z}": formats.lmat_to_json(mat) for (x, z), mat in table.p.items()}
        assert len({id(value) for value in p_part.values()}) == len(set(table.p.values()))

    def test_bytes_do_not_depend_on_interning(self):
        """The writer makes one value per serial; a copy of regular D4's
        table with every p-block a fresh object under its own serial writes
        the same bytes."""
        d4 = CoxeterSystem(((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)))
        table = p_mu_table(frozenset(), trivial_module(d4, frozenset()))
        values = [None]
        cols = [[0] * len(col) for col in table.cols]
        for (xi, zi), mat in table.pos_items():
            values.append(LMat._new(mat.shape, dict(mat.blocks)))
            cols[zi][xi] = len(values) - 1
        copy = dataclasses.replace(table, values=values,
                                   cols=[serial_array(col, len(values)) for col in cols])
        assert len({id(mat) for _, mat in copy.pos_items()}) == len(copy.p) == 9817
        assert len({id(mat) for _, mat in table.pos_items()}) == 60
        assert (formats.dumps(formats.table_to_json(copy))
                == formats.dumps(formats.table_to_json(table)))

    def test_bytes_do_not_depend_on_typecodes(self, systems):
        """Columns made before and after the serials outgrew 16 bits mix
        typecodes; the writer lays them into one grid either way."""
        table = p_mu_table(frozenset(), trivial_module(systems["b3"], frozenset()))
        text = formats.dumps(formats.table_to_json(table))
        mixed = [array("I", col) if zi % 2 else col for zi, col in enumerate(table.cols)]
        for values in (table.values, table.values + [None] * (1 << 16)):
            copy = dataclasses.replace(table, cols=mixed, values=values)
            assert formats.dumps(formats.table_to_json(copy)) == text

    def test_key_order_with_prefix_names(self):
        """A10 > A9 sign: the names are dash-separated words, and "1" is a
        prefix of w = "10-9-8-7-6-5-4-3-2-1", so the key "w|w" sorts before
        "1|w" although "1" sorts before w."""
        a10 = CoxeterSystem(tuple(tuple(1 if i == j else 3 if abs(i - j) == 1 else 2
                                        for j in range(10)) for i in range(10)))
        J = a10.generator_set - {0}
        table = p_mu_table(J, sign_module(a10, J))
        w = "10-9-8-7-6-5-4-3-2-1"
        names = [str(x) for x in table.reps]
        assert len(names) == 11 and "1" in names and w in names
        doc = formats.table_to_json(table)
        assert len(doc["p"]) == 66
        text = formats.dumps(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True, default=dict) + "\n"
        assert text.index(f'"{w}|{w}"') < text.index(f'"1|{w}"')
        handle = io.StringIO()
        formats.dump(doc, handle)
        assert handle.getvalue() == text

    def test_dump_writes_the_p_part_row_by_row(self, systems):
        """:func:`dump` writes regular B3's p-part in one write per x-row,
        48 rows and the closing brace, each far shorter than the document,
        and the writes join to the text of dumps."""
        table = p_mu_table(frozenset(), trivial_module(systems["b3"], frozenset()))
        doc = formats.table_to_json(table)
        pieces, rows = [], []

        class Handle:
            def write(self, text):
                pieces.append(text)
                rows.append(text)

            def writelines(self, texts):
                pieces.extend(texts)

        formats.dump(doc, Handle())
        text = "".join(pieces)
        assert text == formats.dumps(doc)
        assert len(rows) == len(table.reps) + 1 == 49
        assert max(map(len, pieces)) < len(text) // 10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda m: st.lists(st.lists(
        st.dictionaries(st.integers(-12, 12), st.integers(-10**40, 10**40), max_size=4),
        min_size=m, max_size=m), max_size=3)))
    @example([[{}, {}], [{}, {}]])  # the zero matrix
    @example([[{1: 1, 10: -2, 2: 3, -1: 4, -10: 10**40}, {}], [{}, {}]])  # an empty row
    def test_p_value_text(self, rows):
        """A serial's text, made from the blocks, is the writer's text of
        its :func:`lmat_to_json` value: exponents in string order."""
        mat = LMat([[LaurentPoly(entry) for entry in row] for row in rows])
        for newline in ("\n", "\n    "):
            parts = []
            formats._write(formats.lmat_to_json(mat), newline, parts, {})
            assert formats._Texts([None, mat], newline)[1] == "".join(parts)

    def test_view_lookup(self, systems):
        table = p_mu_table(frozenset(), trivial_module(systems["a2"], frozenset()))
        view = formats.table_to_json(table)["p"]
        assert view["1|21"] == formats.lmat_to_json(table.p[table.reps[1], table.reps[3]])
        assert view["e|e"] is view["1|1"]  # one value per serial: both are p = 1
        for key in ("21|1", "1|x", "1", "1|2|1", "e|e|"):
            assert key not in view
        assert len(view) == len(table.p) == len(dict(view))

    def test_mu_only_payload(self, systems):
        from wgraphs.hy import mu_inductive, p_mu_table as direct_table

        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        mu = mu_inductive([frozenset(), a2.generator_set], module)
        payload = formats.mu_to_json(a2, frozenset(), mu)
        assert set(payload) == {"J", "mu"}
        direct = direct_table(frozenset(), module)
        assert payload["mu"] == formats.table_to_json(direct)["mu"]


class TestCellsFormat:
    def test_json_shape(self, systems):
        graph, elements = kl_graph(systems["a2"])
        partition = cell_partition(graph)
        payload = formats.cells_to_json(partition, [str(w) for w in elements])
        assert payload["cells"][0] == ["e"]
        assert all(len(pair) == 2 for pair in payload["order"])

    def test_dot(self, systems):
        graph, elements = kl_graph(systems["a1"])
        partition = cell_partition(graph)
        names = [str(w) for w in elements]
        dot = formats.cells_to_dot(partition, names, graph)
        assert "cluster_0" in dot and dot.endswith("}\n")
