import json

import pytest

from wgraphs import formats
from wgraphs.cells import cell_partition, kl_graph
from wgraphs.coxeter import CoxeterSystem
from wgraphs.formats import SchemaError
from wgraphs.hy import induce, p_mu_table
from wgraphs.wgraph import sign_module, to_wgraph, trivial_module


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


class TestWGraphFormat:
    def test_round_trip(self, systems):
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        table = p_mu_table(frozenset(), module)
        graph = to_wgraph(induce(frozenset(), module, table), [str(w) for w in table.reps])
        data = formats.wgraph_to_json(graph)
        assert formats.wgraph_from_json(a2, data) == graph

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
        a2 = systems["a2"]
        module = trivial_module(a2, frozenset())
        table = p_mu_table(frozenset(), module)
        graph = to_wgraph(induce(frozenset(), module, table), [str(w) for w in table.reps])
        assert formats.wgraph_to_dot(graph) == formats.wgraph_to_dot(graph)
        assert formats.wgraph_to_dot(graph).startswith("digraph wgraph {")


class TestTableFormat:
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
