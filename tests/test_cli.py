import json
import re

import pytest

from wgraphs.cli import main, resolve_module
from wgraphs.formats import SchemaError, load_json, load_system, wgraph_from_json, wgraph_to_dot

from oracles import bruhat_leq_subword, sparse


@pytest.fixture()
def a2_path(system_dir):
    return str(system_dir / "a2.json")


def run(argv):
    return main(argv)


class TestTable:
    def test_pair_count_matches_bruhat_oracle(self, tmp_path, a2_path, systems):
        out = tmp_path / "t.json"
        assert run(["table", "--system", a2_path, "-J", "", "--module", "trivial",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        a2 = systems["a2"]
        pairs = sum(
            1
            for x in a2.elements()
            for z in a2.elements()
            if bruhat_leq_subword(a2, x, z)
        )
        assert len(data["p"]) == pairs

    def test_byte_stable(self, tmp_path, a2_path):
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        run(["table", "--system", a2_path, "--module", "trivial", "--out", str(one)])
        run(["table", "--system", a2_path, "--module", "trivial", "--out", str(two)])
        assert one.read_bytes() == two.read_bytes()

    def test_flag_mu_matches_table(self, tmp_path, system_dir):
        a3 = str(system_dir / "a3.json")
        flagged, plain = tmp_path / "flag.json", tmp_path / "table.json"
        assert run(["table", "--system", a3, "--module", "trivial",
                    "--flag", "1;1,2", "--out", str(flagged)]) == 0
        assert run(["table", "--system", a3, "--module", "trivial",
                    "--out", str(plain)]) == 0
        flag_data, table_data = json.loads(flagged.read_text()), json.loads(plain.read_text())
        assert flag_data["mu"] and flag_data["mu"] == table_data["mu"]
        assert flag_data["J"] == table_data["J"]

    def test_no_jobs_option(self, a2_path, capsys):
        with pytest.raises(SystemExit):
            run(["table", "--system", a2_path, "--flag", "1", "--jobs", "2"])
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["table", "--module", "regular"],
                                         ["induce", "--module", "regular"],
                                         ["cells"]])
    def test_out_file_is_stdout_text(self, tmp_path, capsys, monkeypatch, system_dir, command):
        """``--out`` writes the pieces of the document without joining them,
        the same bytes that stdout gets."""
        from wgraphs import formats

        b3 = str(system_dir / "b3.json")
        assert run(command + ["--system", b3]) == 0
        text = capsys.readouterr().out
        monkeypatch.setattr(formats, "dumps", None)  # --out must not join the document
        out = tmp_path / "out.json"
        assert run(command + ["--system", b3, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text and json.loads(text)

    def test_stdout_default(self, capsys, a2_path):
        assert run(["table", "--system", a2_path, "--module", "regular"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "p" in data and "mu" in data


class TestInduce:
    def test_three_vertex_dot(self, tmp_path, a2_path):
        dot = tmp_path / "g.dot"
        assert run(["induce", "--system", a2_path, "-J", "1", "--module", "sign",
                    "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.count("[label=") == 3 + text.count("->")

    def test_json_round_trip_through_cells(self, tmp_path, a2_path):
        graph_file = tmp_path / "kl.json"
        assert run(["induce", "--system", a2_path, "-J", "", "--module", "regular",
                    "--out", str(graph_file)]) == 0
        cells_file = tmp_path / "cells.json"
        assert run(["cells", "--system", a2_path, "--wgraph", str(graph_file),
                    "--out", str(cells_file)]) == 0
        data = json.loads(cells_file.read_text())
        assert data["cells"] == [["e"], ["1", "21"], ["12", "2"], ["121"]]


class TestCells:
    def test_regular_cells(self, tmp_path, a2_path):
        out = tmp_path / "cells.json"
        assert run(["cells", "--system", a2_path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["cells"] == [["e"], ["1", "21"], ["12", "2"], ["121"]]

    def test_dot_export(self, tmp_path, a2_path):
        dot = tmp_path / "cells.dot"
        assert run(["cells", "--system", a2_path, "--dot", str(dot),
                    "--out", str(tmp_path / "c.json")]) == 0
        assert "cluster_3" in dot.read_text()

    def test_wgraph_dot_matches_induced(self, tmp_path, a2_path):
        graph_file = tmp_path / "kl.json"
        run(["induce", "--system", a2_path, "--module", "regular", "--out", str(graph_file)])
        from_file, direct = tmp_path / "file.dot", tmp_path / "direct.dot"
        assert run(["cells", "--system", a2_path, "--wgraph", str(graph_file),
                    "--dot", str(from_file), "--out", str(tmp_path / "c1.json")]) == 0
        assert run(["cells", "--system", a2_path, "--dot", str(direct),
                    "--out", str(tmp_path / "c2.json")]) == 0
        assert from_file.read_text() == direct.read_text()
        assert from_file.read_text().count("->") == 8


class TestVerify:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["--check", "axioms", "-J", "1", "--module", "sign"],
            ["--check", "h-linearity", "-J", "1", "--module", "sign"],
            ["--check", "oracle", "-J", "", "--module", "regular"],
            ["--check", "transitivity", "-J", "", "-K", "1", "--module", "regular"],
            ["--check", "mackey", "-J", "1", "-K", "1", "--module", "sign"],
            ["--check", "mu-factorize", "-J", "", "-K", "1", "--module", "regular"],
            ["--check", "e-nonzero"],
        ],
    )
    def test_checks_pass_on_a2(self, a2_path, argv_tail, capsys):
        assert run(["verify", "--system", a2_path] + argv_tail) == 0
        assert "ok" in capsys.readouterr().out

    def test_mu_factorize_induces_one_module(self, system_dir, monkeypatch, capsys):
        """The check reads the tables of the tower and the direct table: the
        only module it induces is the one between the two levels."""
        import wgraphs.hy as hy

        tables, real = [], hy.induce
        monkeypatch.setattr(hy, "induce", lambda J, module, table: tables.append(table)
                            or real(J, module, table))
        assert run(["verify", "--system", str(system_dir / "a3.json"), "--check", "mu-factorize",
                    "-J", "1", "-K", "1,2", "--module", "sign"]) == 0
        assert capsys.readouterr().out == "mu factorization along J <= K: ok [432 checks]\n"
        assert [(t.gens, t.ambient) for t in tables] == [({0}, {0, 1})]

    def test_oracle_b2(self, system_dir):
        b2 = str(system_dir / "b2.json")
        assert run(["verify", "--system", b2, "--check", "oracle", "-J", "1",
                    "--module", "sign"]) == 0

    def test_e_nonzero_one_subset(self, system_dir, systems, capsys):
        from wgraphs.hy import e_fix_check

        b3 = str(system_dir / "b3.json")
        assert run(["verify", "--system", b3, "--check", "e-nonzero", "-J", "1,2"]) == 0
        out = capsys.readouterr().out
        assert out == f"{e_fix_check(systems['b3'], {0, 1})}\n"
        assert out.endswith("(J=[1, 2]): ok [1 checks]\n")

    def test_e_nonzero_every_subset(self, system_dir, capsys):
        # one check per subset, each on a system of its own
        assert run(["verify", "--system", str(system_dir / "b3.json"), "--check", "e-nonzero"]) == 0
        assert capsys.readouterr().out == "idempotent products fix 1|m0 for every J: ok [8 checks]\n"

    def test_wgraph_axioms_one_check_per_relation(self, tmp_path, a2_path, capsys):
        # regular A2: 2 idempotence + 2 x (E X, X E) + commutation + braid = 8 checks,
        # none per edge: validate covers the label condition
        graph_file = tmp_path / "kl.json"
        run(["induce", "--system", a2_path, "--module", "regular", "--out", str(graph_file)])
        capsys.readouterr()
        assert run(["verify", "--system", a2_path, "--check", "axioms",
                    "--wgraph", str(graph_file)]) == 0
        assert "ok [8 checks]" in capsys.readouterr().out

    def test_failing_check_exits_one(self, tmp_path, a2_path, capsys):
        bad = {
            "J": [1, 2],
            "vertices": ["a", "b"],
            "labels": [[1], [2]],
            "edges": [{"s": 1, "from": "b", "to": "a", "weights": {"0": 1}}],
        }
        graph_file = tmp_path / "bad.json"
        graph_file.write_text(json.dumps(bad))
        code = run(["verify", "--system", a2_path, "--check", "axioms",
                    "--wgraph", str(graph_file)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        assert run(["table", "--system", "/nonexistent/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rank": 2, "matrix": [[1, 3], [4, 1]]}')
        assert run(["table", "--system", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "symmetric" in err

    def test_bad_generator_in_j(self, a2_path, capsys):
        assert run(["table", "--system", a2_path, "-J", "7"]) == 2

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["table"])  # --system is required
        assert exc.value.code == 2

    def test_module_j_mismatch(self, tmp_path, a2_path, capsys):
        module_file = tmp_path / "m.json"
        module_file.write_text(json.dumps(
            {"J": [1], "rank": 1, "E": {"1": [[1]]}, "X": {}}))
        assert run(["table", "--system", a2_path, "-J", "2",
                    "--module", str(module_file)]) == 2

    def test_regular_requires_empty_j(self, a2_path):
        assert run(["table", "--system", a2_path, "-J", "1",
                    "--module", "regular"]) == 2

    def test_infinite_without_cutoff(self, system_dir, capsys):
        path = str(system_dir / "affine_a1.json")
        assert run(["table", "--system", path, "--module", "regular"]) == 2
        assert "max_length" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["cells"], ["induce", "-J", "1", "--module", "sign"],
                                      ["verify", "--check", "axioms", "--module", "regular"],
                                      ["verify", "--check", "e-nonzero"],
                                      ["table", "--module", "regular", "--flag", ""]])
    def test_infinite_names_the_option_it_has(self, system_dir, argv, capsys):
        # only `hy table` without --flag takes --max-length, so the others point there
        path = str(system_dir / "affine_a1.json")
        assert run(argv + ["--system", path]) == 2
        err = capsys.readouterr().err
        command = "table --flag" if "--flag" in argv else argv[0]
        assert f"`hy {command}` needs all of it" in err
        assert "`hy table --max-length N`" in err and "explicit max_length" not in err

    def test_negative_cutoff(self, system_dir, capsys):
        path = str(system_dir / "affine_a1.json")
        assert run(["table", "--system", path, "--module", "regular", "--max-length", "-1"]) == 2
        assert capsys.readouterr().err == "error: max_length must be at least 0, not -1\n"

    @pytest.mark.parametrize("name", ["affine_a1", "a2"])
    def test_flag_takes_no_cutoff(self, system_dir, name, capsys):
        # the flag algorithm has no length cutoff: the pair is refused, not half read
        path = str(system_dir / f"{name}.json")
        assert run(["table", "--system", path, "--module", "regular", "--flag", "",
                    "--max-length", "3"]) == 2
        err = capsys.readouterr().err
        assert "--flag" in err and "--max-length" in err

    def test_flag_not_nested(self, system_dir, capsys):
        # {1} <= {2} fails: the flag's levels must each contain the one before
        assert run(["table", "--system", str(system_dir / "a3.json"), "-J", "1",
                    "--module", "sign", "--flag", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: need J <= K: each level of the flag must contain "
                                "the one before\n")

    def test_out_of_memory_exits_two(self, a2_path, monkeypatch, capsys):
        # status 1 is a failed verification, so running out of memory is not a traceback
        from wgraphs import hy

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(hy, "p_mu_table", exhausted)
        assert run(["table", "--system", a2_path]) == 2
        assert capsys.readouterr().err == (
            "error: out of memory: the input is too large; on an infinite group "
            "`hy table --max-length N` computes the table on a smaller ball\n")

    def test_infinite_with_cutoff(self, tmp_path, system_dir):
        path = str(system_dir / "affine_a1.json")
        out = tmp_path / "ball.json"
        assert run(["table", "--system", path, "--module", "regular",
                    "--max-length", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "e|1212" in data["p"]


class TestModuleFiles:
    def test_module_file_input(self, tmp_path, a2_path, systems):
        module_file = tmp_path / "m.json"
        module_file.write_text(json.dumps(
            {"J": [1], "rank": 1, "E": {"1": [[1]]}, "X": {}}))
        out = tmp_path / "t.json"
        assert run(["table", "--system", a2_path, "-J", "1",
                    "--module", str(module_file), "--out", str(out)]) == 0
        builtin_out = tmp_path / "b.json"
        run(["table", "--system", a2_path, "-J", "1", "--module", "sign",
             "--out", str(builtin_out)])
        assert out.read_bytes() == builtin_out.read_bytes()

    def test_wgraph_file_as_module(self, tmp_path, a2_path):
        graph_file = tmp_path / "kl_j.json"
        assert run(["induce", "--system", a2_path, "-J", "", "--module", "regular",
                    "--out", str(graph_file)]) == 0
        # re-induce from the full-group graph at J = S: table over one coset
        out = tmp_path / "t.json"
        assert run(["table", "--system", a2_path, "-J", "1,2",
                    "--module", str(graph_file), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert list(data["p"]) == ["e|e"]


def _graph_file(tmp_path, name, **changes):
    """A two-vertex W-graph file on B2 with L = (1, 2), with fields replaced."""
    data = {
        "J": [1, 2],
        "vertices": ["a", "b"],
        "labels": [[2], []],
        "edges": [{"s": 2, "from": "b", "to": "a", "weights": {"1": 3}}],
    }
    data.update(changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _edges(*weights):
    return [{"s": 2, "from": "b", "to": "a", "weights": w} for w in weights]


_BAD_GRAPHS = {
    "duplicate-vertex": {"vertices": ["a", "a"]},
    "label-outside-j": {"J": [2], "labels": [[1], []]},
    "edge-outside-j": {"J": [2], "edges": [{"s": 1, "from": "b", "to": "a",
                                             "weights": {"0": 1}}]},
    "exponent-out-of-range": {"edges": _edges({"-2": 1})},
    "conflicting-signs": {"edges": _edges({"1": 3, "-1": 4})},
    "duplicate-edge": {"edges": _edges({"1": 3}, {"1": 4})},
    "zero-weight-out-of-range": {"edges": _edges({"1": 3}) + [
        {"s": 1, "from": "b", "to": "a", "weights": {"5": 0}}]},
}


class TestWGraphFiles:
    @pytest.fixture()
    def b2u_path(self, system_dir):
        return str(system_dir / "b2_unequal.json")

    def load(self, b2u_path, tmp_path, name, **changes):
        system = load_system(b2u_path)
        return resolve_module(system, _graph_file(tmp_path, name, **changes), frozenset({0, 1}))

    @pytest.mark.parametrize("bad", sorted(_BAD_GRAPHS))
    @pytest.mark.parametrize("command", [
        ["cells", "--wgraph"],
        ["verify", "--check", "axioms", "--wgraph"],
        ["table", "-J", "1,2", "--module"],
    ])
    def test_bad_file_exits_two(self, tmp_path, b2u_path, bad, command, capsys):
        path = _graph_file(tmp_path, bad, **_BAD_GRAPHS[bad])
        assert run([command[0], "--system", b2u_path] + command[1:] + [path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,where", [
        ("duplicate-edge", "wgraph.edges[1]: duplicate s=2 edge 'b' -> 'a' "
                           "(first given at wgraph.edges[0])"),
        ("zero-weight-out-of-range", "wgraph.edges[1].weights.5: exponent outside (-1, 1)"),
    ])
    def test_bad_edge_named(self, tmp_path, b2u_path, bad, where):
        system = load_system(b2u_path)
        data = load_json(_graph_file(tmp_path, bad, **_BAD_GRAPHS[bad]))
        with pytest.raises(SchemaError) as err:
            wgraph_from_json(system, data)
        assert str(err.value).startswith(where)

    def test_negative_exponent_folds(self, tmp_path, b2u_path):
        plus = self.load(b2u_path, tmp_path, "plus")
        assert plus.x == {(1, 1): sparse(((0, 3), (0, 0)))}
        assert self.load(b2u_path, tmp_path, "minus", edges=_edges({"-1": 3})) == plus
        assert self.load(b2u_path, tmp_path, "both", edges=_edges({"1": 3, "-1": 3})) == plus

    def test_zero_weight_dropped(self, tmp_path, b2u_path):
        plus = self.load(b2u_path, tmp_path, "plus")
        assert self.load(b2u_path, tmp_path, "zero", edges=_edges({"1": 3, "0": 0})) == plus
        zero_edge = _edges({"1": 3}) + [{"s": 2, "from": "a", "to": "b", "weights": {"0": 0}}]
        assert self.load(b2u_path, tmp_path, "zero-edge", edges=zero_edge) == plus

    def test_dot_escapes_names(self, tmp_path, b2u_path):
        # a vertex name may hold a quote or end in a backslash; neither may end its DOT string
        path = _graph_file(tmp_path, "quoted", vertices=['a"b', "c\\"], edges=[
            {"s": 2, "from": "c\\", "to": 'a"b', "weights": {"1": 3}}])
        dot = tmp_path / "cells.dot"
        assert run(["cells", "--system", b2u_path, "--wgraph", path, "--dot", str(dot),
                    "--out", str(tmp_path / "cells.json")]) == 0
        cells = dot.read_text()
        graph = wgraph_to_dot(wgraph_from_json(load_system(b2u_path), load_json(path)))
        assert '  "c\\\\" -> "a\\"b" [label="s2"];' in cells.splitlines()
        assert '  "a\\"b" [label="a\\"b\\n{2}"];' in graph.splitlines()
        for line in cells.splitlines() + graph.splitlines():
            assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line)
