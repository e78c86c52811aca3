"""The ``hy`` command line: tables, induced W-graphs, cells, verification.

Subcommands
    table    compute the p/mu table (or, with --flag, the mu-table via the
             flag algorithm) and write it as JSON
    induce   compute the induced W-graph and write JSON and/or DOT
    cells    partition a W-graph into left cells
    verify   run one of the exact check suites; exit 0 iff it passes

Generator sets on the command line are comma-separated 1-based indices
("1,3"); an empty string is the empty set.  A flag is a semicolon-
separated list of intermediate sets ("1;1,2"), implicitly starting at -J
and ending at the full generator set.  Modules are the builtin names
``sign``, ``trivial`` or ``regular`` (the rank-1 module over the empty
subset), or a path to a module/W-graph JSON file.

Outputs are byte-stable: rerunning a command with the same inputs writes
identical files.  Exit codes: 0 success, 1 a verification failed, 2 usage
or input errors, or an input too large for the memory.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import List, Optional

from . import cells, formats, hy, wgraph
from .coxeter import CoxeterSystem, EnumerationError, InvalidSystemError
from .formats import SchemaError
from .report import Report


def parse_gens(system: CoxeterSystem, text: Optional[str], what: str) -> frozenset:
    text = (text or "").strip()
    if not text:
        return frozenset()
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token.isdigit() or not 1 <= int(token) <= system.rank:
            raise SchemaError(what, f"bad generator {token!r} (1..{system.rank})")
        out.add(int(token) - 1)
    return frozenset(out)


def resolve_module(system: CoxeterSystem, spec: str, J: frozenset) -> wgraph.OmegaModule:
    if spec == "sign":
        return wgraph.sign_module(system, J)
    if spec == "trivial":
        return wgraph.trivial_module(system, J)
    if spec == "regular":
        if J:
            raise SchemaError("--module", "'regular' is the rank-1 module at J = empty")
        return wgraph.trivial_module(system, frozenset())
    data = formats.load_json(spec)
    if isinstance(data, dict) and "vertices" in data:
        module = formats.wgraph_from_json(system, data, spec).module
    else:
        module = formats.module_from_json(system, data, spec)
    if module.gens != J:
        raise SchemaError(spec, f"module is over J={formats.gens_to_json(module.gens)}, "
                                f"but -J selects {formats.gens_to_json(J)}")
    return module


def _vertex_names(table: hy.PMuTable, module: wgraph.OmegaModule) -> List[str]:
    """Induced basis names: "rep", or "rep|b" when the module has rank above 1."""
    return [
        f"{rep}|{b}" if module.rank > 1 else str(rep)
        for rep in table.reps
        for b in range(module.rank)
    ]


def _print_report(report: Report) -> int:
    print(report)
    return 0 if report.ok else 1


def _emit(payload, out: Optional[str]) -> None:
    """Write the JSON text of ``payload`` to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            formats.dump(payload, handle)
    else:
        formats.dump(payload, sys.stdout)


def cmd_table(args) -> int:
    system = formats.load_system(args.system)
    J = parse_gens(system, args.J, "-J")
    module = resolve_module(system, args.module, J)
    if args.flag is not None:
        if args.max_length is not None:
            raise SchemaError("--flag", "--max-length does not apply to the flag algorithm, "
                                        "which needs whole coset tables")
        levels = [J]
        text = args.flag.strip()
        if text:
            for chunk in text.split(";"):
                levels.append(parse_gens(system, chunk, "--flag"))
        levels.append(system.generator_set)
        mu = hy.mu_inductive(levels, module)
        payload = formats.mu_to_json(system, J, mu)
    else:
        table = hy.p_mu_table(J, module, max_length=args.max_length)
        payload = formats.table_to_json(table)
    _emit(payload, args.out)
    return 0


def cmd_induce(args) -> int:
    system = formats.load_system(args.system)
    J = parse_gens(system, args.J, "-J")
    module = resolve_module(system, args.module, J)
    table = hy.p_mu_table(J, module)
    graph = wgraph.to_wgraph(hy.induce(J, module, table), _vertex_names(table, module))
    if args.out or not args.dot:
        _emit(formats.wgraph_to_json(graph), args.out)
    if args.dot:
        formats.save_text(args.dot, formats.wgraph_to_dot(graph))
    return 0


def cmd_cells(args) -> int:
    system = formats.load_system(args.system)
    if args.wgraph:
        graph = formats.wgraph_from_json(system, formats.load_json(args.wgraph), args.wgraph)
        module, names = graph.module, graph.vertices
    else:
        J = parse_gens(system, args.J, "-J")
        inner = resolve_module(system, args.module, J)
        table = hy.p_mu_table(J, inner)
        module = hy.induce(J, inner, table)
        names = _vertex_names(table, inner)
    partition = cells.cell_partition(module)
    _emit(formats.cells_to_json(partition, names), args.out)
    if args.dot:
        formats.save_text(args.dot, formats.cells_to_dot(partition, names, module))
    return 0


def cmd_verify(args) -> int:
    system = formats.load_system(args.system)
    J = parse_gens(system, args.J, "-J")
    check = args.check
    if check == "axioms":
        if args.wgraph:
            graph = formats.wgraph_from_json(system, formats.load_json(args.wgraph), args.wgraph)
            report = wgraph.validate(graph.module)
        else:
            module = resolve_module(system, args.module, J)
            table = hy.p_mu_table(J, module)
            induced = hy.induce(J, module, table)
            report = wgraph.validate(induced)
        return _print_report(report)
    if check == "h-linearity":
        module = resolve_module(system, args.module, J)
        return _print_report(hy.verify_h_linearity(J, module))
    if check == "oracle":
        module = resolve_module(system, args.module, J)
        return _print_report(hy.oracle_check(J, module))
    if check == "transitivity":
        K = parse_gens(system, args.K, "-K")
        module = resolve_module(system, args.module, J)
        return _print_report(hy.transitivity_check(J, K, module))
    if check == "mackey":
        K = parse_gens(system, args.K, "-K")
        module = resolve_module(system, args.module, J)
        return _print_report(hy.mackey_check(J, K, module))
    if check == "mu-factorize":
        K = parse_gens(system, args.K, "-K")
        module = resolve_module(system, args.module, J)
        table_jk, table_ks = hy.induce_along([J, K, system.generator_set], module)
        table_js = hy.p_mu_table(J, module)
        return _print_report(hy.mu_factorize_check(J, K, table_js, table_jk, table_ks))
    if check == "e-nonzero":
        if args.J is not None:
            report = hy.e_fix_check(system, J)
        else:
            report = Report("idempotent products fix 1|m0 for every J")
            for size in range(system.rank + 1):
                for combo in itertools.combinations(range(system.rank), size):
                    # a fresh system per J, so no coset table outlives its check
                    fresh = CoxeterSystem(system.matrix, system.weights)
                    report.merge(hy.e_fix_check(fresh, frozenset(combo)))
        return _print_report(report)
    raise SchemaError("--check", f"unknown check {check!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hy",
        description="Exact Howlett-Yin induction, Kazhdan-Lusztig tables and cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module_default: Optional[str] = "trivial"):
        p.add_argument("--system", required=True, help="path to a system JSON file")
        p.add_argument("-J", default=None,
                       help="generator subset, e.g. '1,2' (default empty)")
        if module_default is not None:
            p.add_argument("--module", default=module_default,
                           help="builtin name (sign|trivial|regular) or JSON path")

    p_table = sub.add_parser("table", help="compute the p/mu table")
    common(p_table)
    p_table.add_argument("--out", help="output JSON path (default stdout)")
    p_table.add_argument("--flag", help="intermediate flag subsets, e.g. '1;1,2'")
    p_table.add_argument("--max-length", type=int, default=None,
                         help="length cutoff for infinite groups")
    p_table.set_defaults(func=cmd_table)

    p_induce = sub.add_parser("induce", help="compute the induced W-graph")
    common(p_induce)
    p_induce.add_argument("--out", help="output JSON path")
    p_induce.add_argument("--dot", help="output DOT path")
    p_induce.set_defaults(func=cmd_induce)

    p_cells = sub.add_parser("cells", help="left-cell partition of a W-graph")
    common(p_cells, module_default="regular")
    p_cells.add_argument("--wgraph", help="partition this W-graph JSON instead of inducing")
    p_cells.add_argument("--out", help="output JSON path (default stdout)")
    p_cells.add_argument("--dot", help="output DOT path")
    p_cells.set_defaults(func=cmd_cells)

    p_verify = sub.add_parser("verify", help="run an exact verification suite")
    common(p_verify)
    p_verify.add_argument(
        "--check",
        required=True,
        choices=["axioms", "h-linearity", "transitivity", "mackey", "oracle",
                 "mu-factorize", "e-nonzero"],
    )
    p_verify.add_argument("-K", default="", help="larger generator subset where required")
    p_verify.add_argument("--wgraph", help="W-graph JSON (for --check axioms)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InvalidSystemError, EnumerationError, ValueError, OSError) as err:
        command = "table --flag" if getattr(args, "flag", None) is not None else args.command
        if isinstance(err, EnumerationError) and command != "table":
            err = (f"the group is infinite: `hy {command}` needs all of it; "
                   "`hy table --max-length N` computes the table on the ball of radius N")
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large; on an infinite group "
              "`hy table --max-length N` computes the table on a smaller ball", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
