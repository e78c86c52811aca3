"""Workloads of the wgraphs benchmark: systems, operations and output checks.

A workload names the Coxeter systems it loads (set-up) and the operations
it runs on them (solve).  One operation computes what one ``hy table``,
``induce``, ``cells`` or ``verify`` invocation computes, through the same
public library calls, including building the JSON or report text the
command would write.

The workload seed relabels every system's generators by a seeded
permutation (seed 0 keeps the file labelling); generator sets of the
operations are written in file labels and relabelled with the system.
Outputs are checked against fingerprints recorded once by ``record.py``:
for seed 0 the sha256 of the byte-stable texts, for every seed the
label-independent facts computed by :func:`facts`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Modules of the library, in dependency order; each is one traced layer.
LAYERS = ("coxeter", "laurent", "matrix", "wgraph", "hy", "canon", "cells", "formats")

Gens = Tuple[int, ...]


class BenchmarkError(RuntimeError):
    """The benchmark's own inputs or set-up are inconsistent."""


@dataclass(frozen=True)
class SystemSpec:
    """A system JSON file, the number of elements it must enumerate to, and
    the ball radius for infinite groups (None: the whole group)."""

    name: str
    path: str  # relative to the repository root
    order: int
    max_length: Optional[int] = None


@dataclass(frozen=True)
class Op:
    """One operation; generator sets are 1-based file labels."""

    name: str
    kind: str
    system: str
    J: Gens = ()
    K: Gens = ()
    module: str = "regular"
    flag: Tuple[Gens, ...] = ()
    jobs: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    systems: Tuple[SystemSpec, ...]
    ops: Tuple[Op, ...]


@dataclass
class Outcome:
    """Texts an operation produced, each tagged with its format, and the
    verification reports it returned."""

    texts: List[Tuple[str, str]] = field(default_factory=list)
    reports: list = field(default_factory=list)


# -- the library, imported afresh for every set-up ----------------------------


def import_library() -> SimpleNamespace:
    """Import ``wgraphs`` from ``src/`` with cold module state."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "wgraphs" or n.startswith("wgraphs.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"wgraphs.{name}") for name in LAYERS}
    )


# -- relabelling ---------------------------------------------------------------


def permutation(seed: int, system_name: str, rank: int) -> List[int]:
    """perm[i] is the new 0-based label of file generator i."""
    perm = list(range(rank))
    if seed:
        random.Random(f"{seed}/{system_name}").shuffle(perm)
    return perm


def relabel_data(data: dict, perm: List[int]) -> dict:
    n = len(perm)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[perm[i]][perm[j]] = data["matrix"][i][j]
    weights = [0] * n
    for i, w in enumerate(data.get("weights") or [1] * n):
        weights[perm[i]] = w
    return {"rank": n, "matrix": matrix, "weights": weights}


def map_gens(perm: List[int], gens: Gens) -> frozenset:
    return frozenset(perm[g - 1] for g in gens)


# -- set-up ----------------------------------------------------------------------


@dataclass
class Loaded:
    """A workload's library modules and enumerated systems, keyed by name."""

    lib: SimpleNamespace
    specs: Dict[str, SystemSpec]
    systems: Dict[str, object]
    perms: Dict[str, List[int]]
    element_count: int


def load_systems(lib: SimpleNamespace, workload: Workload, seed: int) -> Loaded:
    """Load every system from JSON, relabel it, and enumerate it."""
    systems, perms, count = {}, {}, 0
    for spec in workload.systems:
        path = str(ROOT / spec.path)
        data = lib.formats.load_json(path)
        perm = permutation(seed, spec.name, data["rank"])
        system = lib.formats.system_from_json(relabel_data(data, perm), path)
        n = len(system.elements(max_length=spec.max_length))
        if n != spec.order:
            raise BenchmarkError(f"{spec.name}: enumerated {n} elements, expected {spec.order}")
        systems[spec.name], perms[spec.name] = system, perm
        count += n
    return Loaded(lib, {s.name: s for s in workload.systems}, systems, perms, count)


# -- operations -------------------------------------------------------------------


def _module(lib, system, spec: str, J: frozenset):
    if spec == "sign":
        return lib.wgraph.sign_module(system, J)
    if spec == "trivial":
        return lib.wgraph.trivial_module(system, J)
    if spec == "regular" and not J:
        return lib.wgraph.trivial_module(system, frozenset())
    raise BenchmarkError(f"module {spec!r} at J={sorted(J)}")


def _vertex_names(table, module) -> List[str]:
    return [
        f"{rep}|{b}" if module.rank > 1 else str(rep)
        for rep in table.reps
        for b in range(module.rank)
    ]


def _induced_graph(lib, J, module):
    table = lib.hy.p_mu_table(J, module)
    induced = lib.hy.induce(J, module, table)
    names = _vertex_names(table, module)
    return table, induced, names, lib.wgraph.to_wgraph(induced, names)


def run_op(loaded: Loaded, op: Op) -> Outcome:
    """Compute one operation; raises on any library error."""
    lib = loaded.lib
    hy, f = lib.hy, lib.formats
    system = loaded.systems[op.system]
    perm = loaded.perms[op.system]
    J, K = map_gens(perm, op.J), map_gens(perm, op.K)
    out = Outcome()

    def report(rep) -> None:
        out.reports.append(rep)
        out.texts.append(("report", str(rep)))

    if op.kind == "regular":  # hy table, hy induce and hy cells of the regular module
        module = _module(lib, system, "regular", J)
        table, induced, names, graph = _induced_graph(lib, J, module)
        partition = lib.cells.cell_partition(induced)
        out.texts.append(("table", f.dumps(f.table_to_json(table))))
        out.texts.append(("wgraph", f.dumps(f.wgraph_to_json(graph))))
        out.texts.append(("cells", f.dumps(f.cells_to_json(partition, names))))
    elif op.kind == "ball-table":  # hy table --max-length
        module = _module(lib, system, op.module, J)
        table = hy.p_mu_table(J, module, max_length=loaded.specs[op.system].max_length)
        out.texts.append(("table", f.dumps(f.table_to_json(table))))
    elif op.kind == "induce":
        module = _module(lib, system, op.module, J)
        graph = _induced_graph(lib, J, module)[3]
        out.texts.append(("wgraph", f.dumps(f.wgraph_to_json(graph))))
    elif op.kind == "e-nonzero":
        report(hy.e_fix_check(system, J))
    elif op.kind == "oracle":
        report(hy.oracle_check(J, _module(lib, system, op.module, J)))
    elif op.kind == "mackey":
        report(hy.mackey_check(J, K, _module(lib, system, op.module, J)))
    elif op.kind == "transitivity":
        report(hy.transitivity_check(J, K, _module(lib, system, op.module, J)))
    elif op.kind == "h-linearity":
        report(hy.verify_h_linearity(J, _module(lib, system, op.module, J)))
    elif op.kind == "mu-factorize":
        module = _module(lib, system, op.module, J)
        table_js = hy.p_mu_table(J, module)
        table_jk = hy.p_mu_table(J, module, ambient=K)
        inner = hy.induce(J, module, table_jk)
        table_ks = hy.p_mu_table(K, inner)
        report(hy.mu_factorize_check(J, K, table_js, table_jk, table_ks))
    elif op.kind == "flag":  # hy table --flag --jobs
        module = _module(lib, system, op.module, J)
        levels = [J] + [map_gens(perm, level) for level in op.flag] + [system.generator_set]
        mu = hy.mu_inductive(levels, module, jobs=op.jobs)
        out.texts.append(("mu", f.dumps(f.mu_to_json(system, J, mu))))
    elif op.kind == "axioms":  # hy verify --check axioms on the regular W-graph of W_K
        regular = _module(lib, system, "regular", frozenset())
        inner_table = hy.p_mu_table(frozenset(), regular, ambient=K)
        inner = hy.induce(frozenset(), regular, inner_table)
        induced, names, graph = _induced_graph(lib, K, inner)[1:]
        report(lib.wgraph.validate(induced))
        out.texts.append(("wgraph", f.dumps(f.wgraph_to_json(graph))))
    else:
        raise BenchmarkError(f"unknown operation kind {op.kind!r}")
    return out


# -- fingerprints -----------------------------------------------------------------


def _digest(items) -> str:
    return hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()[:16]


def _entry_polys(blocks) -> List[str]:
    """Entrywise Laurent polynomials of serialised matrices, as canonical text.

    ``blocks`` yields {exponent: integer matrix} maps; a relabelling of the
    generators permutes block keys and the basis inside each block, so the
    multiset of nonzero entries does not depend on it.
    """
    out = []
    for block in blocks:
        entries: Dict[Tuple[int, int], Dict[str, int]] = {}
        for g, mat in block.items():
            for i, row in enumerate(mat):
                for j, c in enumerate(row):
                    if c:
                        entries.setdefault((i, j), {})[str(g)] = c
        out.extend(json.dumps(p, sort_keys=True) for p in entries.values())
    return out


def _poly_matrix_blocks(p_part: dict):
    """Serialised p-blocks (matrices of {exponent: coeff}) as exponent maps."""
    for mat in p_part.values():
        block: Dict[str, list] = {}
        for i, row in enumerate(mat):
            for j, poly in enumerate(row):
                for g, c in poly.items():
                    block.setdefault(g, [[0] * len(row) for _ in mat])[i][j] = c
        yield block


def facts(outcome: Outcome) -> dict:
    """Label-independent facts about an operation's outputs."""
    out: dict = {}
    for kind, text in outcome.texts:
        if kind == "report":
            continue
        data = json.loads(text)
        if kind in ("table", "mu"):
            if kind == "table":
                out["pairs"] = len(data["p"])
                out["p_polys"] = _digest(_entry_polys(_poly_matrix_blocks(data["p"])))
            out["mu_blocks"] = len(data["mu"])
            out["mu_polys"] = _digest(_entry_polys(data["mu"].values()))
        elif kind == "wgraph":
            out["vertices"] = len(data["vertices"])
            out["edges"] = len(data["edges"])
            out["edge_weights"] = _digest(json.dumps(e["weights"], sort_keys=True)
                                          for e in data["edges"])
            out["label_sizes"] = _digest(str(len(lab)) for lab in data["labels"])
        elif kind == "cells":
            out["cells"] = len(data["cells"])
            out["cell_sizes"] = sorted(len(c) for c in data["cells"])
    for i, rep in enumerate(outcome.reports):
        out[f"report{i}"] = {"ok": rep.ok, "checks": rep.checks}
    return out


def text_digest(outcome: Outcome) -> str:
    h = hashlib.sha256()
    for kind, text in outcome.texts:
        h.update(f"{kind}\0{len(text)}\0".encode())
        h.update(text.encode())
    return h.hexdigest()


def fingerprint(outcome: Outcome) -> dict:
    return {"sha256": text_digest(outcome), "facts": facts(outcome)}


def check(outcome: Outcome, expected: Optional[dict], seed: int) -> Optional[str]:
    """None if the outcome is correct, else the reason it is not."""
    for rep in outcome.reports:
        if not rep.ok:
            return f"report not ok: {rep.summary()}"
    if expected is None:
        return "no recorded fingerprint"
    got = facts(outcome)
    if got != expected["facts"]:
        return f"facts differ: {got} != {expected['facts']}"
    if seed == 0 and text_digest(outcome) != expected["sha256"]:
        return "output bytes differ from the recorded sha256"
    return None


# -- the workloads ----------------------------------------------------------------


def _spec(name: str, order: int, max_length: Optional[int] = None,
          folder: str = "perfbench/systems") -> SystemSpec:
    return SystemSpec(name, f"{folder}/{name}.json", order, max_length)


WORKLOAD_SYSTEMS = {
    s.name: s
    for s in (
        _spec("a4", 120),
        _spec("h3", 120),
        _spec("d4", 192),
        _spec("b4", 384),
        _spec("b3_211", 48),
        _spec("i2_8_13", 16),
        _spec("affine_a2", 109, max_length=8),
        # small systems of the repository, for the self-test
        _spec("a2", 6, folder="systems"),
        _spec("b2", 8, folder="systems"),
        _spec("affine_a1", 9, max_length=4, folder="systems"),
    )
}


def _workload(name: str, system_names, ops) -> Workload:
    return Workload(name, tuple(WORKLOAD_SYSTEMS[s] for s in system_names), tuple(ops))


def _kl_regular(name, finite, ball):
    ops = [Op(f"regular-{s}", "regular", s) for s in finite]
    ops.append(Op(f"ball-{ball}", "ball-table", ball))
    return _workload(name, list(finite) + [ball], ops)


def _big_parabolic(name, system, subsets):
    ops = []
    for J in subsets:
        tag = "".join(map(str, J))
        ops.append(Op(f"induce-sign-J{tag}", "induce", system, J=J, module="sign"))
        ops.append(Op(f"induce-trivial-J{tag}", "induce", system, J=J, module="trivial"))
        ops.append(Op(f"e-nonzero-J{tag}", "e-nonzero", system, J=J))
    return _workload(name, [system], ops)


WORKLOADS = {
    w.name: w
    for w in (
        _kl_regular("kl-regular", ("a4", "h3", "d4", "b3_211", "i2_8_13"), "affine_a2"),
        _big_parabolic("big-parabolic", "b4", ((1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4))),
        _workload(
            "verify-modules",
            ("b3_211", "i2_8_13", "a4", "h3", "d4"),
            (
                Op("oracle-b3_211", "oracle", "b3_211"),
                Op("oracle-i2_8_13", "oracle", "i2_8_13"),
                Op("oracle-a4-J1-sign", "oracle", "a4", J=(1,), module="sign"),
                Op("mackey-b3_211", "mackey", "b3_211", J=(1,), K=(2, 3), module="sign"),
                Op("transitivity-a4", "transitivity", "a4", J=(1,), K=(1, 2, 3), module="sign"),
                Op("transitivity-h3", "transitivity", "h3", J=(1,), K=(1, 2), module="sign"),
                Op("h-linearity-a4", "h-linearity", "a4", J=(1,), module="sign"),
                Op("mu-factorize-h3", "mu-factorize", "h3", J=(1,), K=(1, 2), module="sign"),
                Op("flag-seq-a4", "flag", "a4", flag=((1,), (1, 2), (1, 2, 3)), jobs=1),
                Op("flag-pool-a4", "flag", "a4", flag=((1,), (1, 2), (1, 2, 3)), jobs=2),
                Op("axioms-d4-K123", "axioms", "d4", K=(1, 2, 3)),
                Op("axioms-a4-K123", "axioms", "a4", K=(1, 2, 3)),
            ),
        ),
    )
}

# The same shapes on the repository's small systems; used by selftest.py.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        _kl_regular("smoke-kl-regular", ("a2", "b2"), "affine_a1"),
        _big_parabolic("smoke-big-parabolic", "b2", ((1,), (2,))),
        _workload(
            "smoke-verify-modules",
            ("a2", "b2"),
            (
                Op("oracle-b2", "oracle", "b2"),
                Op("oracle-a2-J1-sign", "oracle", "a2", J=(1,), module="sign"),
                Op("mackey-b2", "mackey", "b2", J=(1,), K=(2,), module="sign"),
                Op("transitivity-a2", "transitivity", "a2", J=(1,), K=(1,), module="sign"),
                Op("h-linearity-a2", "h-linearity", "a2", J=(1,), module="sign"),
                Op("mu-factorize-b2", "mu-factorize", "b2", J=(1,), K=(1, 2), module="sign"),
                Op("flag-seq-a2", "flag", "a2", flag=((1,),), jobs=1),
                Op("flag-pool-a2", "flag", "a2", flag=((1,),), jobs=2),
                Op("axioms-b2-K1", "axioms", "b2", K=(1,)),
            ),
        ),
    )
}


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def record_fingerprints(workload: Workload, seed: int = 0) -> Dict[str, dict]:
    """Fingerprints of every operation of a workload, from the current code."""
    loaded = load_systems(import_library(), workload, seed)
    return {op.name: fingerprint(run_op(loaded, op)) for op in workload.ops}
