"""JSON and DOT serialisation for systems, modules, W-graphs and tables.

All writers emit deterministic bytes (sorted keys, two-space indent, one
trailing newline), so identical inputs produce identical files.
:func:`dumps` writes exactly what ``json.dumps(obj, indent=2,
sort_keys=True)`` gives, in one pass over the document with the stdlib's C
string escaper (the stdlib falls back to its pure-Python encoder whenever
an indent is given), and joins a container that recurs at the same depth
into one string on its second use; a dict value already joined is
appended without a call.  :func:`dump` writes the same pieces to an open
file without joining the document into one string.

The p-part of :func:`table_to_json` is a :class:`PView`, a read-only
mapping keyed by "x|z" over the table's serial columns; no p-dict is
built.  The writer renders it from the columns, each serial's text and
each name once, and puts the keys in order without a sort: no element
name contains "|", so the string order of "x|z" is the order of the
pairs (x + "|", z).  :func:`dump` writes it one x-row at a time.
:func:`wgraph_to_json` makes one value per distinct label and weight
map, so each is built and written once.
Schema errors raise :class:`SchemaError` with the JSON path of the
offending value; syntax errors keep the line/column information of the
decoder.

Conventions, shared with the CLI:

* generators are 1-based in files ("J": [1, 2], "s": 1, ...);
* an infinite bond order is encoded as 0;
* group elements are words of 1-based generator digits ("121"), the
  identity is "e"; ranks above 9 switch to dash-separated form;
* a Laurent polynomial is a {exponent: coefficient} object with string
  exponents, e.g. {"-1": 1, "0": -2, "3": 1};
* a W-graph file lists vertices, their labels and weighted edges; it is
  read straight into an :class:`~wgraphs.wgraph.OmegaModule` with diagonal
  idempotents, and written from one by :func:`wgraphs.wgraph.edges`.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Mapping
from itertools import compress, islice
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .cells import CellPartition
from .coxeter import CoxeterSystem
from .matrix import IMat, LMat
from .wgraph import OmegaModule, WGraph, edges, serial_array, to_wgraph


class SchemaError(ValueError):
    """The JSON document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _as_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Takes str-keyed dicts, lists, tuples, str, int, bool, None and the
    :class:`PView` of :func:`table_to_json`, written as the dict it views;
    any other value (a float included) or key raises :class:`TypeError`.
    A container reached twice at the same depth, such as a weight map
    shared by :func:`wgraph_to_json`, is rendered once.  Dict keys are
    sorted as strings, not as (key, value) pairs.
    """
    parts: List[str] = []
    _write(obj, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def dump(obj, handle) -> None:
    """Write the text of :func:`dumps` to the text file ``handle``, piece by
    piece, without joining the document into one string; a :class:`PView`
    that is a value of the document itself is written one row at a time."""
    parts = _Stream(handle)
    _write(obj, "\n", parts, {})
    parts.append("\n")
    parts.flush()


class _Stream(list):
    """The pieces of :func:`dump`, of which the first ``written`` are
    written to ``handle``."""

    def __init__(self, handle) -> None:
        super().__init__()
        self.handle, self.written = handle, 0

    def flush(self) -> None:
        self.handle.writelines(islice(self, self.written, None))
        self.written = len(self)


def _write(value, newline: str, parts: List[str], seen: dict) -> None:
    """Append the pieces of ``value`` at the indent ``newline`` to ``parts``.

    ``seen[newline]`` maps the id of each container written so far at that
    indent to the span of ``parts`` that holds its text, or, once it is
    written a second time, to that text joined into one string; a dict
    value whose text is joined is appended without a call.  A
    :class:`PView` that :func:`dump` meets as a value of the document
    itself, inside no container that may repeat, goes to the file.
    """
    kind = type(value)
    if kind is str:
        parts.append(_encode_str(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is None or kind is bool:
        parts.append(_CONSTANTS[value])
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            parts.append("{}" if kind is dict else "[]")
            return
        here = seen.get(newline)
        if here is None:
            here = seen[newline] = {}
        done = here.get(id(value))
        if done is not None:
            if type(done) is tuple:  # the second use: join the span of the first
                done = here[id(value)] = "".join(parts[done[0]:done[1]])
            parts.append(done)
            return
        start = len(parts)
        inner = newline + "  "
        lead = ("{" if kind is dict else "[") + inner
        separator = "," + inner
        if kind is dict:
            below = seen.get(inner)
            if below is None:
                below = seen[inner] = {}
            for name in sorted(value):
                item = value[name]
                parts.append(lead + _encode_str(name) + ": ")  # a key that is no str raises here
                done = below.get(id(item))
                if type(done) is str:
                    parts.append(done)
                else:
                    _write(item, inner, parts, seen)
                lead = separator
            parts.append(newline + "}")
        else:
            for item in value:
                parts.append(lead)
                _write(item, inner, parts, seen)
                lead = separator
            parts.append(newline + "]")
        here[id(value)] = (start, len(parts))
    elif kind is PView:
        if type(parts) is _Stream and newline == "\n  ":
            parts.flush()
            write = parts.handle.write
            for row in _view_rows(value, newline):
                write("".join(row))
        else:
            for row in _view_rows(value, newline):
                parts += row
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- generator subsets ---------------------------------------------------------


def gens_to_json(gens: FrozenSet[int]) -> List[int]:
    return [s + 1 for s in sorted(gens)]


def gens_from_json(system: CoxeterSystem, data, path: str) -> FrozenSet[int]:
    _expect(isinstance(data, list), path, "expected a list of 1-based generators")
    out = set()
    for i, raw in enumerate(data):
        value = _as_int(raw, f"{path}[{i}]")
        _expect(1 <= value <= system.rank, f"{path}[{i}]", "generator out of range")
        out.add(value - 1)
    return frozenset(out)


# -- Coxeter systems --------------------------------------------------------------


def system_to_json(system: CoxeterSystem) -> dict:
    return {
        "rank": system.rank,
        "matrix": [list(row) for row in system.matrix],
        "weights": list(system.weights),
    }


def system_from_json(data, path: str = "system") -> CoxeterSystem:
    _expect(isinstance(data, dict), path, "expected an object")
    rank = _as_int(data.get("rank"), f"{path}.rank")
    matrix = data.get("matrix")
    _expect(isinstance(matrix, list) and len(matrix) == rank, f"{path}.matrix",
            f"expected {rank} rows")
    rows = []
    for i, row in enumerate(matrix):
        _expect(isinstance(row, list) and len(row) == rank, f"{path}.matrix[{i}]",
                f"expected {rank} entries")
        rows.append(tuple(_as_int(x, f"{path}.matrix[{i}][{j}]") for j, x in enumerate(row)))
    weights = data.get("weights")
    if weights is None:
        weights = [1] * rank
    _expect(isinstance(weights, list) and len(weights) == rank, f"{path}.weights",
            f"expected {rank} weights")
    weights = tuple(_as_int(w, f"{path}.weights[{i}]") for i, w in enumerate(weights))
    return CoxeterSystem(rows, weights)


def load_system(path: str) -> CoxeterSystem:
    return system_from_json(load_json(path), path)


# -- Laurent matrices --------------------------------------------------------------


def lmat_to_json(mat: LMat) -> list:
    out: list = [[{} for _ in range(mat.ncols)] for _ in range(mat.nrows)]
    for g in mat.exponents():
        key = str(g)
        for row, coeffs in zip(out, mat.blocks[g]):
            for j, c in coeffs:
                row[j][key] = c
    return out


def imat_to_json(mat: IMat, ncols: int) -> list:
    """Dense rows: the file form of a matrix that keeps only its nonzero entries."""
    return [[entries.get(j, 0) for j in range(ncols)] for entries in map(dict, mat)]


def imat_from_json(data, path: str, ncols: int) -> IMat:
    _expect(isinstance(data, list) and data, path, "expected a nonempty matrix")
    rows = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == ncols, f"{path}[{i}]",
                f"expected a row of {ncols} entries")
        values = [_as_int(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
        rows.append(tuple((j, c) for j, c in enumerate(values) if c))
    return tuple(rows)


# -- modules -------------------------------------------------------------------------


def module_to_json(module: OmegaModule) -> dict:
    n = module.rank
    e_part = {str(s + 1): imat_to_json(module.e_mat(s), n) for s in sorted(module.gens)}
    x_part: Dict[str, Dict[str, list]] = {}
    for (s, g), mat in sorted(module.x.items()):
        x_part.setdefault(str(s + 1), {})[str(g)] = imat_to_json(mat, n)
    return {
        "J": gens_to_json(module.gens),
        "rank": module.rank,
        "E": e_part,
        "X": x_part,
    }


def module_from_json(system: CoxeterSystem, data, path: str = "module") -> OmegaModule:
    _expect(isinstance(data, dict), path, "expected an object")
    gens = gens_from_json(system, data.get("J", []), f"{path}.J")
    rank = _as_int(data.get("rank"), f"{path}.rank")
    e_data = data.get("E", {})
    _expect(isinstance(e_data, dict), f"{path}.E", "expected an object")
    e = {}
    for key, mat in e_data.items():
        s = _gen_key(system, key, f"{path}.E.{key}")
        e[s] = imat_from_json(mat, f"{path}.E.{key}", rank)
    x_data = data.get("X", {})
    _expect(isinstance(x_data, dict), f"{path}.X", "expected an object")
    x = {}
    for key, gammas in x_data.items():
        s = _gen_key(system, key, f"{path}.X.{key}")
        _expect(isinstance(gammas, dict), f"{path}.X.{key}", "expected an object")
        for gkey, mat in gammas.items():
            try:
                gamma = int(gkey)
            except ValueError:
                raise SchemaError(f"{path}.X.{key}.{gkey}", "exponent keys must be integers") from None
            x[(s, gamma)] = imat_from_json(mat, f"{path}.X.{key}.{gkey}", rank)
    return OmegaModule(system, gens, rank, e, x)


def _gen_key(system: CoxeterSystem, key: str, path: str) -> int:
    try:
        value = int(key)
    except ValueError:
        raise SchemaError(path, "generator keys must be 1-based integers") from None
    _expect(1 <= value <= system.rank, path, "generator out of range")
    return value - 1


# -- W-graphs ---------------------------------------------------------------------------


def wgraph_to_json(graph: WGraph) -> dict:
    """The file form of a W-graph; equal labels share one list and equal
    weight maps one dict, which :func:`dumps` renders once."""
    module, names = graph.module, graph.vertices
    labels: Dict[FrozenSet[int], List[int]] = {}
    weights: Dict[tuple, Dict[str, int]] = {}
    return {
        "J": gens_to_json(module.gens),
        "vertices": list(names),
        "labels": [labels.get(label) or labels.setdefault(label, gens_to_json(label))
                   for label in map(module.vertex_label, range(module.rank))],
        "edges": [{"s": s + 1, "from": names[j], "to": names[i],
                   "weights": weights.get(key := tuple(by_exp.items()))
                   or weights.setdefault(key, {str(g): c for g, c in key})}
                  for (s, i, j), by_exp in edges(module)],
    }


def wgraph_from_json(system: CoxeterSystem, data, path: str = "wgraph") -> WGraph:
    """Load a W-graph; weights at -g fold onto g and zero weights are dropped.

    Every exponent must lie in (-L(s), L(s)), zero weights included, and
    each (s, from, to) may carry one edge.
    """
    _expect(isinstance(data, dict), path, "expected an object")
    gens = gens_from_json(system, data.get("J", []), f"{path}.J")
    vertices = data.get("vertices")
    _expect(isinstance(vertices, list) and vertices, f"{path}.vertices",
            "expected a nonempty list")
    names = [str(v) for v in vertices]
    n = len(names)
    position = {name: i for i, name in enumerate(names)}
    labels_raw = data.get("labels")
    _expect(isinstance(labels_raw, list) and len(labels_raw) == n,
            f"{path}.labels", "expected one label list per vertex")
    e = {s: [()] * n for s in gens}
    for i, lab in enumerate(labels_raw):
        label = gens_from_json(system, lab, f"{path}.labels[{i}]")
        _expect(label <= gens, f"{path}.labels[{i}]", "label outside J")
        for s in label:
            e[s][i] = ((i, 1),)
    # each (s, from, to) may be given once, so edge k is the k-th key
    weights_at: Dict[Tuple[int, int, int], Dict[int, int]] = {}
    raw_edges = data.get("edges", [])
    _expect(isinstance(raw_edges, list), f"{path}.edges", "expected a list")
    for k, edge in enumerate(raw_edges):
        epath = f"{path}.edges[{k}]"
        _expect(isinstance(edge, dict), epath, "expected an object")
        s = _as_int(edge.get("s"), f"{epath}.s") - 1
        _expect(0 <= s < system.rank, f"{epath}.s", "generator out of range")
        _expect(s in gens, f"{epath}.s", "generator outside J")
        src = edge.get("from")
        dst = edge.get("to")
        _expect(src in position, f"{epath}.from", f"unknown vertex {src!r}")
        _expect(dst in position, f"{epath}.to", f"unknown vertex {dst!r}")
        weights_raw = edge.get("weights")
        _expect(isinstance(weights_raw, dict) and weights_raw, f"{epath}.weights",
                "expected a nonempty object")
        key = (s, position[dst], position[src])
        if key in weights_at:
            first = list(weights_at).index(key)
            raise SchemaError(epath, f"duplicate s={s + 1} edge {src!r} -> {dst!r} "
                                     f"(first given at {path}.edges[{first}])")
        ls = system.weight(s)
        weights = {}
        for gkey, c in weights_raw.items():
            try:
                gamma = int(gkey)
            except ValueError:
                raise SchemaError(f"{epath}.weights.{gkey}",
                                  "exponent keys must be integers") from None
            if not -ls < gamma < ls:
                raise SchemaError(f"{epath}.weights.{gkey}",
                                  f"exponent outside (-{ls}, {ls}) for generator {s + 1}")
            weights[gamma] = _as_int(c, f"{epath}.weights.{gkey}")
        weights_at[key] = weights
    x: Dict[Tuple[int, int], List[list]] = {}
    for (s, i, j), weights in sorted(weights_at.items()):  # so each row's columns increase
        for gamma, c in weights.items():
            if c:
                g = abs(gamma)
                row = (x.get((s, g)) or x.setdefault((s, g), [[] for _ in range(n)]))[i]
                if not row or row[-1][0] != j:
                    row.append((j, c))
                elif row[-1][1] != c:
                    raise ValueError(
                        f"conflicting weights for +{g} and -{g} "
                        f"on the s={s + 1} edge {names[j]} -> {names[i]}"
                    )
    return to_wgraph(OmegaModule(system, gens, n, e, x), names)


# -- p/mu tables ---------------------------------------------------------------------------


def table_to_json(table) -> dict:
    """Serialise the p- and mu-blocks of a :class:`wgraphs.hy.PMuTable`.

    The "p" value is a :class:`PView` over the table's serial columns,
    which :func:`dumps` and :func:`dump` write without building its dict;
    each mu-block object gets one value.  The document is read-only by
    convention."""
    names = [str(x) for x in table.reps]
    out = _mu_json(table.gens, (((names[xi], names[zi], s), mat)
                                for (xi, zi, s), mat in table.mu_pos.items()))
    out["p"] = PView(names, table.cols, table.values)
    return out


class PView(Mapping):
    """The p-part of a table document: a read-only view, keyed by "x|z"
    with x and z among ``names``, of the blocks in the serial columns
    ``cols`` of a :class:`~wgraphs.wgraph.BlockTable`.  A value is the
    :func:`lmat_to_json` value of its block, one object per serial, made
    on first lookup; ``dict(view)`` is the p-dict of the document."""

    def __init__(self, names: List[str], cols: List, blocks: List[Optional[LMat]]):
        assert not any("|" in name for name in names), "an element name contains '|'"
        self.names, self.cols, self.blocks = names, cols, blocks
        self._index = {name: i for i, name in enumerate(names)}
        self._json: Dict[int, list] = {}

    def __getitem__(self, key: str) -> list:
        try:
            x, z = map(self._index.__getitem__, key.split("|"))
            serial = self.cols[z][x]
        except (ValueError, KeyError, IndexError):  # not two names, or no block
            serial = 0
        if not serial:
            raise KeyError(key)
        value = self._json.get(serial)
        if value is None:
            value = self._json[serial] = lmat_to_json(self.blocks[serial])
        return value

    def __iter__(self) -> Iterator[str]:
        names = self.names
        for zi, col in enumerate(self.cols):
            tail = "|" + names[zi]
            for xi, serial in enumerate(col):
                if serial:
                    yield names[xi] + tail

    def __len__(self) -> int:
        return sum(len(col) - col.count(0) for col in self.cols)


class _Texts(dict):
    """The text of each serial's p-value at the indent ``newline``, written
    by :func:`_write` on first lookup."""

    def __init__(self, blocks: List[Optional[LMat]], newline: str):
        super().__init__()
        self.blocks, self.newline = blocks, newline

    def __missing__(self, serial: int) -> str:
        parts: List[str] = []
        _write(lmat_to_json(self.blocks[serial]), self.newline, parts, {})
        text = self[serial] = "".join(parts)
        return text


def _view_rows(view: PView, newline: str) -> Iterator[List[str]]:
    """The text of ``view`` at the indent ``newline``: one list of pieces
    per row x, rows in key order, then the closing brace.

    Keys sort as the pairs (x + "|", z), so the names are sorted twice.
    The columns, in z-order, are laid into a grid whose row x holds the
    serial at x of each; each piece is an escaped name or a serial's text,
    each made once."""
    names, n = view.names, len(view.names)
    inner = newline + "  "
    quoted = [_encode_str(name) for name in names]
    zorder = sorted(range(n), key=names.__getitem__)
    keys = [quoted[z][1:] + ": " for z in zorder]  # 'z": ', after '"x|'
    grid = serial_array((), len(view.blocks))  # every serial fits its typecode
    grid.frombytes(bytes(grid.itemsize * n * n))
    for j, z in enumerate(zorder):
        col = view.cols[z]
        if col.typecode != grid.typecode:  # made before the serials outgrew 16 bits
            col = array(grid.typecode, col)
        grid[j:j + n * len(col):n] = col
    texts = _Texts(view.blocks, inner)
    opened = False
    for x in sorted(range(n), key=[name + "|" for name in names].__getitem__):
        serials = grid[x * n:x * n + n]
        present = list(filter(None, serials))
        if present:
            row = ["," + inner + quoted[x][:-1] + "|"] * (3 * len(present))
            row[1::3] = compress(keys, serials)
            row[2::3] = map(texts.__getitem__, present)
            if not opened:
                row[0], opened = "{" + row[0][1:], True
            yield row
    yield [newline + "}" if opened else "{}"]


def mu_to_json(system: CoxeterSystem, gens: FrozenSet[int], mu: Mapping) -> dict:
    """Serialise a bare mu-family keyed by (x, z, s)."""
    return _mu_json(gens, mu.items())


def _mu_json(gens: FrozenSet[int], items: Iterable) -> dict:
    """The mu part of a table document; each block object gets one value."""
    shared: Dict[int, dict] = {}  # id of a block that ``items`` holds -> its JSON value
    return {"J": gens_to_json(gens), "mu": {
        f"{x}|{z}|{s + 1}": shared.get(id(mat)) or shared.setdefault(id(mat), {
            str(g): imat_to_json(b, mat.ncols) for g, b in mat.blocks.items() if g >= 0})
        for (x, z, s), mat in items}}


# -- cells ------------------------------------------------------------------------------------


def cells_to_json(partition: CellPartition, names: List[str]) -> dict:
    return {
        "cells": [sorted(names[i] for i in block) for block in partition.blocks],
        "order": sorted([list(pair) for pair in partition.order]),
    }


# -- DOT export ---------------------------------------------------------------------------------


def _dot_escape(name: str) -> str:
    """A vertex name for a quoted DOT string: backslashes and quotes escaped."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def wgraph_to_dot(graph: WGraph) -> str:
    module = graph.module
    names = [_dot_escape(name) for name in graph.vertices]
    lines = ["digraph wgraph {"]
    for i, name in enumerate(names):
        label_set = ",".join(str(s + 1) for s in sorted(module.vertex_label(i)))
        lines.append(f'  "{name}" [label="{name}\\n{{{label_set}}}"];')
    for (s, i, j), weights in edges(module):
        text = ",".join(f"{g}:{c}" for g, c in weights.items())
        lines.append(f'  "{names[j]}" -> "{names[i]}" [label="s{s + 1} {text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cells_to_dot(partition: CellPartition, names: List[str], module: OmegaModule) -> str:
    names = [_dot_escape(name) for name in names]
    lines = ["digraph cells {", "  compound=true;"]
    for b, block in enumerate(partition.blocks):
        lines.append(f"  subgraph cluster_{b} {{")
        lines.append(f'    label="cell {b}";')
        for i in sorted(block):
            lines.append(f'    "{names[i]}";')
        lines.append("  }")
    for (s, i, j), _ in edges(module):
        lines.append(f'  "{names[j]}" -> "{names[i]}" [label="s{s + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
