"""Spans around the library's public functions and methods, from outside.

:meth:`Tracer.install` replaces every public function of a layer module
and every public method (plus the arithmetic operators) of the classes
defined there with a timing wrapper; :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` is changed.

Every wrapped call updates per-name aggregates: calls, inclusive time and
self time (its duration minus the time its wrapped children cover).
Calls of module-level functions and of the enumerating methods in
:data:`SPAN_METHODS` are also kept as span records
``(name, start, end, parent, op)``, so that a call can be attributed to the
operation that caused it; the millions of small method calls (Laurent and
matrix arithmetic, Bruhat and descent queries) are counted but not
recorded one by one, which keeps memory bounded.  Records stay in memory
(a record is None while its call is open) and are written out by
:meth:`Tracer.write` once every call has returned.

Forked pool workers uninstall the wrappers at fork, so they run untraced.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, List, Tuple

OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__matmul__", "__pow__"}
)
SPAN_METHODS = frozenset(
    {"CoxeterSystem.elements", "CoxeterSystem.parabolic_elements",
     "CoxeterSystem.min_coset_reps", "CoxeterSystem.double_coset_reps"}
)


class Tracer:
    """Per-name aggregates (indexed like :attr:`names`) and span records."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.truthy: List[int] = []  # calls of a method that returned True
        self.records: list = []
        self.op = -1  # index of the operation being run; -1 during set-up
        self.kept: list = []  # (name, result) of calls whose results are kept
        self._stack: List[float] = [0.0]  # child time of each open call
        self._open: List[int] = []  # indices of open span records
        self._patches: List[Tuple[object, str, object, object]] = []
        self._installed = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- wrappers -------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.truthy.append(0)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, name: str, record: bool, keep: bool) -> Callable:
        idx = self._index(name)
        stack, open_, kept = self._stack, self._open, self.kept
        calls, total, self_time, truthy = self.calls, self.total, self.self_time, self.truthy
        records, perf = self.records, time.perf_counter

        if not record:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - start
                    child = stack.pop()
                    stack[-1] += dur
                    calls[idx] += 1
                    total[idx] += dur
                    self_time[idx] += dur - child
                if result is True:
                    truthy[idx] += 1
                return result
        else:
            tracer = self

            def wrapper(*args, **kwargs):
                rec = len(records)
                records.append(None)
                parent = open_[-1] if open_ else -1
                open_.append(rec)
                stack.append(0.0)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    dur = end - start
                    child = stack.pop()
                    stack[-1] += dur
                    open_.pop()
                    records[rec] = (idx, start, end, parent, tracer.op)
                    calls[idx] += 1
                    total[idx] += dur
                    self_time[idx] += dur - child
                if keep:
                    kept.append((name, result))
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, lib, layers, keep: FrozenSet[str] = frozenset()) -> None:
        """Wrap the public API of ``getattr(lib, layer)`` for every layer.

        Results of the recorded calls named in ``keep`` are appended to
        :attr:`kept`, for the caller to inspect and clear.
        """
        modules = {layer: getattr(lib, layer) for layer in layers}
        wrapped: Dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(value)] = self._wrap(value, name, True, name in keep)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(layer, value, keep)
        # a function imported by name into another module is patched there too
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(module, attr, value, wrapped[id(value)])
        self._installed = True

    def _install_class(self, layer: str, cls: type, keep) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, kind = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, kind = raw, None
            else:
                continue  # properties and data
            qual = f"{cls.__name__}.{attr}"
            name = f"{layer}.{qual}"
            wrapper = self._wrap(fn, name, qual in SPAN_METHODS, name in keep)
            self._patch(cls, attr, raw, wrapper if kind is None else kind(wrapper))

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def _reinstall(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._installed = True

    def _after_fork(self) -> None:
        if self._installed:
            self.uninstall()

    @contextmanager
    def suspended(self):
        """Run library code untraced, e.g. to inspect a kept result."""
        self.uninstall()
        try:
            yield
        finally:
            self._reinstall()

    # -- queries --------------------------------------------------------------

    def sum_of(self, series: List, names) -> float:
        return sum(series[i] for i, n in enumerate(self.names) if n in names)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def outermost_time(self, names, ops=None) -> float:
        """Summed duration of recorded spans in ``names`` with no ancestor
        in ``names``, optionally only those caused by the given ops."""
        ids = {i for i, n in enumerate(self.names) if n in names}
        out = 0.0
        for rec in self.records:
            if rec[0] not in ids or (ops is not None and rec[4] not in ops):
                continue
            parent = rec[3]
            while parent >= 0 and self.records[parent][0] not in ids:
                parent = self.records[parent][3]
            if parent < 0:
                out += rec[2] - rec[1]
        return out

    def write(self, path: str, op_names: List[str]) -> None:
        """Write the span records and per-name aggregates as JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = min((r[1] for r in self.records), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "ops": op_names,
                    "names": self.names,
                    "aggregates": {
                        n: {"calls": c, "total_s": t, "self_s": s}
                        for n, c, t, s in zip(self.names, self.calls, self.total,
                                              self.self_time)
                        if c
                    },
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [
                        [r[0], round(r[1] - origin, 9), round(r[2] - origin, 9), r[3], r[4]]
                        for r in self.records
                    ],
                },
                handle,
            )
