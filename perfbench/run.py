"""Run one workload of the wgraphs benchmark and print its metrics.

    python3 perfbench/run.py --workload kl-regular --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
client runs the workload's operations one after another (closed loop)
inside this process.  A round is a set-up (fresh import of ``wgraphs``,
every system loaded from JSON and enumerated) followed by a solve (every
operation once, in order).  Rounds repeat until ``--seconds`` have passed;
set-up alone is repeated until there are at least ``MIN_SETUPS`` samples.
Every output is checked against ``expected.json``.

Set-up and solve times are reported at a reference machine speed: see
:class:`ReferenceClock`.  The raw wall times go to standard error.

``--trace 0`` prints the end-to-end metrics: medians over rounds of set-up
and solve time, their sum, peak RSS and the share of operations that
succeeded.  ``--trace 1`` runs one untraced round and one traced round and
prints the per-layer metrics of the traced round, plus the ratio of the
two solve times, all in raw wall seconds (:class:`WallClock`); the spans
go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every operation succeeded and matched its fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_SETUPS = 5
# The reference kernel takes about this long on an idle core of the machine
# the benchmark was written on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11).
REF_KERNEL_S = 0.001
TICK_S = 0.05
OUT_DIR = wl.BENCH_DIR / "out"
KEEP = frozenset({"hy.p_mu_table", "cells.cell_partition", "formats.dumps"})
CHECKS = ("oracle_check", "transitivity_check", "mackey_check", "mu_factorize_check",
          "verify_h_linearity", "e_fix_check")


@dataclass
class ResultStats:
    """Sizes of the results kept by the traced round."""

    reps: int = 0
    pairs: int = 0
    mu_blocks: int = 0
    max_degree: int = 0
    max_coeff: int = 0
    cells: int = 0
    out_bytes: int = 0


def _reference_kernel() -> int:
    """Fixed dict, tuple and list work that does not touch the library."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i & 127, i % 5)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [key, i]
        acc += len(entry) + len(key[1:] + (i,))
    return acc


class ReferenceClock:
    """Elapsed time at a fixed reference speed.

    On a shared host the speed of a core drifts by up to a factor of two,
    over spans from a second to minutes, as other tenants load the
    machine, and every wall time drifts with it.  While the clock runs, a
    SIGALRM handler times one run of the reference kernel every
    ``TICK_S`` of wall time, and the wall time until the next tick counts
    at the speed that sample showed: ``wall * REF_KERNEL_S / kernel``.
    The handler's own time is left out.  Forked children do not inherit
    the interval timer.

    While ``held`` is set, as it is while an operation's worker processes
    run, ticks take no sample and the latest kernel time stays in force:
    the workers would compete with the sample for the cores, and the
    correction would then follow the program's own load, not the host's.
    """

    def __init__(self) -> None:
        # (reference seconds up to `last`, `last`, the latest kernel time),
        # replaced as a whole so that now() never sees half an update
        self.state = (0.0, time.perf_counter(), REF_KERNEL_S)
        self.held = False

    def _tick(self, signum, frame) -> None:
        if self.held:
            return
        elapsed, last, kernel = self.state
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _reference_kernel()
        finally:
            if enabled:
                gc.enable()
        end = time.perf_counter()
        self.state = (elapsed + (start - last) * REF_KERNEL_S / kernel, end, end - start)

    def now(self) -> float:
        elapsed, last, kernel = self.state
        return elapsed + (time.perf_counter() - last) * REF_KERNEL_S / kernel

    def __enter__(self) -> "ReferenceClock":
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class WallClock:
    """Raw elapsed time, for the traced run: a reference-clock sample taken
    while a wrapped call is open would be charged to that call's span."""

    held = False
    now = staticmethod(time.perf_counter)


class Runner:
    def __init__(self, workload: wl.Workload, seed: int, expected: Dict[str, dict],
                 log=sys.stderr):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.stats = ResultStats()
        self.clock = None  # a ReferenceClock or WallClock while a run is timed

    def set_up(self, tracer: Optional[Tracer] = None):
        """Returns the loaded systems and the set-up time on the runner's clock."""
        start, wall = self.clock.now(), time.perf_counter()
        lib = wl.import_library()
        if tracer is not None:
            tracer.install(lib, wl.LAYERS, KEEP)
        loaded = wl.load_systems(lib, self.workload, self.seed)
        print(f"setup: wall {time.perf_counter() - wall:.4f} s", file=self.log)
        return loaded, self.clock.now() - start

    def solve(self, loaded: wl.Loaded, tracer: Optional[Tracer] = None):
        """Run every operation once, right after :meth:`set_up`.

        Returns the summed operation time on the runner's clock and the
        digest of each operation's output (None if it raised).
        """
        total = 0.0
        digests: List[Optional[str]] = []
        times = []
        for i, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.op = i
            self.attempted += 1
            self.clock.held = op.jobs > 1
            start, wall = self.clock.now(), time.perf_counter()
            try:
                outcome = wl.run_op(loaded, op)
            except Exception:  # an operation that raises counts as failed
                outcome = None
                self.fail(op, traceback.format_exc())
            finally:
                self.clock.held = False
            took = self.clock.now() - start
            total += took
            times.append(f"{op.name} {time.perf_counter() - wall:.3f}/{took:.3f}")
            if outcome is None:
                digests.append(None)
                continue
            digests.append(wl.text_digest(outcome))
            problem = wl.check(outcome, self.expected.get(op.name), self.seed)
            if problem:
                self.fail(op, problem)
            if tracer is not None:
                self.absorb(loaded.lib, tracer)
        print("ops (wall/clock s): " + ", ".join(times), file=self.log)
        return total, digests

    def fail(self, op: wl.Op, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name}/{op.name}: {message}", file=self.log)

    def absorb(self, lib, tracer: Tracer) -> None:
        """Fold the results the traced round kept into the size statistics."""
        kept = list(tracer.kept)
        tracer.kept.clear()
        stats = self.stats
        with tracer.suspended():
            for name, result in kept:
                if name == "formats.dumps":
                    stats.out_bytes += len(result.encode())
                elif name == "cells.cell_partition":
                    stats.cells += len(result.blocks)
                else:
                    stats.reps += len(result.reps)
                    stats.pairs += len(result.p)
                    stats.mu_blocks += len(result.mu)
                    for mat in list(result.p.values()) + list(result.mu.values()):
                        for row in lib.formats.lmat_to_json(mat):
                            for poly in row:
                                for g, c in poly.items():
                                    stats.max_degree = max(stats.max_degree, abs(int(g)))
                                    stats.max_coeff = max(stats.max_coeff, abs(c))


def run_plain(runner: Runner, seconds: float) -> dict:
    with ReferenceClock() as runner.clock:
        setups, solves = _rounds(runner, seconds)
    setup_s = statistics.median(setups)
    solve_s = statistics.median(solves)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "total_s": (setup_s + solve_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
    }


def _rounds(runner: Runner, seconds: float):
    setups: List[float] = []
    solves: List[float] = []
    began = time.perf_counter()
    while not solves or time.perf_counter() - began < seconds:
        loaded, setup_s = runner.set_up()
        solve_s, _ = runner.solve(loaded)
        del loaded
        gc.collect()
        setups.append(setup_s)
        solves.append(solve_s)
        print(f"round {len(solves)}: setup {setup_s:.4f} s, solve {solve_s:.4f} s"
              " (reference speed)", file=runner.log)
    while len(setups) < MIN_SETUPS:
        loaded, setup_s = runner.set_up()
        del loaded
        gc.collect()
        setups.append(setup_s)
        print(f"setup {len(setups)}: {setup_s:.4f} s (reference speed)", file=runner.log)
    return setups, solves


def run_traced(runner: Runner) -> dict:
    runner.clock = WallClock()
    loaded, _ = runner.set_up()
    untraced_s, plain_digests = runner.solve(loaded)
    del loaded
    gc.collect()

    tracer = Tracer()
    loaded, _ = runner.set_up(tracer)
    elements = loaded.element_count
    try:
        traced_s, traced_digests = runner.solve(loaded, tracer)
    finally:
        tracer.uninstall()
    for op, plain, traced in zip(runner.workload.ops, plain_digests, traced_digests):
        if plain != traced:
            runner.fail(op, "traced output differs from the untraced output")
    ops = runner.workload.ops
    tracer.write(str(OUT_DIR / f"trace-{runner.workload.name}-seed{runner.seed}.json"),
                 [op.name for op in ops])
    return layer_metrics(tracer, runner.stats, elements, untraced_s, traced_s, ops)


def layer_metrics(t: Tracer, stats: ResultStats, elements: int, untraced_s: float,
                  traced_s: float, ops) -> dict:
    def calls(*names):
        return t.sum_of(t.calls, names)

    def self_s(*names):
        return t.sum_of(t.self_time, names)

    def total(*names):
        return t.sum_of(t.total, names)

    cox = "coxeter.CoxeterSystem."
    mat = "matrix.LMat."
    lp = "laurent.LaurentPoly."
    mod = "wgraph.OmegaModule."
    bruhat = cox + "bruhat_leq"
    bruhat_calls = calls(bruhat)
    bruhat_true = t.sum_of(t.truthy, (bruhat,))
    descents = (cox + "left_descents", cox + "right_descents")
    cosets = tuple(cox + n for n in ("min_coset_reps", "double_coset_reps", "factorize",
                                      "double_coset_decompose"))
    addsub = tuple(mat + n for n in ("__add__", "__sub__", "__neg__", "scale"))
    split_bar = tuple(mat + n for n in ("split", "bar", "is_bar_symmetric", "exponents",
                                         "coeff"))
    laurent_ops = tuple(lp + n for n in ("__mul__", "__rmul__", "__add__", "__radd__",
                                          "__sub__", "__rsub__", "__neg__"))
    serialize = {n for n in t.names if n == "formats.dumps"
                 or (n.startswith("formats.") and n.endswith("_to_json"))}
    flag_seq = {i for i, op in enumerate(ops) if op.kind == "flag" and op.jobs == 1}
    flag_pool = {i for i, op in enumerate(ops) if op.kind == "flag" and op.jobs > 1}
    return {
        "coxeter.elements.s": (total(cox + "elements"), "s"),
        "coxeter.elements.count": (elements, "count"),
        "coxeter.bruhat_leq.calls": (bruhat_calls, "count"),
        "coxeter.bruhat_leq.self_s": (self_s(bruhat), "s"),
        "coxeter.bruhat_leq.true_ratio": (bruhat_true / bruhat_calls if bruhat_calls else 0.0,
                                          "ratio"),
        "coxeter.mult.calls": (calls(cox + "mult"), "count"),
        "coxeter.mult.self_s": (self_s(cox + "mult"), "s"),
        "coxeter.descents.calls": (calls(*descents), "count"),
        "coxeter.descents.self_s": (self_s(*descents), "s"),
        "coxeter.deodhar_class.calls": (calls(cox + "deodhar_class"), "count"),
        "coxeter.deodhar_class.self_s": (self_s(cox + "deodhar_class"), "s"),
        "coxeter.cosets.self_s": (self_s(*cosets), "s"),
        "coxeter.self_s": (t.layer_self("coxeter"), "s"),
        "hy.p_mu_table.calls": (calls("hy.p_mu_table"), "count"),
        "hy.p_mu_table.s": (total("hy.p_mu_table"), "s"),
        "hy.p_mu_table.self_s": (self_s("hy.p_mu_table"), "s"),
        "hy.reps": (stats.reps, "count"),
        "hy.pairs": (stats.pairs, "count"),
        "hy.mu_blocks": (stats.mu_blocks, "count"),
        "hy.mu_per_pair": (stats.mu_blocks / stats.pairs if stats.pairs else 0.0, "ratio"),
        "hy.max_degree": (stats.max_degree, "count"),
        "hy.max_coeff": (stats.max_coeff, "count"),
        "hy.induce.self_s": (self_s("hy.induce"), "s"),
        "hy.checks.self_s": (self_s(*(f"hy.{n}" for n in CHECKS)), "s"),
        "hy.mu_inductive.seq_s": (t.outermost_time({"hy.mu_inductive"}, flag_seq), "s"),
        "hy.mu_inductive.pool_s": (t.outermost_time({"hy.mu_inductive"}, flag_pool), "s"),
        "matrix.matmul.calls": (calls(mat + "__matmul__"), "count"),
        "matrix.matmul.self_s": (self_s(mat + "__matmul__"), "s"),
        "matrix.addsub.calls": (calls(*addsub), "count"),
        "matrix.addsub.self_s": (self_s(*addsub), "s"),
        "matrix.split_bar.calls": (calls(*split_bar), "count"),
        "matrix.split_bar.self_s": (self_s(*split_bar), "s"),
        "matrix.self_s": (t.layer_self("matrix"), "s"),
        "laurent.ops.calls": (calls(*laurent_ops), "count"),
        "laurent.self_s": (t.layer_self("laurent"), "s"),
        "canon.iota_expand.calls": (calls("canon.iota_expand"), "count"),
        "canon.iota_expand.self_s": (self_s("canon.iota_expand"), "s"),
        "canon.rho_table.s": (total("canon.rho_table"), "s"),
        "canon.check_rho.s": (total("canon.check_rho"), "s"),
        "canon.canonicalise_shadow.s": (total("canon.canonicalise_shadow"), "s"),
        "canon.self_s": (t.layer_self("canon"), "s"),
        "wgraph.validate.s": (total("wgraph.validate"), "s"),
        "wgraph.hecke_matrix.calls": (calls(mod + "hecke_matrix", mod + "iota_t"), "count"),
        "wgraph.self_s": (t.layer_self("wgraph"), "s"),
        "cells.cell_partition.s": (total("cells.cell_partition"), "s"),
        "cells.count": (stats.cells, "count"),
        "formats.serialize.s": (t.outermost_time(serialize), "s"),
        "formats.out_bytes": (stats.out_bytes, "bytes"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }


def result_line(runner: Runner, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    expected = wl.load_expected()[workload.name]
    runner = Runner(workload, args.seed, expected)
    metrics = run_traced(runner) if args.trace else run_plain(runner, args.seconds)
    print(result_line(runner, metrics))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
