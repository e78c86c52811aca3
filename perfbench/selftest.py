"""Self-test of the benchmark on the repository's small systems.

    python3 perfbench/selftest.py

Runs each workload shape on ``systems/a2.json`` and ``systems/b2.json``
(plus the length-4 ball of ``systems/affine_a1.json``) in a few seconds,
with fingerprints recorded on the spot, and asserts that:

* the plain run emits every end-to-end metric of ``BENCHMARK.json`` and
  the traced run every per-layer metric, each with its unit;
* outputs of the traced round are byte-identical to the untraced ones;
* a relabelling seed keeps every label-independent fact;
* a corrupted fingerprint makes its operation fail, so that the success
  rate drops below 1 and the result reads ``"correct": false``.

Exits 0 if all of this holds.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def declared(kind: str) -> dict:
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def emitted(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok: {message}")


def main() -> int:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for workload in wl.SMOKE_WORKLOADS.values():
        name = workload.name
        expected = wl.record_fingerprints(workload, 0)

        runner = run.Runner(workload, 0, expected, log=sys.stderr)
        metrics = run.run_plain(runner, 0.0)
        expect(runner.failed == 0, f"{name}: plain run passes its checks")
        expect(emitted(metrics) == end_to_end, f"{name}: end-to-end metrics and units")

        runner = run.Runner(workload, 0, expected, log=sys.stderr)
        metrics = run.run_traced(runner)
        expect(runner.failed == 0, f"{name}: traced outputs equal the untraced ones")
        expect(emitted(metrics) == per_layer, f"{name}: per-layer metrics and units")

        runner = run.Runner(workload, 3, expected, log=sys.stderr)
        run.run_plain(runner, 0.0)
        expect(runner.failed == 0, f"{name}: facts unchanged under relabelling seed 3")

        corrupted = json.loads(json.dumps(expected))
        first = workload.ops[0].name
        corrupted[first]["sha256"] = "0" * 64
        runner = run.Runner(workload, 0, corrupted, log=io.StringIO())
        metrics = run.run_plain(runner, 0.0)
        result = json.loads(run.result_line(runner, metrics))
        expect(runner.failed > 0 and metrics["success_rate"][0] < 1.0
               and result["correct"] is False,
               f"{name}: a corrupted fingerprint is counted as a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
