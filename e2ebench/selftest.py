"""Self-test of the benchmark itself.

Run from the repository root:

    python3 e2ebench/selftest.py          # everything (about 5 minutes)
    python3 e2ebench/selftest.py --quick  # skip the short real runs

Checks that the metric names the benchmark emits equal those declared
in BENCHMARK.json (by short real runs of every workload in both modes),
that the tail-percentile rule picks the right percentile at 19, 20, 200
and 1000 samples, that a corrupted report counts as a failed op, and
that self-time arithmetic is right on a synthetic span tree.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
from stats import tail, tail_percentile  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def declared() -> dict:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
        "workloads": [w["name"] for w in bench["workloads"]],
    }


def test_declared_names() -> None:
    d = declared()
    expect(d["end_to_end"] == spec.END_TO_END, "end-to-end names/units differ")
    expect(d["per_layer"] == spec.PER_LAYER, "per-layer names/units differ")
    expect(tuple(d["workloads"]) == spec.WORKLOADS, "workload names differ")


def test_span_names_declared() -> None:
    from layers import ENGINE_SPAN, OP_SPAN, library_patches

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    names = library_patches(Tracer()).names - {ENGINE_SPAN}
    names |= {OP_SPAN} | {f"{ENGINE_SPAN}.{e}" for e in spec.ENGINE_LABELS}
    missing = sorted(n for n in names if n not in spec.PER_LAYER)
    expect(not missing, f"span names not declared as layers: {missing}")


def test_emitted_names() -> None:
    d = declared()
    for workload in spec.WORKLOADS:
        for trace, names in ((0, d["end_to_end"]), (1, d["per_layer"])):
            proc = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", "3",
                    "--seconds", "0.1", "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
                timeout=300,
            )
            expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}"
                   f" {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{workload} trace={trace}: emitted names differ")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: not correct")
            print(f"  {workload} trace={trace}: {len(got)} metrics ok")


def test_tail_rule() -> None:
    for n, want in ((19, None), (20, 50), (200, 95), (1000, 99)):
        expect(tail_percentile(n) == want, f"tail percentile at n={n}")
    values = [float(i) for i in range(1, 1001)]
    expect(tail(values) == (990.0, "p99", 1000), "p99 of 1..1000")
    expect(tail(values[:200]) == (190.0, "p95", 200), "p95 of 1..200")
    expect(tail(values[:20]) == (10.0, "p50", 20), "p50 of 1..20")
    expect(tail(values[:19]) == (19.0, "max", 19), "max of 1..19")


def test_self_time() -> None:
    # op [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (clipped at 10); a has child d [2, 3].
    spans = [
        Span(0, None, 0, "op", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 3.0, 6.0),
        Span(3, 0, 0, "c", 8.0, 12.0),
        Span(4, 1, 0, "d", 2.0, 3.0),
    ]
    got = self_times(spans)
    want = {0: 10 - (5 + 2), 1: 3 - 1, 2: 3.0, 3: 4.0, 4: 1.0}
    expect(got == want, f"self times {got} != {want}")


def _fake_workload(check):
    """Cycles of three trivial ops whose check fails where told to."""
    from workloads import Workload

    class Fake(Workload):
        name = "fake"
        external = True
        cycle = 3

        def timed_setup(self, keep: bool) -> float:
            return 0.0

        def prepare(self, i):
            return i

        def op(self, i, tracer):
            return i

        def check(self, i, out):
            return check(i)

        def units(self, out):
            return 1, 1, 1

    return Fake()


def test_corrupted_report_fails() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import harness
    from workloads import FleetDegraded, LayoutBuild

    # The serving check: a report whose counts or latencies were
    # tampered with no longer passes.
    wl = FleetDegraded(5)
    wl.setup()
    inputs = wl.prepare(0)
    report = wl.op(inputs, None)
    expect(wl.check(inputs, report) is None, "clean report must pass")
    fleet = report.fleet
    lost = dataclasses.replace(
        report, fleet=dataclasses.replace(fleet, completed=fleet.completed - 1)
    )
    expect(wl.check(inputs, lost) is not None, "lost request not caught")
    latency = {k: dict(v) for k, v in fleet.latency.items()}
    first = next(iter(latency))
    latency[first]["p50"] += 1.0
    skewed = dataclasses.replace(
        report, fleet=dataclasses.replace(fleet, latency=latency)
    )
    expect(wl.check(inputs, skewed) is not None, "changed latency not caught")

    # The layout check: a layout built for another pair fails.
    lb = LayoutBuild(5)
    lb.setup()
    a = lb.op(lb.prepare(0), None)
    expect(lb.check(lb.pairs[0], a) is None, "first build must pass")
    expect(lb.check(lb.pairs[0], a) is None, "repeat build must pass")
    b = lb.op(lb.prepare(1), None)
    expect(lb.check(lb.pairs[0], b) is not None, "wrong layout not caught")

    # The harness counts a failed check as a failed op.
    fake = _fake_workload(lambda i: "corrupted" if i == 1 else None)
    outcome = harness.run(fake, workload="fake", seconds=0.0, trace=False,
                          root=os.getcwd())
    metrics, facts = harness.end_to_end(fake, outcome)
    n = len(outcome["ops"])
    expect(n == spec.MIN_OPS + 1, f"{n} ops, want {spec.MIN_OPS + 1}")
    expect(facts["attempted"] == n and facts["failed"] == 1,
           f"accounting {facts['attempted']}/{facts['failed']}")
    expect(abs(metrics["success_rate"] - (n - 1) / n) < 1e-12, "success_rate")


def main() -> int:
    quick = "--quick" in sys.argv[1:]
    tests = [
        test_declared_names,
        test_tail_rule,
        test_self_time,
        test_span_names_declared,
        test_corrupted_report_fails,
    ]
    if not quick:
        tests.append(test_emitted_names)
    for test in tests:
        print(test.__name__)
        test()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
