"""End-to-end benchmark of the parity-declustered layout library.

Run from the repository root:

    python3 e2ebench/run.py --workload stream_windowed --seed 1 \
        --seconds 15 --trace 0

It sets up the workload (timed from fresh processes), runs ops for
``--seconds``, checks every op's output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it is the run record:
host facts, op size, tail percentile and sample count.  Traced runs
also write their spans to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _library_root() -> str | None:
    """The checkout root holding ``src/repro``, or None."""
    root = os.getcwd()
    if os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return root
    return None


def _make(workload: str, seed: int):
    if workload == "frontend_warm":
        from frontend import FrontendWarm

        return FrontendWarm(seed)
    from workloads import IN_PROCESS

    return IN_PROCESS[workload](seed)


def main(argv: list[str] | None = None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=spec.WORKLOADS, default=None)
    args = parser.parse_args(argv)

    root = _library_root()
    if root is None:
        print(
            "e2ebench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    if args.setup_probe:
        # A fresh interpreter doing exactly the workload's set-up.
        _make(args.setup_probe, 0).setup()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import harness

    facts = harness.host_facts()
    wl = _make(args.workload, args.seed)
    outcome = harness.run(
        wl,
        workload=args.workload,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=root,
    )
    e2e, run_facts = harness.end_to_end(wl, outcome)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": facts,
        "op_size": wl.op_size(),
        **run_facts,
        **outcome["hygiene"].get("facts", {}),
        "errors": outcome["errors"][:20],
    }
    if args.trace:
        values = harness.per_layer(wl, outcome)
        units = spec.PER_LAYER
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
        outcome["tracer"].dump(stem + ".spans.jsonl")
        record["spans_file"] = os.path.relpath(stem + ".spans.jsonl", root)
        with open(stem + ".record.json", "w") as fh:
            json.dump({**record, "per_layer": values, "end_to_end": e2e}, fh, indent=1)
    else:
        values = e2e
        units = spec.END_TO_END
    failed = run_facts["failed"]
    result = {
        "correct": failed == 0 and not outcome["errors"],
        "attempted": run_facts["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
