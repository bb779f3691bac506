"""The in-process workloads: layout_build, stream_windowed, fleet_degraded.

Each workload exposes ``setup()`` (everything a fresh process does
before its first op), ``cycle`` (ops per full pass over its inputs),
``prepare(i)`` (op ``i``'s inputs and, on first use, its reference —
outside the timed region), ``op(inputs, tracer)`` (the timed call into
the public API) and ``check(inputs, output)`` (the correctness check,
outside the timed region, returning an error string or ``None``).
"""

from __future__ import annotations

import dataclasses
import json
import random

import numpy as np

import spec
from layers import span


class Workload:
    """Defaults for the optional hooks the harness calls."""

    external = False

    def op_counts(self, output, tracer) -> dict:
        """Per-layer counts read from an op's output (traced ops)."""
        return {}

    def op_extra(self, inputs, output) -> dict:
        """Facts about an op kept in its record."""
        return {}

    def layer_overrides(self, ops, outcome) -> dict:
        """Per-layer metrics computed from the whole run."""
        return {}

    def close(self) -> dict:
        """Tear down; returns hygiene facts and errors."""
        return {}

    def layouts_per_s(self, good: list[dict], p50: float) -> float:
        """Layouts laid out per op ÷ the median op time."""
        return sum(o["layouts"] for o in good) / len(good) / p50 if p50 else 0.0

    def layout_units(self, good: list[dict]) -> float:
        """Units per disk, summed over the layouts one op lays out."""
        return good[0]["units"] if good else 0.0


class LayoutBuild(Workload):
    """Cold plan -> build -> evaluate -> mapping tables for one (v, k)."""

    name = "layout_build"

    def __init__(self, seed: int) -> None:
        self.pairs = list(spec.LAYOUT_PAIRS)
        random.Random(seed).shuffle(self.pairs)
        self.cycle = len(self.pairs)
        self._refs: dict[tuple[int, int], tuple] = {}

    def setup(self) -> None:
        import repro.core  # noqa: F401
        import repro.layouts  # noqa: F401
        import repro.verify  # noqa: F401

    def op_size(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs]}

    def prepare(self, i: int):
        from repro.core import clear_registry

        clear_registry()
        return self.pairs[i % self.cycle]

    def op(self, pair, tracer):
        from repro.core import plan_layout
        from repro.layouts import AddressMapper, evaluate_layout

        v, k = pair
        with span(tracer, "core.plan_s"):
            plan = plan_layout(v, k)
        with span(tracer, "layouts.build_s"):
            layout = plan.build()
        with span(tracer, "layouts.evaluate_s"):
            metrics = evaluate_layout(layout)
        with span(tracer, "layouts.mapper_build_s"):
            mapper = AddressMapper(layout)
        return plan, layout, metrics, mapper

    def reference(self, plan, layout, metrics, mapper) -> tuple:
        """Full check of a pair's first build: Condition 1 via
        ``Layout.validate`` and Conditions 1-4 via ``check_layout``, with
        the tolerances the plan's construction is entitled to."""
        from repro.verify import check_layout

        layout.validate()
        bound = None
        if plan.method.startswith("stairway"):
            bound = (plan.k - 1) / (plan.detail["q"] - 1)
        report = check_layout(
            layout,
            parity_spread_allowance=0 if plan.balanced else 1,
            workload_bound=bound,
        )
        if not report.passed:
            raise AssertionError(report.summary())
        probe = np.random.default_rng(0).integers(0, mapper.capacity, size=512)
        return layout, metrics, mapper.map_batch(probe), probe

    def check(self, pair, output) -> str | None:
        plan, layout, metrics, mapper = output
        if (layout.v, plan.k) != pair:
            return f"built {(layout.v, plan.k)} for {pair}"
        if layout.size != plan.predicted_size:
            return f"size {layout.size} != predicted {plan.predicted_size}"
        ref = self._refs.get(pair)
        if ref is None:
            try:
                self._refs[pair] = self.reference(*output)
            except (AssertionError, ValueError) as exc:
                return f"conformance: {exc}"
            return None
        ref_layout, ref_metrics, ref_map, probe = ref
        if layout != ref_layout:
            return "layout differs from the verified first build"
        if metrics != ref_metrics:
            return "metrics differ from the verified first build"
        got = mapper.map_batch(probe)
        if not all(np.array_equal(a, b) for a, b in zip(got, ref_map)):
            return "mapping tables differ from the verified first build"
        return None

    def units(self, output) -> tuple[int, int, int]:
        """(requests, layouts, layout units) of one op."""
        return 1, 1, output[1].size

    def layouts_per_s(self, good: list[dict], p50: float) -> float:
        """Pairs built per second of op time, over whole passes (a run
        only ever stops at the end of a pass)."""
        return len(good) / sum(o["seconds"] for o in good) if good else 0.0

    def layout_units(self, good: list[dict]) -> float:
        """Units per disk summed over one pass of the pair list."""
        return sum(o["units"] for o in good[: self.cycle])


class _Serving(Workload):
    """Shared scaffolding of the in-process serving workloads: a pool of
    seed-derived scenarios, each with a reference report computed once
    before its first op."""

    shards: int

    def __init__(self, seed: int) -> None:
        ss = np.random.SeedSequence(seed)
        self.stream_seeds = [
            int(s.generate_state(1)[0]) for s in ss.spawn(spec.STREAM_POOL)
        ]
        self.cycle = spec.STREAM_POOL
        self._refs: dict[int, str] = {}

    def setup(self) -> None:
        from repro.core import get_incidence, get_layout, get_mapper
        import repro.service  # noqa: F401

        layout = get_layout(spec.SERVE_V, spec.SERVE_K)
        get_mapper(layout)
        get_incidence(layout)
        self.layout_size = layout.size
        self.scenarios = [self.scenario(s) for s in self.stream_seeds]

    def op_size(self) -> dict:
        return {
            "shards": self.shards,
            "v": spec.SERVE_V,
            "k": spec.SERVE_K,
            "stream_seeds": self.stream_seeds,
        }

    def canonical(self, report) -> str:
        """The report's canonical payload, as compared with the
        reference."""
        from repro.service import canonical_payload

        return json.dumps(canonical_payload(report.to_dict()), sort_keys=True)

    def reference_report(self, sc):
        from repro.service import run_fleet_scenario

        return run_fleet_scenario(sc)

    def prepare(self, i: int):
        k = i % self.cycle
        sc = self.scenarios[k]
        if k not in self._refs:
            self._refs[k] = self.canonical(self.reference_report(sc))
        return k, sc

    def op(self, inputs, tracer):
        from repro.service import run_fleet_scenario

        return run_fleet_scenario(inputs[1])

    def check(self, inputs, report) -> str | None:
        err = self.verdict(report)
        if err:
            return err
        if self.canonical(report) != self._refs[inputs[0]]:
            return "report differs from the reference"
        return None

    def verdict(self, report) -> str | None:
        d = report.to_dict()
        if not d["passed"]:
            return "report not passed"
        if d["conformance"] is None or not d["conformance"]["passed"]:
            return "conformance failed"
        fleet = d["fleet"]
        if fleet["completed"] != fleet["scheduled"] - fleet["lost_to_failures"]:
            return "completed != scheduled - lost"
        if not fleet["scheduled"]:
            return "no requests served"
        return None

    def op_counts(self, report, tracer) -> dict:
        fleet = tracer.fleet
        return {
            "sim.events": fleet.sim.events_processed if fleet else 0,
            "sim.stripes_rebuilt": sum(
                o.report.stripes_rebuilt for o in report.rebuilds
            ),
        }

    def units(self, report) -> tuple[int, int, int]:
        return (
            report.fleet.scheduled,
            self.shards,
            self.shards * self.layout_size,
        )


class StreamWindowed(_Serving):
    """Healthy 70/30 RMW stream served windowed on 4 shards of (41,5)."""

    name = "stream_windowed"
    shards = spec.WINDOWED["shards"]

    def scenario(self, stream_seed: int):
        from repro.service import FleetScenario

        ia = spec.HEALTHY_INTERARRIVAL_MS
        return FleetScenario(
            shards=self.shards,
            v=spec.SERVE_V,
            k=spec.SERVE_K,
            duration_ms=spec.WINDOWED["requests"] * ia,
            interarrival_ms=ia,
            read_fraction=spec.READ_FRACTION,
            workload_seed=stream_seed,
            verify_data=False,
            window_size=spec.WINDOWED["window_size"],
            seed=0,
        )

    def op_size(self) -> dict:
        return {
            **super().op_size(),
            "requests_per_op": spec.WINDOWED["requests"],
            "window_size": spec.WINDOWED["window_size"],
        }

    def reference_report(self, sc):
        # Reports are byte-identical at every window size, so the
        # reference is served in windows of a different size.
        from repro.service import run_fleet_scenario

        return run_fleet_scenario(
            dataclasses.replace(sc, window_size=sc.window_size // 2 + 1)
        )

    def canonical(self, report) -> str:
        # The window size is a scenario field; everything else must
        # match the reference served in other windows.
        from repro.service import canonical_payload

        d = canonical_payload(report.to_dict())
        d["scenario"]["window_size"] = None
        return json.dumps(d, sort_keys=True)

    def verdict(self, report) -> str | None:
        err = super().verdict(report)
        if err is None and report.fleet.lost:
            return "healthy fleet lost requests"
        return err


class FleetDegraded(_Serving):
    """8 shards of (41,5), two concurrent early failures, data planes on,
    every rebuild verified bit for bit."""

    name = "fleet_degraded"
    shards = spec.DEGRADED["shards"]

    def scenario(self, stream_seed: int):
        from repro.service import FleetScenario, default_failure_schedule

        cfg = spec.DEGRADED
        ia = cfg["interarrival_ms"]
        duration = cfg["requests"] * ia
        return FleetScenario(
            shards=self.shards,
            v=spec.SERVE_V,
            k=spec.SERVE_K,
            duration_ms=duration,
            interarrival_ms=ia,
            read_fraction=spec.READ_FRACTION,
            workload_seed=stream_seed,
            failures=default_failure_schedule(
                self.shards, spec.SERVE_V, cfg["failures"],
                duration * cfg["failure_at"],
            ),
            verify_data=True,
            seed=0,
        )

    def op_size(self) -> dict:
        cfg = spec.DEGRADED
        return {
            **super().op_size(),
            "requests_per_op": cfg["requests"],
            "failures": cfg["failures"],
        }

    def verdict(self, report) -> str | None:
        err = super().verdict(report)
        if err is None and not report.all_rebuilt_verified:
            return "rebuilds not all verified"
        return err


IN_PROCESS = {
    "layout_build": LayoutBuild,
    "stream_windowed": StreamWindowed,
    "fleet_degraded": FleetDegraded,
}
