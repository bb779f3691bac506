"""Fleet-level streaming: ``serve_windows`` / ``serve_workload(
window_size=...)`` / the scenario ``window_size`` knob, serial and
multi-process.

The contract: a windowed serve is byte-identical to the materialized
serve of the same stream — through the carry engines (idle clock), the
window router (armed rebuild timers, live migration, data planes),
and the parallel runner's per-group window pumps.  Scenario payloads
are compared in canonical JSON form; the windowed scenario echoes its
``window_size``, so scenario-vs-scenario comparisons strip that one
field (everything below the echo must match byte for byte).
"""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.service import (
    Fleet,
    FleetScenario,
    canonical_payload,
    default_failure_schedule,
    run_fleet_scenario,
    run_fleet_scenario_parallel,
)
from repro.service import parallel as service_parallel
from repro.sim import WorkloadConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
DURATION = 400.0
WINDOW_SIZES = (1, 13, 64, 10**6)


def _canon(payload: dict, *, ignore_window: bool = False) -> str:
    canon = canonical_payload(payload)
    if ignore_window:
        canon["scenario"] = {
            k: v for k, v in canon["scenario"].items() if k != "window_size"
        }
        # Engine labels legitimately differ between windowed and
        # materialized serves of the same scenario ("windowed-solver"
        # vs "solver", ...); the byte-identity contract covers them
        # only within one execution mode.
        canon.pop("engine", None)
        canon.pop("engine_per_shard", None)
    return json.dumps(canon, sort_keys=True)


def _workload(**overrides) -> WorkloadConfig:
    base = dict(interarrival_ms=1.0, read_fraction=0.7, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


#: (id, Fleet kwargs, workload) — one per serve_windows mode: the two
#: carry engines (eager / solver), the router forced by data planes,
#: the single-phase write-through fleet, and a non-ring placement.
FLEET_CASES = [
    ("mixed_carry_eager", dict(dataplane=False), _workload()),
    ("read_only_solver", dict(dataplane=False), _workload(read_fraction=1.0)),
    ("dataplane_router", dict(dataplane=True), _workload()),
    (
        "write_through_solver",
        dict(dataplane=False, write_policy="write_through"),
        _workload(),
    ),
    ("p2c_placement", dict(dataplane=False, placement="p2c"), _workload()),
]


class TestServeWindowEquality:
    @pytest.mark.parametrize(
        "kwargs,config",
        [(c[1], c[2]) for c in FLEET_CASES],
        ids=[c[0] for c in FLEET_CASES],
    )
    def test_matches_materialized_at_every_window_size(self, kwargs, config):
        materialized = asdict(
            Fleet(3, 9, 3, seed=0, **kwargs).serve_workload(config, DURATION)
        )
        for ws in WINDOW_SIZES:
            windowed = asdict(
                Fleet(3, 9, 3, seed=0, **kwargs).serve_workload(
                    config, DURATION, window_size=ws
                )
            )
            assert windowed == materialized, ws


def _scenario(**overrides) -> FleetScenario:
    base = dict(
        shards=4,
        v=9,
        k=3,
        duration_ms=300.0,
        interarrival_ms=1.0,
        read_fraction=0.7,
        admission=2,
        verify_data=True,
    )
    base.update(overrides)
    return FleetScenario(**base)


#: (id, scenario overrides) — healthy carry, rebuilds interleaving
#: with the router mid-stream, and a reshape cutting volumes over
#: mid-stream (window boundaries land mid-rebuild and mid-copy).
SCENARIO_CASES = [
    ("healthy", {}),
    ("rebuilds_mid_stream", dict(failures=default_failure_schedule(4, 9, 2, 80.0))),
    (
        "reshape_mid_stream",
        dict(duration_ms=DURATION, reshape_to=6, volumes=12, seed=9),
    ),
]


class TestScenarioWindowed:
    @pytest.mark.parametrize(
        "overrides",
        [c[1] for c in SCENARIO_CASES],
        ids=[c[0] for c in SCENARIO_CASES],
    )
    def test_windowed_scenario_matches_materialized(self, overrides):
        materialized = _canon(
            run_fleet_scenario(_scenario(**overrides)).to_dict(),
            ignore_window=True,
        )
        for ws in (64, 1024):
            windowed = _canon(
                run_fleet_scenario(
                    _scenario(window_size=ws, **overrides)
                ).to_dict(),
                ignore_window=True,
            )
            assert windowed == materialized, ws

    def test_windowed_scenario_still_passes_gates(self):
        report = run_fleet_scenario(
            _scenario(
                window_size=128,
                failures=default_failure_schedule(4, 9, 2, 80.0),
            )
        )
        assert report.passed
        assert report.all_rebuilt_verified
        assert len(report.rebuilds) == 2


class TestArrayNativeSinks:
    """The fleet's windowed drains — carry-engine sinks, the window
    router's sweep, and the per-shard pump's sweep — fold vectorized
    and still match the materialized scenario."""

    @pytest.mark.parametrize(
        "overrides,engine",
        [
            (dict(verify_data=False), "windowed-eager"),
            (
                dict(verify_data=False, read_fraction=1.0),
                "windowed-solver",
            ),
        ]
        + [(c[1], "windowed-pump") for c in SCENARIO_CASES],
        ids=["carry_eager", "carry_solver"]
        + [f"router_{c[0]}" for c in SCENARIO_CASES],
    )
    def test_serial_windowed_scenario_folds_vectorized(
        self, no_scalar_fold, overrides, engine
    ):
        materialized = _canon(
            run_fleet_scenario(_scenario(**overrides)).to_dict(),
            ignore_window=True,
        )
        report = run_fleet_scenario(_scenario(window_size=64, **overrides))
        assert engine in report.fleet.engines
        windowed = _canon(report.to_dict(), ignore_window=True)
        assert windowed == materialized

    def test_shard_pump_folds_vectorized(self, monkeypatch, no_scalar_fold):
        """A windowed group with a failure runs each shard on its own
        chained heap pump (``_arm_shard_pump``) in the grouped
        pipeline."""
        overrides = dict(failures=default_failure_schedule(4, 9, 2, 80.0))
        materialized = _canon(
            run_fleet_scenario(_scenario(**overrides)).to_dict(),
            ignore_window=True,
        )
        armed = []
        real = service_parallel._arm_shard_pump

        def spy(*args, **kwargs):
            armed.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(service_parallel, "_arm_shard_pump", spy)
        run = run_fleet_scenario_parallel(
            _scenario(window_size=64, **overrides), workers=1
        )
        assert armed
        assert _canon(run.to_dict(), ignore_window=True) == materialized


def _serve_peak_rss_mb(window_size: int) -> float:
    """Peak RSS of a fresh interpreter serving a ~200-request 2-shard
    scenario in windows of ``window_size``."""
    script = textwrap.dedent(
        f"""
        from repro.bench import peak_rss_mb
        from repro.service import FleetScenario, run_fleet_scenario
        report = run_fleet_scenario(FleetScenario(
            shards=2, duration_ms=200.0, interarrival_ms=1.0,
            verify_data=False, check_conformance=False,
            window_size={window_size},
        ))
        assert report.passed and report.fleet.scheduled < 400
        print(peak_rss_mb())
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


def test_oversized_window_memory_follows_the_horizon():
    """A window far larger than the stream costs memory in proportion
    to the requests actually drawn, not to ``window_size``."""
    small = _serve_peak_rss_mb(1000)
    huge = _serve_peak_rss_mb(10**7)
    assert huge <= 1.5 * small, (huge, small)
