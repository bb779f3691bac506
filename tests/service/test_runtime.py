"""The warm runtime: persistent pool + shared-memory transport +
compiled-artifact cache must serve reports **canonically identical** to
the cold serial runner at every window size and worker count — and tear
down without leaking a single ``/dev/shm`` segment."""

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import spans_from_payload, summarize_trace
from repro.service import (
    Fleet,
    FleetScenario,
    WarmRuntime,
    canonical_payload,
    default_failure_schedule,
    leaked_segments,
    run_fleet_scenario,
    run_fleet_scenario_parallel,
)
from repro.sim import CompiledTrace, generate_request_stream

REPO_ROOT = Path(__file__).resolve().parents[2]


def _scenario(**overrides):
    base = dict(
        shards=2,
        v=9,
        k=3,
        duration_ms=200.0,
        interarrival_ms=2.0,
        seed=3,
    )
    base.update(overrides)
    return FleetScenario(**base)


def _stream_for(scenario):
    capacity = Fleet(
        scenario.shards, scenario.v, scenario.k, seed=scenario.seed
    ).capacity
    return generate_request_stream(
        scenario.workload(), scenario.duration_ms, capacity
    )


def _canonical(payload):
    return json.dumps(canonical_payload(payload), sort_keys=True)


def _assert_clean(runtime):
    """Post-close oracle: no resident bytes, no segments on disk."""
    runtime.close()
    assert runtime.stats.shm_bytes == 0
    assert leaked_segments(os.getpid()) == []


class TestByteIdentityMatrix:
    """Warm reports vs the cold serial runner, across the full
    window-size x worker-count grid (the tentpole contract)."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "window", [None, 1, 7, 64, 1_000_000], ids=lambda w: f"window={w}"
    )
    def test_warm_matches_cold_serial(self, workers, window):
        scenario = _scenario(window_size=window)
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=workers) as runtime:
            first = runtime.run()
            second = runtime.run()
            assert _canonical(first) == _canonical(cold)
            assert _canonical(second) == _canonical(cold)
            _assert_clean(runtime)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_submitted_stream_matches_batch(self, workers):
        scenario = _scenario()
        stream = _stream_for(scenario)
        batch = run_fleet_scenario(scenario, stream=stream).to_dict()
        with WarmRuntime(scenario, workers=workers) as runtime:
            first = runtime.run(stream=stream)
            second = runtime.run(stream=stream)
            assert _canonical(first) == _canonical(batch)
            assert _canonical(second) == _canonical(batch)
            if workers == 1 or first["parallel"]["workers"] > 1:
                # The repeated submit is the cache's reason to exist.
                assert runtime.stats.compile_cache_hits >= 1
            _assert_clean(runtime)

    def test_windowed_submitted_stream_rides_shared_memory(self):
        """window + submitted stream + workers>1 is the windowed task
        with a stream segment: raw arrays packed per serve, released
        after it."""
        scenario = _scenario(window_size=64)
        stream = _stream_for(scenario)
        batch = run_fleet_scenario(scenario, stream=stream).to_dict()
        with WarmRuntime(scenario, workers=2) as runtime:
            for _ in range(2):
                payload = runtime.run(stream=stream)
                assert _canonical(payload) == _canonical(batch)
                # Per-serve stream segments never outlive the serve.
                assert runtime.stats.shm_bytes == 0
            _assert_clean(runtime)

    def test_failures_and_rebuilds_identical(self):
        scenario = _scenario(
            shards=3,
            failures=default_failure_schedule(3, 9, 2, 50.0),
            admission=1,
        )
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=2) as runtime:
            for _ in range(2):
                assert _canonical(runtime.run()) == _canonical(cold)
            _assert_clean(runtime)

    def test_spawn_context_identical(self):
        scenario = _scenario()
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=2, mp_context="spawn") as runtime:
            assert _canonical(runtime.run()) == _canonical(cold)
            assert _canonical(runtime.run()) == _canonical(cold)
            assert runtime.stats.pool_warm_hits == 1
            _assert_clean(runtime)


class TestWarmth:
    """The counters must prove the fast paths actually engaged."""

    def test_pool_and_cache_reuse_across_runs(self):
        with WarmRuntime(_scenario(), workers=2) as runtime:
            runtime.run()
            stats = runtime.stats
            assert stats.pool_cold_boots == 1
            assert stats.compile_cache_misses == 1
            assert stats.shm_bytes > 0
            runtime.run()
            assert stats.pool_warm_hits == 1
            assert stats.compile_cache_hits == 1
            assert stats.compile_cache_misses == 1  # no rebuild
            assert stats.ipc_bytes_avoided > 0
            _assert_clean(runtime)

    def test_artifact_cache_is_bounded_lru(self):
        scenario = _scenario()
        with WarmRuntime(scenario, cache_artifacts=1) as runtime:
            runtime.run()
            one = runtime.stats.shm_bytes
            assert one > 0
            # A different stream evicts the synthetic artifact: the
            # cache holds one artifact, so resident bytes stay bounded
            # and the evicted segment is unlinked immediately.
            runtime.run(stream=_stream_for(scenario))
            assert runtime.stats.compile_cache_misses == 2
            assert len(leaked_segments(os.getpid())) == 1
            _assert_clean(runtime)

    def test_report_carries_runtime_stats_and_canonical_strips_them(self):
        with WarmRuntime(_scenario(), workers=2) as runtime:
            payload = runtime.run()
            assert payload["runtime"]["runs"] == 1
            assert payload["runtime"]["pool_cold_boots"] == 1
            assert "runtime" not in canonical_payload(payload)
            summary = summarize_trace(
                spans_from_payload(payload), runtime=payload["runtime"]
            )
            assert "warm runtime: 1 run(s)" in summary
            _assert_clean(runtime)


class TestInvalidation:
    def test_update_scenario_shape_change_invalidates(self):
        small = _scenario()
        with WarmRuntime(small, workers=2) as runtime:
            baseline = runtime.run()
            assert runtime.stats.shm_bytes > 0
            grown = _scenario(shards=4)
            runtime.update_scenario(grown)
            assert runtime.stats.shm_bytes == 0  # stale slices unlinked
            cold = run_fleet_scenario(grown).to_dict()
            assert _canonical(runtime.run()) == _canonical(cold)
            assert _canonical(runtime.run()) != _canonical(baseline)
            _assert_clean(runtime)

    def test_reshape_run_invalidates_and_stays_identical(self):
        scenario = _scenario(
            duration_ms=400.0, reshape_to=4, reshape_at_ms=100.0
        )
        cold = run_fleet_scenario(scenario).to_dict()
        with WarmRuntime(scenario, workers=2) as runtime:
            for _ in range(2):
                assert _canonical(runtime.run()) == _canonical(cold)
                # Reshape runs must never leave cached slices behind.
                assert runtime.stats.shm_bytes == 0
            _assert_clean(runtime)

    def test_run_after_close_raises(self):
        runtime = WarmRuntime(_scenario())
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            runtime.run()
        runtime.close()  # idempotent


class TestTeardown:
    """No ``/dev/shm`` orphans and no ``resource_tracker`` warnings on
    any exit path (the satellite regression suite)."""

    def _assert_child_clean(self, pid, returncode, err):
        assert returncode == 0, err
        assert "resource_tracker" not in err, err
        assert "Traceback" not in err, err
        assert list(Path("/dev/shm").glob(f"repro_wrt_{pid:x}_*")) == []

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "window", [None, 64], ids=["materialized", "windowed"]
    )
    def test_cold_parallel_run_exits_clean(self, mp_context, window):
        """The batch ``--workers N`` path is a one-shot runtime: its
        segments are gone when the call returns, its report stays a
        cold one (no ``runtime`` section), and the process exits
        without tracker warnings."""
        script = textwrap.dedent(
            f"""
            import json, os
            from repro.service import (
                FleetScenario, canonical_payload, leaked_segments,
                run_fleet_scenario, run_fleet_scenario_parallel,
            )
            scenario = FleetScenario(
                shards=2, v=9, k=3, duration_ms=200.0,
                interarrival_ms=2.0, seed=3, window_size={window},
            )
            run = run_fleet_scenario_parallel(
                scenario, workers=2, mp_context={mp_context!r}
            )
            assert run.execution.workers == 2
            assert run.execution.mp_context == {mp_context!r}
            payload = run.to_dict()
            assert "runtime" not in payload
            cold = run_fleet_scenario(scenario).to_dict()
            assert json.dumps(canonical_payload(payload), sort_keys=True) \
                == json.dumps(canonical_payload(cold), sort_keys=True)
            assert leaked_segments(os.getpid()) == []
            print(f"cold parallel run in pid {{os.getpid()}}")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert "cold parallel run" in proc.stdout, proc.stderr
        pid = int(proc.stdout.split()[-1])
        self._assert_child_clean(pid, proc.returncode, proc.stderr)

    def test_cold_parallel_run_pickles_no_compiled_trace(self, monkeypatch):
        """Materialized groups read their slices from shared memory;
        a trace reaching the pickle channel fails the run."""

        def refuse(self, protocol):
            raise AssertionError("CompiledTrace pickled to a worker")

        monkeypatch.setattr(CompiledTrace, "__reduce_ex__", refuse)
        scenario = _scenario()
        run = run_fleet_scenario_parallel(
            scenario, workers=2, mp_context="fork"
        )
        assert run.execution.workers == 2
        cold = run_fleet_scenario(scenario).to_dict()
        assert _canonical(run.to_dict()) == _canonical(cold)
        assert leaked_segments(os.getpid()) == []

    def test_interpreter_exit_without_close_sweeps_segments(self):
        """The atexit net: a runtime abandoned without close() must
        still unlink its segments at interpreter exit."""
        script = textwrap.dedent(
            """
            import os
            from repro.service import FleetScenario, WarmRuntime
            runtime = WarmRuntime(
                FleetScenario(
                    shards=2, v=9, k=3, duration_ms=200.0,
                    interarrival_ms=2.0, seed=3,
                ),
                workers=2,
            )
            runtime.run()
            assert runtime.stats.shm_bytes > 0
            print(f"segments resident in pid {os.getpid()}")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert "segments resident" in proc.stdout
        pid = int(proc.stdout.split()[-1])
        self._assert_child_clean(pid, proc.returncode, proc.stderr)

    def test_sigterm_tears_down_frontend_cleanly(self):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--smoke",
                "--shards",
                "2",
                "--duration",
                "200",
                "--interarrival",
                "2.0",
                "--seed",
                "3",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert line.startswith("serving on "), line
            host, _, port = line.split()[-1].rpartition(":")
            # One real serve so the pool boots and segments exist.
            with socket.create_connection(
                (host, int(port)), timeout=120
            ) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"op": "run"}\n')
                f.flush()
                reply = json.loads(f.readline())
                assert reply["ok"], reply
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
        self._assert_child_clean(proc.pid, proc.returncode, line + err)
