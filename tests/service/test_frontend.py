"""The socket front-end: streams submitted over a local socket must
produce reports canonically identical to the equivalent batch run —
the front-end adds transport, never semantics."""

import asyncio
import json
import logging
import os
import signal
from multiprocessing.connection import wait

import pytest

from repro.service import (
    AutoscalePolicy,
    Fleet,
    FleetScenario,
    ServiceFrontend,
    canonical_payload,
    leaked_segments,
    run_fleet_scenario,
)
from repro.service import frontend as frontend_module
from repro.service.frontend import LINE_LIMIT
from repro.sim import generate_request_stream


def _scenario(**overrides):
    base = dict(
        shards=2,
        v=9,
        k=3,
        duration_ms=200.0,
        interarrival_ms=2.0,
        seed=3,
        window_size=64,
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


async def _client(frontend):
    host, port = frontend.address
    reader, writer = await asyncio.open_connection(host, port)

    async def rpc(obj):
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    return rpc, writer


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


class TestFrontend:
    def test_socket_stream_matches_batch_report(self):
        """The tentpole identity: a stream submitted in chunks over the
        socket serves canonically identical to the same stream run
        directly through the scenario runner."""
        scenario = _scenario()
        times, is_read, lbas = _stream_for(scenario)
        batch = run_fleet_scenario(
            scenario, stream=(times, is_read, lbas)
        ).to_dict()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                mid = len(times) // 2
                for lo, hi in ((0, mid), (mid, len(times))):
                    reply = await rpc({
                        "op": "submit",
                        "times": times[lo:hi].tolist(),
                        "is_read": is_read[lo:hi].tolist(),
                        "lbas": lbas[lo:hi].tolist(),
                    })
                    assert reply["ok"], reply
                assert reply["buffered"] == len(times)
                served = await rpc({"op": "serve"})
                assert served["ok"], served
                writer.close()
                return served["report"]
            finally:
                await frontend.close()

        served = _run(main())
        assert _canonical(served) == _canonical(batch)

    def test_warm_resubmit_is_identical_and_provably_warm(self):
        """The warm-runtime identity over the socket: the same stream
        submitted twice through a 2-process pool serves two canonically
        identical reports (warm == cold == batch), and the ping stats
        prove the pool and the compiled-artifact cache were reused."""
        scenario = _scenario(window_size=None)
        times, is_read, lbas = _stream_for(scenario)
        batch = run_fleet_scenario(
            scenario, stream=(times, is_read, lbas)
        ).to_dict()

        async def main():
            frontend = ServiceFrontend(scenario, workers=2)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                reports = []
                for _ in range(2):
                    mid = len(times) // 2
                    for lo, hi in ((0, mid), (mid, len(times))):
                        reply = await rpc({
                            "op": "submit",
                            "times": times[lo:hi].tolist(),
                            "is_read": is_read[lo:hi].tolist(),
                            "lbas": lbas[lo:hi].tolist(),
                        })
                        assert reply["ok"], reply
                    served = await rpc({"op": "serve"})
                    assert served["ok"], served
                    reports.append(served["report"])
                ping = await rpc({"op": "ping"})
                writer.close()
                return reports, ping
            finally:
                await frontend.close()

        (cold, warm), ping = _run(main())
        assert _canonical(cold) == _canonical(batch)
        assert _canonical(warm) == _canonical(cold)
        assert ping["workers"] == 2
        assert ping["runtime"]["pool_warm_hits"] >= 1
        assert ping["runtime"]["compile_cache_hits"] >= 1

    def test_run_op_matches_run_fleet_scenario(self):
        """Regression pin: the ``run`` op (no submitted stream) returns
        the scenario's own report byte-identically — a disabled
        autoscaler and the socket hop change nothing."""
        scenario = _scenario()
        direct = run_fleet_scenario(scenario).to_dict()
        assert direct["autoscale"] is None

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                reply = await rpc({"op": "run"})
                assert reply["ok"], reply
                writer.close()
                return reply["report"]
            finally:
                await frontend.close()

        assert _canonical(_run(main())) == _canonical(direct)

    def test_autoscaled_scenario_serves_through_socket(self):
        scenario = _scenario(
            duration_ms=600.0,
            interarrival_ms=0.5,
            seed=7,
            window_size=None,
            autoscale=AutoscalePolicy(
                cadence_ms=50.0,
                high_rate=0.5,
                sustain_ticks=2,
                cooldown_ms=200.0,
                grow_step=2,
                max_shards=8,
            ),
        )
        direct = run_fleet_scenario(scenario).to_dict()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                ping = await rpc({"op": "ping"})
                assert ping["scenario"]["autoscale"] is True
                reply = await rpc({"op": "run"})
                writer.close()
                return reply["report"]
            finally:
                await frontend.close()

        report = _run(main())
        assert report["autoscale"]["ok"] is True
        assert len(report["autoscale"]["events"]) == 1
        assert _canonical(report) == _canonical(direct)

    def test_protocol_errors_keep_connection_usable(self):
        scenario = _scenario()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                checks = []
                checks.append(await rpc({"op": "nope"}))
                checks.append(await rpc({"op": "serve"}))  # nothing buffered
                checks.append(await rpc({
                    "op": "submit",
                    "times": [1.0, 2.0],
                    "is_read": [True],
                    "lbas": [0, 0],
                }))
                checks.append(await rpc({
                    "op": "submit",
                    "times": [2.0, 1.0],
                    "is_read": [True, True],
                    "lbas": [0, 0],
                }))
                # Out-of-order chunk: ends at 5.0, next starts at 1.0.
                first = await rpc({
                    "op": "submit",
                    "times": [1.0, 5.0],
                    "is_read": [True, True],
                    "lbas": [0, 0],
                })
                assert first["ok"]
                checks.append(await rpc({
                    "op": "submit",
                    "times": [1.0],
                    "is_read": [True],
                    "lbas": [0],
                }))
                assert all(not c["ok"] and c["error"] for c in checks)
                # The connection survived every error; reset + ping work.
                reset = await rpc({"op": "reset"})
                assert reset["ok"] and reset["buffered"] == 0
                ping = await rpc({"op": "ping"})
                assert ping["ok"] and ping["buffered"] == 0
                writer.close()
            finally:
                await frontend.close()

        _run(main())

    def test_shutdown_op_closes_the_listener(self):
        scenario = _scenario()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            rpc, writer = await _client(frontend)
            reply = await rpc({"op": "shutdown"})
            assert reply["ok"]
            writer.close()
            await asyncio.wait_for(frontend.wait_closed(), timeout=10)

        _run(main())

    def test_reset_drops_buffered_chunks(self):
        scenario = _scenario()

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                await rpc({
                    "op": "submit",
                    "times": [1.0],
                    "is_read": [True],
                    "lbas": [0],
                })
                await rpc({"op": "reset"})
                reply = await rpc({"op": "serve"})
                assert not reply["ok"]
                assert "no buffered requests" in reply["error"]
                writer.close()
            finally:
                await frontend.close()

        _run(main())


def _submit_serve_ops(times, is_read, lbas):
    return [
        {
            "op": "submit",
            "times": times.tolist(),
            "is_read": is_read.tolist(),
            "lbas": lbas.tolist(),
        },
        {"op": "serve"},
    ]


class TestFrontendRobustness:
    def test_oversized_request_line_gets_an_error_reply(self, caplog):
        """A submit line past the stream limit (20k requests, ~200 KB)
        is discarded through its newline and answered with an error —
        no asyncio traceback, no reset connection — and a request
        pipelined right behind it is still served."""
        scenario = _scenario()
        times, is_read, lbas = (a[:20_000] for a in _stream_for(
            _scenario(duration_ms=60_000.0)
        ))
        big = json.dumps(_submit_serve_ops(times, is_read, lbas)[0]).encode()
        assert len(big) > LINE_LIMIT

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                host, port = frontend.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(big + b"\n" + b'{"op": "ping"}\n')
                await writer.drain()
                refused = json.loads(await reader.readline())
                pinged = json.loads(await reader.readline())
                writer.close()
                return refused, pinged
            finally:
                await frontend.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            refused, pinged = _run(main())
        assert refused["ok"] is False
        assert str(LINE_LIMIT) in refused["error"]
        assert pinged["ok"] and pinged["buffered"] == 0
        assert caplog.records == []

    def test_submit_past_buffer_limit_is_refused_whole(self, monkeypatch):
        """A submit that would push the buffer past ``BUFFER_LIMIT``
        gets a back-pressure error and leaves the buffer as it was, so
        the stream completed within the cap still serves identically to
        the batch run."""
        scenario = _scenario()
        times, is_read, lbas = _stream_for(scenario)
        batch = run_fleet_scenario(
            scenario, stream=(times, is_read, lbas)
        ).to_dict()
        monkeypatch.setattr(frontend_module, "BUFFER_LIMIT", len(times))
        mid = len(times) // 2
        over = {
            "op": "submit",
            "times": times[mid:].tolist() + [float(times[-1]) + 1.0],
            "is_read": is_read[mid:].tolist() + [True],
            "lbas": lbas[mid:].tolist() + [0],
        }

        async def main():
            frontend = ServiceFrontend(scenario)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                first = await rpc({
                    "op": "submit",
                    "times": times[:mid].tolist(),
                    "is_read": is_read[:mid].tolist(),
                    "lbas": lbas[:mid].tolist(),
                })
                refused = await rpc(over)
                pinged = await rpc({"op": "ping"})
                rest = await rpc({
                    "op": "submit",
                    "times": times[mid:].tolist(),
                    "is_read": is_read[mid:].tolist(),
                    "lbas": lbas[mid:].tolist(),
                })
                served = await rpc({"op": "serve"})
                writer.close()
                return first, refused, pinged, rest, served
            finally:
                await frontend.close()

        first, refused, pinged, rest, served = _run(main())
        assert first["ok"] and first["buffered"] == mid
        assert refused["ok"] is False
        assert "back-pressure" in refused["error"]
        assert str(len(times)) in refused["error"]
        assert pinged["buffered"] == mid
        assert rest["ok"] and rest["buffered"] == len(times)
        assert served["ok"], served
        assert _canonical(served["report"]) == _canonical(batch)

    def test_killed_worker_fails_one_serve_then_recovers(self):
        """SIGKILL one pool worker between serves: the next serve
        replies ``ok: false`` naming the exception, the one after it
        boots a fresh pool and matches the batch report, and teardown
        leaves no segment behind."""
        scenario = _scenario(window_size=None)
        stream = _stream_for(scenario)
        batch = run_fleet_scenario(scenario, stream=stream).to_dict()
        ops = _submit_serve_ops(*stream)

        async def main():
            frontend = ServiceFrontend(scenario, workers=2)
            await frontend.start()
            try:
                rpc, writer = await _client(frontend)
                replies = []
                for attempt in range(3):
                    if attempt == 1:
                        procs = frontend.runtime._pool._pool._processes
                        victim = next(iter(procs.values()))
                        os.kill(victim.pid, signal.SIGKILL)
                        wait([victim.sentinel], timeout=30)
                    for op in ops:
                        reply = await rpc(op)
                    replies.append(reply)
                ping = await rpc({"op": "ping"})
                writer.close()
                return replies, ping
            finally:
                await frontend.close()

        (first, failed, recovered), ping = _run(main())
        assert first["ok"] and recovered["ok"]
        assert failed["ok"] is False
        assert failed["error"].startswith("BrokenProcessPool")
        assert _canonical(recovered["report"]) == _canonical(batch)
        assert ping["ok"] and ping["runtime"]["pool_cold_boots"] == 2
        assert leaked_segments(os.getpid()) == []
