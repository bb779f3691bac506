"""frontend_warm: a ``serve --listen --workers 2`` subprocess driven by one
closed-loop client connection.

Each op submits one 70/30 stream in chunks (each request line under the
front-end's 64 KiB line limit), then serves it.  Streams come in pairs
S0 S0 S1 S1 ... from a pool larger than the runtime's artifact cache,
so the first serve of a stream is a compile-cache miss and the repeat
is a hit; the measured share is recorded.  Every reply is checked
against the batch ``run_fleet_scenario(stream=...)`` report of the same
stream, computed once in this process outside the timed region.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np

import spec
from layers import span
from workloads import Workload

#: Scenario flags shared by the server command line and the reference.
_SETUP_DURATION_MS = 300.0


class _Server:
    """One front-end subprocess and its client connection."""

    def __init__(self, root: str, seed: int) -> None:
        cfg = spec.FRONTEND
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                "--workers", str(cfg["workers"]),
                "--shards", str(cfg["shards"]),
                "--v", str(spec.SERVE_V),
                "--k", str(spec.SERVE_K),
                "--failures", "0",
                "--no-verify",
                "--duration", repr(_SETUP_DURATION_MS),
                "--interarrival", repr(spec.HEALTHY_INTERARRIVAL_MS),
                "--read-fraction", repr(spec.READ_FRACTION),
                "--seed", str(seed),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr: list[str] = []
        ready = self.proc.stderr.readline()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        if not ready.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"front-end did not start: {ready!r}")
        host, port = ready.split()[-1].rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=120)
        self.file = self.sock.makefile("rwb")
        self.errors = 0

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def call_line(self, line: bytes) -> dict:
        self.file.write(line)
        self.file.flush()
        reply = json.loads(self.file.readline())
        if not reply.get("ok"):
            self.errors += 1
        return reply

    def call(self, obj: dict) -> dict:
        return self.call_line(json.dumps(obj).encode() + b"\n")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus every process it started."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_kb(p) for p in pids) / 1024.0

    def shutdown(self) -> list[str]:
        """Shut down through the protocol; returns hygiene errors."""
        from repro.service import leaked_segments

        errors = []
        helpers = _children(self.proc.pid)
        try:
            reply = self.call({"op": "shutdown"})
            if not reply.get("ok"):
                errors.append(f"shutdown reply {reply}")
        except (OSError, ValueError) as exc:
            errors.append(f"shutdown: {exc}")
        finally:
            self.file.close()
            self.sock.close()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        self._drain.join(timeout=10)
        stuck = _wait_gone(helpers, timeout=10.0)
        if stuck:
            errors.append(f"server helper processes still running: {stuck}")
        if code != 0:
            errors.append(f"server exit code {code}: {''.join(self.stderr)[-500:]}")
        leaked = leaked_segments(self.proc.pid)
        if leaked:
            errors.append(f"leaked shared-memory segments {leaked}")
        return errors

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until the server's worker and helper processes have exited;
    returns those still running after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [p for p in pids if _alive(p)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.01)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class FrontendWarm(Workload):
    name = "frontend_warm"
    external = True
    cycle = 2  # a stream's first serve (miss) and its repeat (hit)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        ss = np.random.SeedSequence(seed)
        self.stream_seeds = [
            int(s.generate_state(1)[0])
            for s in ss.spawn(spec.FRONTEND["streams"])
        ]
        self.server: _Server | None = None
        self.root = os.getcwd()
        self._streams: dict[int, tuple] = {}
        self._hygiene = {"attempted": 0, "failed": 0, "errors": []}
        self._error_replies = 0
        self._runtime_before: dict = {}
        self._final_ping: dict = {}
        self._peak_rss = 0.0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """The in-process part of set-up (the client's imports)."""
        from repro.core import get_layout

        self.layout_size = get_layout(spec.SERVE_V, spec.SERVE_K).size

    def timed_setup(self, keep: bool) -> float:
        """Seconds from launching the server to a booted worker pool
        (one synthetic ``run`` boots it).  Unless ``keep``, the server
        is shut down again and its hygiene checked."""
        self.setup()
        t0 = time.perf_counter()
        server = _Server(self.root, self.seed)
        reply = server.call({"op": "run"})
        elapsed = time.perf_counter() - t0
        self._account(
            [] if reply.get("ok") else [f"set-up run failed: {reply.get('error')}"]
        )
        if keep:
            self.server = server
            self._runtime_before = reply.get("report", {}).get("runtime", {})
        else:
            self._retire(server)
        return elapsed

    def _account(self, errors: list[str]) -> None:
        """Count one hygiene op (a set-up run or a shutdown)."""
        self._hygiene["attempted"] += 1
        if errors:
            self._hygiene["failed"] += 1
            self._hygiene["errors"].extend(errors)

    def _retire(self, server: "_Server") -> None:
        """Shut a server down and check it exited cleanly: exit code 0,
        no leaked shared-memory segment, no error reply outside ops."""
        errors = server.shutdown()
        self._error_replies += server.errors
        self._account(errors)

    def op_size(self) -> dict:
        cfg = spec.FRONTEND
        return {
            "shards": cfg["shards"],
            "v": spec.SERVE_V,
            "k": spec.SERVE_K,
            "workers": cfg["workers"],
            "requests_per_op": cfg["requests"],
            "chunk_requests": cfg["chunk"],
            "stream_seeds": self.stream_seeds,
        }

    # -- ops ------------------------------------------------------------------

    def _scenario(self):
        from repro.service import FleetScenario

        return FleetScenario(
            shards=spec.FRONTEND["shards"],
            v=spec.SERVE_V,
            k=spec.SERVE_K,
            duration_ms=_SETUP_DURATION_MS,
            interarrival_ms=spec.HEALTHY_INTERARRIVAL_MS,
            read_fraction=spec.READ_FRACTION,
            workload_seed=self.seed,
            verify_data=False,
            seed=self.seed,
        )

    def _stream(self, k: int) -> tuple:
        """Stream ``k``'s request lines and reference payload (built
        once, outside the timed region)."""
        if k in self._streams:
            return self._streams[k]
        from repro.service import Fleet, canonical_payload, run_fleet_scenario
        from repro.sim import WorkloadConfig, generate_request_stream

        cfg = spec.FRONTEND
        sc = self._scenario()
        ia = spec.HEALTHY_INTERARRIVAL_MS
        capacity = Fleet(sc.shards, sc.v, sc.k, dataplane=False, seed=sc.seed).capacity
        times, is_read, lbas = generate_request_stream(
            WorkloadConfig(
                interarrival_ms=ia,
                read_fraction=spec.READ_FRACTION,
                seed=self.stream_seeds[k],
            ),
            cfg["requests"] * ia,
            capacity,
        )
        lines = []
        for lo in range(0, len(times), cfg["chunk"]):
            hi = lo + cfg["chunk"]
            line = json.dumps(
                {
                    "op": "submit",
                    "times": times[lo:hi].tolist(),
                    "is_read": is_read[lo:hi].tolist(),
                    "lbas": lbas[lo:hi].tolist(),
                }
            ).encode() + b"\n"
            if len(line) >= cfg["line_limit"]:
                raise ValueError(f"submit line of {len(line)} bytes")
            lines.append(line)
        ref = run_fleet_scenario(sc, stream=(times, is_read, lbas))
        reference = json.dumps(canonical_payload(ref.to_dict()), sort_keys=True)
        self._streams[k] = (lines, reference, len(times))
        return self._streams[k]

    def prepare(self, i: int):
        k = (i // 2) % len(self.stream_seeds)
        return (k,) + self._stream(k)

    def op(self, inputs, tracer):
        _, lines, _, _ = inputs
        server = self.server
        with span(tracer, "frontend.submit"):
            for line in lines:
                reply = server.call_line(line)
                if not reply.get("ok"):
                    server.call({"op": "reset"})  # keep later ops clean
                    raise RuntimeError(f"submit refused: {reply.get('error')}")
        with span(tracer, "frontend.serve"):
            return server.call({"op": "serve"})

    def check(self, inputs, reply) -> str | None:
        from repro.service import canonical_payload

        if not reply.get("ok"):
            return f"serve refused: {reply.get('error')}"
        report = reply["report"]
        got = json.dumps(canonical_payload(report), sort_keys=True)
        if got != inputs[2]:
            return "served report differs from the batch reference"
        if not report["passed"] or report["fleet"]["lost_to_failures"]:
            return "served report not passed"
        return None

    def op_extra(self, inputs, reply) -> dict:
        runtime = reply["report"].get("runtime", {})
        hits = runtime.get("compile_cache_hits", 0)
        hit = hits > self._runtime_before.get("compile_cache_hits", 0)
        self._runtime_before = runtime
        return {
            "cache_hit": hit,
            "request_bytes": sum(len(x) for x in inputs[1])
            + len(b'{"op": "serve"}\n'),
        }

    def units(self, reply) -> tuple[int, int, int]:
        fleet = reply["report"]["fleet"]
        return fleet["scheduled"], fleet["shards"], fleet["shards"] * self.layout_size

    # -- teardown -------------------------------------------------------------

    def close(self) -> dict:
        server, self.server = self.server, None
        if server is not None:
            try:
                self._final_ping = server.call({"op": "ping"})
            except (OSError, ValueError) as exc:
                self._hygiene["errors"].append(f"final ping: {exc}")
            self._peak_rss = server.peak_rss_mb()
            self._retire(server)
        return {
            **self._hygiene,
            "peak_rss_mb": self._peak_rss,
            "facts": {"error_replies": self._error_replies},
        }

    def layer_overrides(self, ops, outcome) -> dict:
        traced = [o for o in ops if o["traced"]]
        hit = [o for o in traced if o["cache_hit"]]
        miss = [o for o in traced if not o["cache_hit"]]
        spans = outcome["tracer"].spans if outcome["tracer"] else []
        per_op: dict[int, dict[str, float]] = {}
        for s in spans:
            d = per_op.setdefault(s.op, {})
            d[s.name] = d.get(s.name, 0.0) + (s.end - s.start)

        def mean_ms(group, name):
            vals = [per_op.get(o["i"], {}).get(name, 0.0) for o in group]
            return 1000.0 * sum(vals) / len(vals) if vals else 0.0

        rt = self._final_ping.get("runtime", {})
        lookups = rt.get("compile_cache_hits", 0) + rt.get("compile_cache_misses", 0)
        runs = rt.get("runs", 0)
        return {
            "service.frontend.submit_ms": mean_ms(traced, "frontend.submit"),
            "service.frontend.serve_hit_ms": mean_ms(hit, "frontend.serve"),
            "service.frontend.serve_miss_ms": mean_ms(miss, "frontend.serve"),
            "service.frontend.request_bytes": (
                sum(o["request_bytes"] for o in traced) / len(traced) if traced else 0.0
            ),
            "service.frontend.error_replies": float(self._error_replies),
            "service.runtime.compile_cache_hit_ratio": (
                rt.get("compile_cache_hits", 0) / lookups if lookups else 0.0
            ),
            "service.runtime.pool_warm_hit_ratio": (
                rt.get("pool_warm_hits", 0) / runs if runs else 0.0
            ),
            "service.runtime.shm_bytes": float(rt.get("shm_bytes", 0)),
            "service.runtime.ipc_bytes_avoided": (
                rt.get("ipc_bytes_avoided", 0) / runs if runs else 0.0
            ),
        }
