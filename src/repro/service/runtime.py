"""Fleet runtime: the one grouped-execution driver, with a worker pool,
shared-memory transport, and compiled-artifact caching.

Every process-parallel run goes through :class:`WarmRuntime`.  The
batch runner (:func:`repro.service.run_fleet_scenario_parallel`) is a
one-shot runtime — pool and segments live for a single scenario run —
and a long-lived front-end keeps one runtime across serves, because
the paper's declustered layouts are static per fleet shape, so
everything derived from them (flat mapping tables, CSR incidence,
routed compiled slices) is reusable until the fleet reshapes.  Either
way, one typed task per shard group runs through one entry point
(:func:`_run_task`), in a pool worker or in-process.

:class:`WarmRuntime` amortizes the whole path across runs:

* **Persistent worker pool** (:class:`WorkerPool`): workers boot once
  per fleet shape — the pool initializer primes the layout / mapper /
  incidence registries for ``(v, k)`` — and are reused across repeated
  scenario runs, stream windows, and socket submits.  The pool is
  spawn-safe (everything crossing the boundary pickles), reboots
  explicitly when the fleet shape changes or a worker died, and drains
  gracefully on :meth:`WarmRuntime.close`.
* **Zero-copy trace transport**: compiled per-shard traces are packed
  once into a ``multiprocessing.shared_memory`` segment (parent writes
  once; workers attach and build *read-only* ndarray views), so a
  task ships a ``(segment name, offsets)`` handle instead of pickled
  arrays.  Segment lifecycle is owned by the runtime — every segment
  is unlinked on eviction, invalidation, :meth:`~WarmRuntime.close`,
  SIGTERM (the front-end installs handlers) and interpreter exit (an
  ``atexit`` safety net), so no ``/dev/shm`` orphans and no
  ``resource_tracker`` warnings survive a session.
* **Compiled-artifact cache** (bounded LRU): artifacts are keyed by
  (fleet shape, stream fingerprint, seed), so a repeated socket submit
  — or a repeated synthetic run — skips stream generation *and*
  ``route_stream`` entirely and reuses the packed slices.  The cache
  applies only to materialized serves without a reshape or autoscale
  policy (windowed serves never materialize by design; reshapes divert
  traffic through the live coordinator), and a run that executed a
  reshape/autoscale event invalidates it.

The canonical byte-identity contract is non-negotiable and holds by
construction: cached slices are exactly the ``route_stream`` output
the serial runner would compute (routing is a pure function of the
fleet shape and the stream), shared-memory views are bit-equal to the
arrays they pack, and worker results return constant-size
:class:`repro.sim.LatencyDigest` accumulators whose summaries are
bit-identical to the exact sample lists (see ``repro.sim.stats``).
``canonical_payload`` strips the volatile ``runtime`` stats section,
so warm-pool, shared-memory, digest-IPC reports compare equal to cold
serial reports at every window size and worker count — the matrix
``tests/service/test_runtime.py`` pins.
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from hashlib import blake2b
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from ..core.registry import get_incidence, get_layout, get_mapper
from ..sim.compile import ArrayWindows, CompiledTrace
from .conformance import check_fleet
from .fleet import Fleet
from .migration import plan_migration
from .orchestrator import max_concurrent_rebuilds
from .parallel import (
    GroupPartition,
    GroupResult,
    ParallelExecution,
    ParallelScenarioRun,
    ShardGroup,
    _execute_group,
    _execute_group_windowed,
    _execute_migration_group,
    _group_row,
    _merge_results,
    _route_fleet_stream,
    available_cpus,
    partition_scenario,
)
from .scenario import FleetScenario, FleetScenarioReport, run_fleet_scenario

__all__ = [
    "SEGMENT_PREFIX",
    "RuntimeStats",
    "WorkerPool",
    "WarmRuntime",
    "leaked_segments",
]

#: Every shared-memory segment the runtime creates is named
#: ``repro_wrt_<creator pid hex>_<token>`` — teardown tests and the
#: front-end smoke can assert zero leftovers by prefix (and by pid,
#: so concurrent test runs never see each other's segments).
SEGMENT_PREFIX = "repro_wrt_"

#: The six :class:`CompiledTrace` arrays, in constructor order — the
#: packed-segment layout is one contiguous run of these per shard.
_TRACE_FIELDS = ("times", "is_read", "lbas", "disks", "offsets", "stripes")


# ----------------------------------------------------------------------
# Segment lifecycle (parent side)
# ----------------------------------------------------------------------

#: Live segments this process created: name -> (SharedMemory, creator
#: pid).  The pid guards the ``atexit`` sweep against fork — a pool
#: worker forked after a segment was created inherits this dict, and
#: its interpreter exit must never unlink the parent's segments.
_LIVE_SEGMENTS: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
_ATEXIT_ARMED = False


def _sweep_segments() -> None:
    pid = os.getpid()
    for name in list(_LIVE_SEGMENTS):
        if _LIVE_SEGMENTS[name][1] == pid:
            _release_segment(name)


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a uniquely named segment and register it for guaranteed
    unlink (close / SIGTERM path / atexit safety net)."""
    global _ATEXIT_ARMED
    for _ in range(16):
        name = f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(4)}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, size)
            )
        except FileExistsError:  # pragma: no cover - token collision
            continue
        _LIVE_SEGMENTS[shm.name] = (shm, os.getpid())
        if not _ATEXIT_ARMED:
            atexit.register(_sweep_segments)
            _ATEXIT_ARMED = True
        return shm
    raise RuntimeError(
        "could not allocate a uniquely named shared-memory segment"
    )  # pragma: no cover - 16 collisions in a row


def _release_segment(name: str) -> None:
    """Close + unlink one owned segment (idempotent, error-tolerant:
    teardown must never raise).  ``close`` can refuse while ndarray
    views of the buffer are still alive (exported pointers); the
    unlink still proceeds — the file is gone from ``/dev/shm`` and the
    mapping dies with its last reference."""
    entry = _LIVE_SEGMENTS.pop(name, None)
    if entry is None:
        return
    shm = entry[0]
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def leaked_segments(pid: int | None = None) -> list[str]:
    """Runtime-owned segments still present in ``/dev/shm`` (the
    teardown regression oracle).  With ``pid``, only segments created
    by that process are counted — concurrent runs stay invisible."""
    prefix = SEGMENT_PREFIX if pid is None else f"{SEGMENT_PREFIX}{pid:x}_"
    root = Path("/dev/shm")
    if root.is_dir():
        return sorted(p.name for p in root.glob(prefix + "*"))
    return sorted(n for n in _LIVE_SEGMENTS if n.startswith(prefix))


# ----------------------------------------------------------------------
# Packing / views
# ----------------------------------------------------------------------


def _pack_arrays(
    arrays: list[np.ndarray],
) -> tuple[shared_memory.SharedMemory, tuple, int]:
    """Copy 1-D arrays back-to-back (16-byte aligned) into one fresh
    segment.  Returns ``(segment, specs, nbytes)`` where each spec is
    ``(offset, dtype string, length)`` — everything a worker needs to
    rebuild a read-only view, and nothing else crosses the pickle
    boundary."""
    offsets: list[int] = []
    total = 0
    for arr in arrays:
        total = (total + 15) & ~15
        offsets.append(total)
        total += arr.nbytes
    shm = _create_segment(total)
    specs = []
    for arr, off in zip(arrays, offsets):
        if arr.size:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[...] = arr
        specs.append((off, arr.dtype.str, int(arr.size)))
    return shm, tuple(specs), total


def _view(shm: shared_memory.SharedMemory, spec: tuple) -> np.ndarray:
    """A read-only ndarray view over one packed array.  Read-only is
    load-bearing twice: it proves the transport is zero-copy (no
    engine may mutate a shared trace — any write raises), and it makes
    one segment safe to share across every worker simultaneously."""
    off, dtype, n = spec
    arr = np.ndarray((n,), dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
    arr.setflags(write=False)
    return arr


def _pack_traces(
    traces: list[CompiledTrace],
) -> tuple[shared_memory.SharedMemory, tuple, int]:
    """Pack every shard's compiled trace into ONE segment; the per-shard
    spec is a tuple of six array specs in :data:`_TRACE_FIELDS` order."""
    flat: list[np.ndarray] = []
    for t in traces:
        flat.extend(
            np.ascontiguousarray(getattr(t, f)) for f in _TRACE_FIELDS
        )
    shm, specs, total = _pack_arrays(flat)
    per_trace = tuple(
        specs[i * len(_TRACE_FIELDS):(i + 1) * len(_TRACE_FIELDS)]
        for i in range(len(traces))
    )
    return shm, per_trace, total


def _trace_from(shm: shared_memory.SharedMemory, spec: tuple) -> CompiledTrace:
    return CompiledTrace(*(_view(shm, s) for s in spec))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Worker-side attachment cache: segment name -> SharedMemory, bounded
#: LRU.  Attachments are reused across tasks (attaching is a syscall +
#: mmap, cheap but not free at high serve rates) and evicted oldest
#: first — eviction happens only between tasks, so no live view ever
#: loses its mapping.  Workers never unlink: the parent owns lifecycle,
#: and the whole process tree shares one resource_tracker, so the
#: parent's single unlink also clears the tracker entry (a worker-side
#: unregister would race it into a tracker KeyError on stderr).
_ATTACHED: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
_ATTACHED_CAP = 8


def _attach(name: str) -> shared_memory.SharedMemory:
    owned = _LIVE_SEGMENTS.get(name)
    if owned is not None and owned[1] == os.getpid():
        # An in-process task reads the creator's own mapping.
        return owned[0]
    shm = _ATTACHED.get(name)
    if shm is not None:
        _ATTACHED.move_to_end(name)
        return shm
    shm = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = shm
    while len(_ATTACHED) > _ATTACHED_CAP:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    return shm


def _prime_worker(v: int, k: int) -> None:
    """Pool initializer: build the layout / mapper / incidence registry
    entries for the fleet shape once per worker boot, so the first task
    a worker runs is as warm as the hundredth."""
    layout = get_layout(v, k)
    get_mapper(layout)
    get_incidence(layout)


@dataclass(frozen=True)
class _SegmentSlice:
    """A picklable handle on arrays packed in a runtime segment: the
    segment name plus the :func:`_pack_arrays` specs to view (one
    six-array tuple per shard for compiled traces)."""

    name: str
    specs: tuple


@dataclass(frozen=True)
class _GroupTask:
    """What every group task carries: the scenario, its group, the
    group's partition index, and the metrics interval (``None`` =
    uninstrumented)."""

    scenario: FleetScenario
    group: ShardGroup
    index: int
    interval_ms: float | None


@dataclass(frozen=True)
class _MaterializedTask(_GroupTask):
    """A plain group over its pre-routed compiled slices, viewed
    read-only from the run's artifact segment."""

    traces: _SegmentSlice

    def run(self) -> GroupResult:
        shm = _attach(self.traces.name)
        compiled = tuple(_trace_from(shm, spec) for spec in self.traces.specs)
        return _execute_group(
            self.scenario, self.group, compiled, self.index, self.interval_ms
        )


@dataclass(frozen=True)
class _WindowedTask(_GroupTask):
    """A plain group served in windows through the static routing
    table: regenerated worker-side from the seed, or — with ``stream``
    — cut from a submitted stream's raw arrays in shared memory."""

    route: np.ndarray
    volume_units: int
    shard_capacity: int
    capacity: int
    n_volumes: int
    stream: _SegmentSlice | None = None

    def run(self) -> GroupResult:
        windows = None
        if self.stream is not None:
            shm = _attach(self.stream.name)
            times, is_read, lbas = (_view(shm, s) for s in self.stream.specs)
            windows = ArrayWindows(
                times, is_read, lbas, self.scenario.window_size
            )
        return _execute_group_windowed(
            self.scenario,
            self.group,
            self.route,
            self.volume_units,
            self.shard_capacity,
            self.capacity,
            self.n_volumes,
            self.index,
            self.interval_ms,
            windows=windows,
        )


@dataclass(frozen=True)
class _MigrationTask(_GroupTask):
    """One migration component on a full-size worker fleet (the worker
    regenerates the synthetic stream and filters it to the
    component)."""

    def run(self) -> GroupResult:
        return _execute_migration_group(
            self.scenario, self.group, self.index, self.interval_ms
        )


def _run_task(task: _GroupTask) -> GroupResult:
    """The one group entry point — top-level so it pickles under spawn;
    in-process runs call it directly."""
    return task.run()


# ----------------------------------------------------------------------
# Stats / cache / pool
# ----------------------------------------------------------------------


@dataclass
class RuntimeStats:
    """Warm-runtime counters (volatile by contract — surfaced under the
    report's ``runtime`` key, which :func:`canonical_payload` strips,
    and as volatile obs counters excluded from snapshot byte-identity).

    Attributes:
        runs: serves executed through this runtime.
        pool_warm_hits: runs that reused an already-booted worker pool.
        pool_cold_boots: pool (re)boots — first run, shape change.
        compile_cache_hits: runs that reused a cached compiled artifact
            (stream generation + ``route_stream`` skipped entirely).
        compile_cache_misses: artifact builds.
        shm_bytes: bytes currently resident in runtime-owned segments.
        ipc_bytes_avoided: cumulative estimate of bytes kept off the
            pickle channel — trace bytes shipped as segment handles
            instead of arrays, plus ~8 bytes per completed request
            returned as digest state instead of a raw sample.
    """

    runs: int = 0
    pool_warm_hits: int = 0
    pool_cold_boots: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    shm_bytes: int = 0
    ipc_bytes_avoided: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Artifact:
    """One cached compiled stream: the owning segment plus parent-side
    read-only trace views (rebuilt from the same buffer workers map)."""

    shm: shared_memory.SharedMemory
    specs: tuple
    traces: list[CompiledTrace]
    nbytes: int

    def slice(self, group: ShardGroup) -> _SegmentSlice:
        """The picklable handle on one group's shards."""
        return _SegmentSlice(
            self.shm.name, tuple(self.specs[a] for a in group.arrays)
        )


class WorkerPool:
    """A persistent ``ProcessPoolExecutor`` primed for one fleet shape.

    Workers boot lazily on the first mapped task batch and stay alive
    across runs; :meth:`ensure` reboots them when the served ``(v, k)``
    shape changes (the registry priming would be stale) or after a
    worker died (a broken executor is dropped by :meth:`map`).
    :meth:`close` drains gracefully — in-flight tasks finish before
    the processes exit.
    """

    def __init__(self, workers: int, *, mp_context: str = "auto") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.mp_context = mp_context
        self.context_name: str | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._shape: tuple[int, int] | None = None

    def ensure(self, shape: tuple[int, int]) -> bool:
        """Boot (or reboot) the pool for ``shape``; True on a cold
        boot, False when the warm pool was reused."""
        if self._pool is not None and self._shape == shape:
            return False
        self.close()
        import multiprocessing

        if self.mp_context == "auto":
            methods = multiprocessing.get_all_start_methods()
            self.context_name = "fork" if "fork" in methods else "spawn"
        else:
            self.context_name = self.mp_context
        ctx = multiprocessing.get_context(self.context_name)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_prime_worker,
            initargs=shape,
        )
        self._shape = shape
        return True

    def map(self, tasks: list[_GroupTask]) -> list[GroupResult]:
        """Run every task through :func:`_run_task`, in task order.

        Raises:
            BrokenProcessPool: a worker died mid-batch (e.g. killed by
                the OOM killer).  The executor can never run another
                task, so it is dropped first and the next
                :meth:`ensure` boots a fresh pool.
        """
        if self._pool is None:  # pragma: no cover - ensure() precedes map()
            raise RuntimeError("pool not booted — call ensure() first")
        try:
            return list(self._pool.map(_run_task, tasks))
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        """Graceful drain: wait for in-flight tasks, then reap the
        worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._shape = None


# ----------------------------------------------------------------------
# The warm runtime
# ----------------------------------------------------------------------


def _shape_key(sc: FleetScenario) -> tuple:
    """Everything routing + compilation depend on: the fleet shape."""
    return (
        sc.shards,
        sc.v,
        sc.k,
        sc.volumes,
        sc.placement,
        sc.seed,
        sc.write_policy,
    )


def _stream_key(sc: FleetScenario, stream) -> tuple:
    if stream is None:
        return (
            "workload",
            sc.duration_ms,
            sc.interarrival_ms,
            sc.read_fraction,
            sc.zipf_theta,
            sc.workload_seed,
        )
    h = blake2b(digest_size=16)
    for arr in stream:
        h.update(arr.tobytes())
    return ("stream", h.hexdigest(), int(stream[0].size))


class WarmRuntime:
    """The fleet's one grouped-execution driver: one scenario, a warm
    worker pool, shared-memory trace transport, and a compiled-artifact
    cache — with reports canonically byte-identical to the cold serial
    runner's at every window size and worker count.  A one-shot
    runtime is the batch ``--workers N`` path
    (:func:`repro.service.run_fleet_scenario_parallel`).

    Args:
        scenario: the :class:`FleetScenario` every :meth:`run` serves.
        workers: worker processes (1 = in-process; the cache still
            applies).
        mp_context: start method — ``"auto"`` (fork where available),
            ``"spawn"``, or ``"forkserver"``.
        cache_artifacts: compiled artifacts kept resident (LRU).

    Use as a context manager or call :meth:`close`; segments are also
    unlinked by the ``atexit`` safety net if neither happens.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        workers: int = 1,
        mp_context: str = "auto",
        cache_artifacts: int = 4,
    ) -> None:
        if cache_artifacts < 1:
            raise ValueError(
                f"cache_artifacts must be >= 1, got {cache_artifacts}"
            )
        self.scenario = scenario
        self.workers = max(1, int(workers))
        self.stats = RuntimeStats()
        self._pool = (
            WorkerPool(self.workers, mp_context=mp_context)
            if self.workers > 1
            else None
        )
        self._cache: OrderedDict[tuple, _Artifact] = OrderedDict()
        self._cache_cap = cache_artifacts
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WarmRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def invalidate(self) -> None:
        """Drop every cached artifact and unlink its segment — called
        on fleet-shape changes and after runs that executed a
        reshape/autoscale event (stale slices must never serve)."""
        while self._cache:
            _, art = self._cache.popitem(last=False)
            self._drop(art)

    def close(self) -> None:
        """Graceful teardown: drain the pool (in-flight tasks finish),
        then unlink every owned segment.  Idempotent — the front-end's
        shutdown, SIGTERM, and ``finally`` paths may all land here."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        self.invalidate()

    def update_scenario(self, scenario: FleetScenario) -> None:
        """Swap the served scenario.  A fleet-shape change (e.g. a grow
        decided between serves) invalidates the artifact cache — the
        shape is part of every cache key too, but the explicit unlink
        releases the dead segments immediately rather than by LRU
        pressure."""
        if _shape_key(scenario) != _shape_key(self.scenario):
            self.invalidate()
        self.scenario = scenario

    def _drop(self, art: _Artifact) -> None:
        art.traces.clear()
        self.stats.shm_bytes -= art.nbytes
        _release_segment(art.shm.name)

    # -- cache -------------------------------------------------------------

    def _cacheable(self) -> bool:
        sc = self.scenario
        return (
            sc.reshape_to is None
            and sc.autoscale is None
            and sc.window_size is None
        )

    def _routing_fleet(self) -> Fleet:
        sc = self.scenario
        return Fleet(
            sc.shards,
            sc.v,
            sc.k,
            volumes=sc.volumes,
            dataplane=False,
            seed=sc.seed,
            placement=sc.placement,
            write_policy=sc.write_policy,
        )

    def _artifact(self, stream, fleet: Fleet | None = None) -> _Artifact:
        """The compiled artifact for this scenario + stream — cached,
        so a repeated submit skips generation and routing entirely."""
        key = _shape_key(self.scenario) + _stream_key(self.scenario, stream)
        art = self._cache.get(key)
        if art is not None:
            self.stats.compile_cache_hits += 1
            self._cache.move_to_end(key)
            return art
        self.stats.compile_cache_misses += 1
        compiled = _route_fleet_stream(
            self.scenario, fleet or self._routing_fleet(), stream
        )
        shm, specs, nbytes = _pack_traces(compiled)
        art = _Artifact(
            shm=shm,
            specs=specs,
            traces=[_trace_from(shm, spec) for spec in specs],
            nbytes=nbytes,
        )
        self._cache[key] = art
        self.stats.shm_bytes += nbytes
        while len(self._cache) > self._cache_cap:
            _, old = self._cache.popitem(last=False)
            self._drop(old)
        return art

    # -- running -----------------------------------------------------------

    def run(self, *, stream=None, recorder=None) -> dict:
        """Serve the scenario once and return the JSON-ready report
        payload (plus the volatile ``runtime`` stats section).

        With ``stream`` (a ``(times, is_read, lbas)`` triple), that
        stream is served instead of the synthetic workload — the
        front-end's path.  The payload is canonically identical to the
        cold serial runner's for the same scenario and stream.

        Raises:
            RuntimeError: after :meth:`close`.
            ValueError: on inconsistent scenario parameters (the
                serial runner's own checks).
            BrokenProcessPool: a pool worker died during this serve;
                the next serve boots a fresh pool.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        sc = self.scenario
        self.stats.runs += 1
        before = self.stats.to_dict()
        if stream is not None:
            stream = (
                np.ascontiguousarray(stream[0], dtype=np.float64),
                np.ascontiguousarray(stream[1], dtype=bool),
                np.ascontiguousarray(stream[2], dtype=np.int64),
            )
        if self.workers > 1:
            payload = self._run_grouped(
                partition_scenario(sc),
                stream=stream,
                recorder=recorder,
                requested_workers=self.workers,
            ).to_dict()
        else:
            payload = self._run_serial(stream, recorder)
        if sc.reshape_to is not None or sc.autoscale is not None:
            # The run reshaped the (per-run) fleet; cached slices keyed
            # on the pre-reshape shape must not outlive the event.
            self.invalidate()
        payload["runtime"] = self.stats.to_dict()
        if recorder is not None:
            after = payload["runtime"]
            for name in (
                "pool_warm_hits",
                "compile_cache_hits",
                "shm_bytes",
                "ipc_bytes_avoided",
            ):
                delta = after[name] - before[name]
                if delta:
                    recorder.count(name, delta, volatile=True)
        return payload

    def _run_serial(self, stream, recorder) -> dict:
        if self._cacheable():
            art = self._artifact(stream)
            report = run_fleet_scenario(
                self.scenario, recorder=recorder, precompiled=art.traces
            )
        else:
            report = run_fleet_scenario(
                self.scenario, recorder=recorder, stream=stream
            )
        return report.to_dict()

    def _run_grouped(
        self,
        partition: GroupPartition,
        *,
        stream=None,
        recorder=None,
        requested_workers: int | None,
    ) -> ParallelScenarioRun:
        """The grouped-execution driver: serve ``partition``'s groups
        as typed tasks — on the pool, or in-process when this runtime
        has none — and merge their results into one report.

        A partition that cannot split (or a submitted stream with a
        live reshape) runs the plain serial runner instead, recorded
        as a serial fallback.  Materialized plain groups read their
        slices from the (cached) artifact segment; windowed groups
        regenerate their windows worker-side, or view a submitted
        stream packed into a per-serve segment.
        """
        sc = self.scenario
        t0 = time.perf_counter()
        cpus = available_cpus()
        reason = partition.reason if partition.serial_fallback else None
        if stream is not None and any(
            g.migration_volumes for g in partition.groups
        ):
            # Migration workers regenerate the synthetic stream; a
            # submitted stream has no worker-side regeneration, so a
            # live reshape serves it on the serial path.
            reason = (
                "a submitted stream with a live reshape serves serially "
                "— migration workers regenerate synthetic streams only"
            )
        if reason is not None:
            report = run_fleet_scenario(sc, recorder=recorder, stream=stream)
            row = _group_row(
                partition.groups[0], report.fleet.duration_ms, report.wall_s
            )
            return ParallelScenarioRun(
                report=report,
                execution=ParallelExecution(
                    requested_workers=requested_workers,
                    workers=1,
                    cpu_count=cpus,
                    mp_context=None,
                    serial_fallback=True,
                    fallback_reason=reason,
                    groups=(row,),
                    admission_partition=partition.admission_partition(),
                ),
            )

        # Parent-side work that must not be duplicated per worker: the
        # conformance gate, the routing fingerprint, and — for
        # materialized groups — one generate + route + pack pass.  Data
        # planes stay off; the parent never simulates.
        fleet = self._routing_fleet()
        conformance = check_fleet(fleet) if sc.check_conformance else None
        planned_moves = 0
        fingerprint = fleet.shard_map.fingerprint()
        if sc.reshape_to is not None:
            # The serial runner reports the post-reshape table
            # (scenarios always run their migration to convergence) —
            # compute it from the plan without simulating.
            plan = plan_migration(fleet, sc.reshape_to)
            planned_moves = len(plan.moves)
            fingerprint = plan.target_map.fingerprint()
        interval = recorder.interval_ms if recorder is not None else None
        plain = any(not g.migration_volumes for g in partition.groups)
        artifact = None
        raw = None
        if plain and sc.window_size is None:
            artifact = self._artifact(stream, fleet)
        elif plain and stream is not None:
            # Windowed serves never materialize compiled slices, but a
            # submitted stream still rides shared memory: pack the raw
            # arrays once and let each worker view them read-only.
            shm, specs, raw_bytes = _pack_arrays(list(stream))
            raw = _SegmentSlice(shm.name, specs)
            self.stats.shm_bytes += raw_bytes
        route = fleet.volume_route()
        tasks: list[_GroupTask] = []
        for i, group in enumerate(partition.groups):
            head = (sc, group, i, interval)
            if group.migration_volumes:
                tasks.append(_MigrationTask(*head))
            elif artifact is not None:
                tasks.append(_MaterializedTask(*head, artifact.slice(group)))
            else:
                tasks.append(
                    _WindowedTask(
                        *head,
                        route,
                        fleet.volume_units,
                        fleet.shard_capacity,
                        fleet.capacity,
                        fleet.shard_map.volumes,
                        raw,
                    )
                )

        workers, context = 1, None
        try:
            if self._pool is None:
                results = [_run_task(task) for task in tasks]
            else:
                if self._pool.ensure((sc.v, sc.k)):
                    self.stats.pool_cold_boots += 1
                else:
                    self.stats.pool_warm_hits += 1
                results = self._pool.map(tasks)
                workers = min(self.workers, len(tasks))
                context = self._pool.context_name
        finally:
            if raw is not None:
                # Per-serve raw-stream segments are not cached; release
                # as soon as every task has returned.
                self.stats.shm_bytes -= raw_bytes
                _release_segment(raw.name)

        if artifact is not None:
            # What a pickle transport would have shipped: every group's
            # trace slice, once per run.
            self.stats.ipc_bytes_avoided += sum(
                n * np.dtype(dtype).itemsize
                for task in tasks
                if isinstance(task, _MaterializedTask)
                for shard in task.traces.specs
                for _, dtype, n in shard
            )
        if recorder is not None:
            for res in results:
                if res.obs is not None:
                    recorder.absorb(res.obs)

        fleet_report, outcomes, migrations = _merge_results(sc, results)
        # Digest-IPC savings: ~one float per completed request that no
        # longer rides the result pickle as a raw sample.
        self.stats.ipc_bytes_avoided += 8 * fleet_report.completed
        report = FleetScenarioReport(
            scenario=sc,
            conformance=conformance,
            fleet=fleet_report,
            rebuilds=outcomes,
            migrations=migrations,
            planned_moves=planned_moves,
            routing_fingerprint=fingerprint,
            wall_s=time.perf_counter() - t0,
            max_concurrent_rebuilds=max_concurrent_rebuilds(outcomes),
        )
        execution = ParallelExecution(
            requested_workers=requested_workers,
            workers=workers,
            cpu_count=cpus,
            mp_context=context,
            serial_fallback=False,
            fallback_reason=None,
            groups=tuple(
                _group_row(g, r.duration_ms, r.wall_s)
                for g, r in zip(partition.groups, results)
            ),
            admission_partition=partition.admission_partition(),
        )
        return ParallelScenarioRun(report=report, execution=execution)
