"""Multi-core fleet execution: independent shard groups, the code that
runs one group, and the deterministic report merge.

A :class:`repro.service.Fleet` interleaves every shard on ONE Python
event loop, so an 8-shard scenario burns one core no matter how many
the host has.  But most shards never interact: an array's disks, its
foreground traffic, and its rebuild IOs are invisible to every other
array.  The only cross-shard couplings a scenario can introduce are

* the **failure schedule + shared admission budget** — rebuilds queue
  FIFO on one fleet-wide :class:`AdmissionController`, so when more
  rebuilds are scheduled than there are slots, every failed array's
  timing depends on every other failed array's completion;
* the **migration plan** — a reshape copies volumes between arrays,
  mutates the fleet-global routing table, and shares the admission
  budget with rebuilds, coupling the whole fleet.

:func:`partition_scenario` turns that observation into **independent
execution groups** (connected components of the coupling relation):

* no failures → every shard is its own group;
* ``len(failures) <= admission`` → every rebuild is admitted the
  moment its failure fires in the serial run too, so the budget can be
  **statically partitioned** — each failed array becomes its own group
  carrying one dedicated slot (the partition is recorded in the
  report);
* ``len(failures) > admission`` → admission queueing orders rebuilds
  globally, so all failed arrays collapse into one group that carries
  the whole budget (healthy arrays still split off);
* a reshape (``scenario.reshape_to``) without failures whose copy
  destinations fit the admission budget → the move graph's **connected
  components** (union-find over each move's ``(source, dest)`` edge)
  become migration groups: a component's arrays share disk queues,
  mirror hooks, and per-destination copy serialization, but two
  components touch disjoint arrays and — because every destination
  holds at most one admission slot and the destinations fit the budget
  fleet-wide — the shared admission gate never queues in the serial
  run either, so the copy budget partitions statically per component
  (each carries its destination count in slots).  Arrays no move
  touches stay singleton groups.  A reshape whose components collapse
  into one fleet-wide group, whose destinations exceed the budget, or
  that runs alongside failures still **falls back to the serial path**
  (recorded in the execution metadata).

There is one grouped-execution driver, inside
:class:`repro.service.runtime.WarmRuntime`;
:func:`run_fleet_scenario_parallel` is a one-shot runtime whose worker
pool lives for a single run.  The driver generates the fleet stream
**once**, routes and compiles it per shard through the real
:class:`Fleet` (one vectorized pass), and packs the compiled slices
into one shared-memory segment; each worker maps read-only views of
its own group's slices — workers never regenerate or re-route the full
stream, and no trace is pickled.  This module holds the worker side of
that contract: the executors a typed task calls with its group, and
the merge.  Workers rebuild layouts/mappers through their own local
registry and simulate only their own arrays on a fresh clock, then
return constant-size latency digests.  Per-group results are merged
**deterministically** — per-shard vectors placed by global shard id,
latency digests folded in shard order (exactly the serial report's
float-summation order), rebuild outcomes re-sorted — so the merged
report is equal to the serial shared-clock report field for field,
and ``workers=N`` output is byte-identical to ``workers=1`` after
:func:`canonical_payload` strips the wall-clock and execution-metadata
fields that legitimately differ run to run.

Why the decomposition is *exact* (not approximate): within one shard,
event order on the shared clock is decided by ``(time, seq)`` with a
monotonic sequence number, so removing another shard's events never
reorders this shard's; shards share no state except through the
couplings the partition keys on; and each group replicates the serial
runner's engine choice (the per-shard
:func:`repro.sim.compile.execute_compiled` fast engines only when the
whole scenario is failure-free — exactly when the serial fleet's clock
is idle at serve time) and its final drain-the-clock step.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.registry import get_layout
from ..obs.recorder import MetricsRecorder
from ..sim.compile import (
    CompiledTrace,
    StreamWindows,
    execute_compiled,
    generate_request_stream,
    schedule_compiled,
)
from ..sim.controller import ArrayController
from ..sim.events import Simulator
from ..sim.stats import LatencyDigest, merge_summaries, summarize
from .fleet import (
    Fleet,
    FleetReport,
    _arm_shard_pump,
    _windows_carry,
    _WindowRouter,
)
from .migration import (
    MigrationCoordinator,
    VolumeMigrationOutcome,
    plan_migration,
)
from .orchestrator import (
    AdmissionController,
    FailureEvent,
    FailureOrchestrator,
    RebuildOutcome,
    validate_failure_schedule,
)
from .scenario import FleetScenario, FleetScenarioReport

__all__ = [
    "ShardGroup",
    "GroupPartition",
    "partition_scenario",
    "GroupResult",
    "ParallelExecution",
    "ParallelScenarioRun",
    "run_fleet_scenario_parallel",
    "canonical_payload",
    "available_cpus",
]


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where the
    platform exposes it) — what ``workers=None`` auto-sizes to and what
    the benchmark suite records next to its scaling numbers."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Group partitioning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardGroup:
    """One independent execution group.

    Attributes:
        arrays: global shard ids in this group (ascending).
        failures: the failure-schedule slice targeting those arrays
            (global ids preserved).
        admission_slots: this group's share of the fleet admission
            budget (0 for groups with no background jobs).
        migration_volumes: volume ids of the reshape moves this group
            executes (one connected component of the move graph; empty
            for non-migration groups).
    """

    arrays: tuple[int, ...]
    failures: tuple[FailureEvent, ...] = ()
    admission_slots: int = 0
    migration_volumes: tuple[int, ...] = ()


@dataclass(frozen=True)
class GroupPartition:
    """A scenario's full group decomposition.

    Attributes:
        groups: disjoint groups covering every shard (ascending by
            first array).
        serial_fallback: True when coupling collapsed everything into
            one group, so process parallelism cannot help and the
            runner uses the serial path.
        reason: human-readable explanation of the partition shape.
    """

    groups: tuple[ShardGroup, ...]
    serial_fallback: bool
    reason: str

    def admission_partition(self) -> dict[int, int]:
        """Recorded budget split: group index → admission slots (only
        groups holding slots appear)."""
        return {
            i: g.admission_slots
            for i, g in enumerate(self.groups)
            if g.admission_slots
        }


def _validate_scenario(scenario: FleetScenario) -> None:
    """The serial runner's parameter checks, run up front so the
    parallel path rejects a bad scenario with the same errors *before*
    spinning up workers (the schedule checks are the orchestrator's
    own, shared)."""
    if scenario.admission < 1:
        raise ValueError(
            f"admission slots must be >= 1, got {scenario.admission}"
        )
    validate_failure_schedule(
        scenario.failures, scenario.shards, scenario.v
    )


def partition_scenario(scenario: FleetScenario) -> GroupPartition:
    """Partition a scenario's shards into independent execution groups
    (see the module docstring for the coupling rules).

    Raises:
        ValueError: on inconsistent scenario parameters (same checks as
            the serial runner).
    """
    _validate_scenario(scenario)
    n = scenario.shards
    if scenario.autoscale is not None:
        # The control loop watches fleet-wide metrics and can fire a
        # reshape at any tick — every shard is coupled to every other
        # through the decisions, so the whole fleet is one group.
        return _serial_reshape(
            scenario,
            "the autoscale control loop watches fleet-wide metrics and "
            "can reshape at any tick — the whole fleet is one execution "
            "group",
        )
    if scenario.reshape_to is not None:
        return _partition_reshape(scenario)
    by_array: dict[int, FailureEvent] = {
        ev.array: ev for ev in scenario.failures
    }
    failed = sorted(by_array)
    groups: list[ShardGroup] = []
    if len(failed) <= scenario.admission:
        # Every rebuild is admitted immediately in the serial run, so
        # the budget splits statically: one dedicated slot per failed
        # array, zero cross-array timing dependence.
        reason = (
            f"{len(failed)} rebuild job(s) fit the admission budget "
            f"({scenario.admission}) — one slot per failed array, every "
            "shard its own group"
        )
        coupled: set[int] = set()
    else:
        reason = (
            f"{len(failed)} rebuild jobs exceed the admission budget "
            f"({scenario.admission}) — FIFO queueing couples all failed "
            "arrays into one group"
        )
        coupled = set(failed)
        groups.append(
            ShardGroup(
                arrays=tuple(failed),
                failures=tuple(by_array[a] for a in failed),
                admission_slots=scenario.admission,
            )
        )
    for a in range(n):
        if a in coupled:
            continue
        ev = by_array.get(a)
        groups.append(
            ShardGroup(
                arrays=(a,),
                failures=(ev,) if ev is not None else (),
                admission_slots=1 if ev is not None else 0,
            )
        )
    groups.sort(key=lambda g: g.arrays[0])
    fallback = len(groups) == 1
    if fallback and not coupled:
        # One group without coupling = a one-shard fleet; the
        # decoupling rationale above would read nonsensically here.
        reason = (
            "a single-shard fleet is one execution group — nothing to "
            "run in parallel"
        )
    return GroupPartition(
        groups=tuple(groups),
        serial_fallback=fallback,
        reason=reason,
    )


def _serial_reshape(scenario: FleetScenario, reason: str) -> GroupPartition:
    return GroupPartition(
        groups=(
            ShardGroup(
                arrays=tuple(range(scenario.shards)),
                failures=tuple(scenario.failures),
                admission_slots=scenario.admission,
                migration_volumes=tuple(),
            ),
        ),
        serial_fallback=True,
        reason=reason,
    )


def _partition_reshape(scenario: FleetScenario) -> GroupPartition:
    """Decompose a reshape scenario into migration components plus
    singleton healthy groups (see the module docstring for why the
    components are exact)."""
    if scenario.failures:
        return _serial_reshape(
            scenario,
            "a reshape alongside failures shares the admission budget "
            "with rebuilds — the whole fleet is one group",
        )
    # The move graph is a pure function of the shard map (same seed /
    # placement / volume count), so the partition can plan it on a
    # throwaway routing-only fleet.
    fleet = Fleet(
        scenario.shards,
        scenario.v,
        scenario.k,
        volumes=scenario.volumes,
        dataplane=False,
        seed=scenario.seed,
        placement=scenario.placement,
        write_policy=scenario.write_policy,
    )
    plan = plan_migration(fleet, scenario.reshape_to)
    if not plan.moves:
        # Nothing moves: the reshape is a no-op at serve time, but a
        # coordinator must still exist to report convergence — keep the
        # serial path for this degenerate case.
        return _serial_reshape(
            scenario, "the reshape moves no volumes — nothing to split"
        )
    dests = {m.dest for m in plan.data_moves}
    if len(dests) > scenario.admission:
        return _serial_reshape(
            scenario,
            f"{len(dests)} copy destinations exceed the admission "
            f"budget ({scenario.admission}) — FIFO queueing couples "
            "every component",
        )
    # Union-find over each move's (source, dest) edge — copies sharing
    # an array share disk queues and mirror hooks, so they must run in
    # one worker.
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in plan.moves:
        parent[find(m.source)] = find(m.dest)
    comps: dict[int, list] = {}
    for m in plan.moves:
        comps.setdefault(find(m.source), []).append(m)
    involved: set[int] = set()
    groups: list[ShardGroup] = []
    for moves in comps.values():
        arrays = sorted({a for m in moves for a in (m.source, m.dest)})
        involved.update(arrays)
        groups.append(
            ShardGroup(
                arrays=tuple(arrays),
                failures=(),
                admission_slots=len(
                    {m.dest for m in moves if len(m.lbas)}
                ),
                migration_volumes=tuple(
                    sorted(m.volume for m in moves)
                ),
            )
        )
    for a in range(scenario.shards):
        if a not in involved:
            groups.append(ShardGroup(arrays=(a,)))
    groups.sort(key=lambda g: g.arrays[0])
    if len(groups) == 1:
        return _serial_reshape(
            scenario,
            "the reshape's move graph couples every array into one "
            "component — nothing to run in parallel",
        )
    return GroupPartition(
        groups=tuple(groups),
        serial_fallback=False,
        reason=(
            f"the reshape's move graph splits into "
            f"{len(comps)} independent component(s) "
            f"({len(dests)} copy destination(s) fit the admission "
            f"budget {scenario.admission}, so the shared gate never "
            "queues and the copy budget partitions statically)"
        ),
    )


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


@dataclass
class GroupResult:
    """One group's raw simulation outcome (everything the merge needs,
    nothing summarized early — summaries must be computed over the
    merged accumulators to match the serial report bit for bit).

    Attributes:
        group_index: position in the partition.
        arrays: global shard ids (ascending, mirrors the group spec).
        scheduled: per-shard routed request counts (group order).
        digests: per-shard ``{kind: LatencyDigest}`` accumulators —
            constant-size result IPC, summary-identical to the raw
            completion-order sample lists (see ``repro.sim.stats``).
        per_disk_ios: per-shard completed-IO vectors (group order).
        duration_ms: this group's makespan on its own clock.
        outcomes: completed rebuilds (global array ids, completion
            order).
        wall_s: worker wall-clock for the group (build + simulate).
        migrations: completed volume moves this group's coordinator
            executed (global ids, completion order).
        engines: per-shard engine labels (group order; ``None`` entries
            for shards that never ran an engine).  Always populated —
            the report surfaces engine choice even with metrics off.
        obs: the worker's :class:`repro.obs.MetricsRecorder` when the
            run is instrumented (the parent absorbs it), else ``None``.
    """

    group_index: int
    arrays: tuple[int, ...]
    scheduled: list[int]
    digests: list[dict[str, LatencyDigest]]
    per_disk_ios: list[list[int]]
    duration_ms: float
    outcomes: list[RebuildOutcome]
    wall_s: float
    migrations: list[VolumeMigrationOutcome] = field(default_factory=list)
    engines: list[str | None] = field(default_factory=list)
    obs: MetricsRecorder | None = None


@dataclass
class _LocalFleet:
    """Duck-typed stand-in for :class:`Fleet` inside a worker — just
    the surface :class:`FailureOrchestrator` drives (controllers on one
    clock, the served layout, the shard count)."""

    controllers: list[ArrayController]
    sim: Simulator
    layout: object

    @property
    def shards(self) -> int:
        return len(self.controllers)


def _digest_latency(ctrl: ArrayController) -> dict[str, LatencyDigest]:
    """Reduce a controller's raw latency samples into constant-size
    digests for the result pickle — O(requests) sample lists never
    cross the process boundary.  Bit-exactness: the digest's seeded
    ``np.add.accumulate`` fold reproduces ``sum(samples)`` exactly and
    its percentiles are pure functions of the quantization-bucket
    counts (see ``repro.sim.stats``), so ``summarize(digest)`` equals
    ``summarize(LatencyStats(samples))`` for the same completion-order
    samples."""
    out: dict[str, LatencyDigest] = {}
    for kind in sorted(ctrl.latency):
        samples = ctrl.latency[kind].samples
        if not samples:
            continue
        digest = LatencyDigest()
        digest.extend_array(np.asarray(samples, dtype=np.float64))
        out[kind] = digest
    return out


class _GroupSim:
    """One plain group's sub-fleet on a fresh clock (worker side): the
    controllers, recorder, and failure orchestrator both plain
    executors build identically, plus the result assembly they share.

    With ``interval_ms`` the group records into a local
    :class:`repro.obs.MetricsRecorder` keyed by *global* shard ids, so
    the parent's absorb is a pure placement merge.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        group: ShardGroup,
        index: int,
        interval_ms: float | None,
    ) -> None:
        self.t0 = time.perf_counter()
        self.group = group
        self.index = index
        self.sim = sim = Simulator()
        layout = get_layout(scenario.v, scenario.k)
        self.controllers = [
            ArrayController(
                layout,
                sim=sim,
                dataplane=scenario.verify_data,
                seed=scenario.seed + gid,
                write_policy=scenario.write_policy,
            )
            for gid in group.arrays
        ]
        self.rec = (
            MetricsRecorder(interval_ms) if interval_ms is not None else None
        )
        for gid, ctrl in zip(group.arrays, self.controllers):
            ctrl.obs_shard = gid
            if self.rec is not None:
                ctrl.obs = self.rec
        self.orchestrator = None
        if group.failures:
            local_index = {gid: i for i, gid in enumerate(group.arrays)}
            self.orchestrator = FailureOrchestrator(
                _LocalFleet(self.controllers, sim, layout),  # type: ignore[arg-type]
                tuple(
                    replace(ev, array=local_index[ev.array])
                    for ev in group.failures
                ),
                admission=group.admission_slots,
                parallelism=scenario.rebuild_parallelism,
            )
            self.orchestrator.arm()
        # Engine choice replicates the serial gate exactly: the serial
        # fleet takes the per-shard batched/carry engines only when its
        # shared clock is idle at serve time — i.e. when the scenario
        # arms nothing (failure or reshape) anywhere — so a healthy
        # group must not take the fast engines just because its own
        # slice is quiet while another group rebuilds.
        self.batched = not scenario.failures and scenario.reshape_to is None

    def result(
        self,
        scheduled: list[int],
        digests: list[dict[str, LatencyDigest]] | None = None,
    ) -> GroupResult:
        """Record the makespan, run the serial runner's trailing clock
        drain (failures scheduled beyond the last completion), and
        package the outcome; ``digests=None`` reduces the controllers'
        latency samples."""
        sim = self.sim
        duration = sim.now
        sim.run()
        arrays = self.group.arrays
        if self.rec is not None:
            for gid, ctrl in zip(arrays, self.controllers):
                self.rec.set_stat(
                    gid,
                    "queue_delay_ms",
                    sum(d.total_queue_delay for d in ctrl.disks),
                )
        if digests is None:
            digests = [_digest_latency(ctrl) for ctrl in self.controllers]
        outcomes = []
        if self.orchestrator is not None:
            outcomes = [
                replace(o, array=arrays[o.array])
                for o in self.orchestrator.outcomes
            ]
        return GroupResult(
            group_index=self.index,
            arrays=arrays,
            scheduled=scheduled,
            digests=digests,
            per_disk_ios=[c.per_disk_completed() for c in self.controllers],
            duration_ms=duration,
            outcomes=outcomes,
            wall_s=time.perf_counter() - self.t0,
            engines=[c.last_engine for c in self.controllers],
            obs=self.rec,
        )


def _route_fleet_stream(
    scenario: FleetScenario, fleet: Fleet, stream=None
) -> list[CompiledTrace]:
    """Parent side, once per run: generate the scenario's stream
    (unless a ``(times, is_read, lbas)`` stream was submitted) and
    route + compile it per shard through the real fleet in one
    vectorized pass — workers never regenerate or re-route it."""
    if stream is None:
        stream = generate_request_stream(
            scenario.workload(), scenario.duration_ms, fleet.capacity
        )
    compiled, _ = fleet.route_stream(*stream)
    return compiled


def _execute_group(
    scenario: FleetScenario,
    group: ShardGroup,
    compiled: tuple[CompiledTrace, ...],
    group_index: int,
    metrics_interval_ms: float | None = None,
) -> GroupResult:
    """Run one group's sub-fleet over its pre-routed compiled slices
    (worker side).

    Mirrors ``run_fleet_scenario`` + ``Fleet.serve_compiled`` step for
    step for the arrays it owns: same seeds, same traces, same engine
    choice, same final clock drain — so the merged report equals the
    serial one exactly.
    """
    run = _GroupSim(scenario, group, group_index, metrics_interval_ms)
    sim = run.sim
    if run.rec is not None:
        # Same point the serial serve records arrivals (stream start is
        # sim time 0 in workers, exactly as in the serial scenario run).
        for gid, trace in zip(group.arrays, compiled):
            if trace.n:
                run.rec.arrivals(gid, trace.times)
    if run.batched:
        base = end = sim.now
        for ctrl, trace in zip(run.controllers, compiled):
            sim.now = base
            execute_compiled(ctrl, trace)
            end = max(end, sim.now)
        sim.now = end
    else:
        for ctrl, trace in zip(run.controllers, compiled):
            schedule_compiled(ctrl, trace)
        sim.run()
    return run.result([t.n for t in compiled])


class _FilteredWindows:
    """Re-iterable view of a windowed fleet stream restricted to the
    volumes a worker's arrays serve under the *static* routing table
    (moving volumes route to their source array until cutover, and the
    source is always in the migration component, so the static filter
    captures every request the worker must see)."""

    __slots__ = ("windows", "keep", "volume_units")

    def __init__(self, windows, keep: np.ndarray, volume_units: int):
        self.windows = windows
        self.keep = keep
        self.volume_units = volume_units

    def __iter__(self):
        keep = self.keep
        vu = self.volume_units
        for times, is_read, lbas in self.windows:
            if not len(times):
                continue
            mask = keep[lbas // vu]
            yield times[mask], is_read[mask], lbas[mask]


def _execute_group_windowed(
    scenario: FleetScenario,
    group: ShardGroup,
    route: np.ndarray,
    volume_units: int,
    shard_capacity: int,
    capacity: int,
    n_volumes: int,
    group_index: int,
    metrics_interval_ms: float | None = None,
    *,
    windows=None,
) -> GroupResult:
    """Run one group's sub-fleet with a windowed stream (worker side).

    By default the worker regenerates the fleet stream one window at a
    time (:class:`StreamWindows` is seed-deterministic) and routes each
    window to its own arrays through the shipped static table — peak
    memory stays one window per shard at any horizon, in the parent
    *and* in every worker.  ``windows`` overrides the source with any
    re-iterable ``(times, is_read, lbas)`` window source, e.g.
    :class:`repro.sim.compile.ArrayWindows` over shared-memory views of
    a submitted stream, served through the identical pumps.  Engine
    choice mirrors the serial :meth:`Fleet.serve_windows` gate
    exactly: the carry engines only when the whole scenario arms
    nothing on any clock, the per-shard chained heap pumps otherwise
    (the serial window router's per-shard event order, minus other
    groups' events, which never reorder ours).  Latency reduces into
    per-shard digests — the same accumulators the serial windowed
    serve feeds ``_report``.
    """
    run = _GroupSim(scenario, group, group_index, metrics_interval_ms)
    if windows is None:
        windows = StreamWindows(
            scenario.workload(),
            scenario.duration_ms,
            capacity,
            window_size=scenario.window_size,
        )
    digests: list[dict[str, LatencyDigest]] = [{} for _ in group.arrays]
    scheduled = [0] * len(group.arrays)
    carried = run.batched and _windows_carry(
        run.sim,
        run.controllers,
        group.arrays,
        route=route,
        volume_units=volume_units,
        shard_capacity=shard_capacity,
        n_volumes=n_volumes,
        capacity=capacity,
        write_policy=scenario.write_policy,
        dataplane=scenario.verify_data,
        windows=windows,
        digests=digests,
        scheduled=scheduled,
        read_only_hint=scenario.read_fraction >= 1.0,
    )
    if not carried:
        for d in digests:
            d.clear()
        # Arm every shard's pump before the one shared run so failure
        # timers interleave with all of them, exactly as the serial
        # window router's heap does.
        pumps = [
            _arm_shard_pump(
                ctrl,
                gid,
                windows,
                digests[i],
                route,
                volume_units,
                shard_capacity,
            )
            for i, (gid, ctrl) in enumerate(
                zip(group.arrays, run.controllers)
            )
        ]
        run.sim.run()
        for i, (count, drain) in enumerate(pumps):
            drain()
            scheduled[i] = count[0]
    return run.result(scheduled, digests)


def _execute_migration_group(
    scenario: FleetScenario,
    group: ShardGroup,
    group_index: int,
    metrics_interval_ms: float | None = None,
) -> GroupResult:
    """Run one migration component to completion (worker side).

    The worker builds a full-size fleet (controller construction is
    deterministic per global shard id, and arrays outside the
    component stay idle — zero events), attaches a coordinator
    filtered to the component's moves with its static share of the
    copy budget, and serves only the traffic the static routing table
    sends to the component's arrays.  Because the component is closed
    under the move graph, every diverted request, mirror write, and
    copy IO lands inside it — the same events the serial run produces
    on these arrays, in the same per-shard order.
    """
    t0 = time.perf_counter()
    fleet = Fleet(
        scenario.shards,
        scenario.v,
        scenario.k,
        volumes=scenario.volumes,
        dataplane=scenario.verify_data,
        seed=scenario.seed,
        placement=scenario.placement,
        write_policy=scenario.write_policy,
    )
    coordinator = MigrationCoordinator(
        fleet,
        scenario.reshape_to,
        at_ms=scenario.reshape_time(),
        admission_controller=AdmissionController(
            max(1, group.admission_slots)
        ),
        copy_parallelism=scenario.copy_parallelism,
        volumes=group.migration_volumes,
    )
    rec = (
        MetricsRecorder(metrics_interval_ms)
        if metrics_interval_ms is not None
        else None
    )
    if rec is not None:
        # The worker's fleet is full-size, so shard ids are already
        # global; only the group's arrays see traffic (the keep filter
        # below), so the recorder state stays disjoint across workers.
        fleet.attach_recorder(rec)
    coordinator.arm()
    static_route = fleet.volume_route()
    keep = np.isin(static_route, np.array(group.arrays, dtype=np.int64))

    if scenario.window_size is not None:
        windows = _FilteredWindows(
            StreamWindows(
                scenario.workload(),
                scenario.duration_ms,
                fleet.capacity,
                window_size=scenario.window_size,
            ),
            keep,
            fleet.volume_units,
        )
        digests: list[dict[str, LatencyDigest]] = [
            {} for _ in fleet.controllers
        ]
        scheduled = [0] * len(fleet.controllers)
        router = _WindowRouter(fleet, iter(windows), digests, scheduled)
        router.start()
        fleet.sim.run()
        router.drain()
    else:
        times, is_read, lbas = generate_request_stream(
            scenario.workload(), scenario.duration_ms, fleet.capacity
        )
        mask = keep[lbas // fleet.volume_units]
        compiled, _ = fleet.route_stream(
            times[mask], is_read[mask], lbas[mask]
        )
        if rec is not None:
            for s, trace in enumerate(compiled):
                if trace.n:
                    rec.arrivals(s, trace.times)
        for ctrl, trace in zip(fleet.controllers, compiled):
            schedule_compiled(ctrl, trace)
        fleet.sim.run()
        scheduled = [t.n for t in compiled]
        digests = [_digest_latency(ctrl) for ctrl in fleet.controllers]
    duration = fleet.sim.now
    fleet.sim.run()
    while len(scheduled) < len(fleet.controllers):
        scheduled.append(0)
    # The coordinator's dispatches count where they actually ran
    # (fresh coordinator: the base is zero).
    for s, total in enumerate(coordinator.dispatched_per_shard):
        scheduled[s] += total

    local = list(group.arrays)
    if rec is not None:
        for a in local:
            rec.set_stat(
                a,
                "queue_delay_ms",
                sum(
                    d.total_queue_delay
                    for d in fleet.controllers[a].disks
                ),
            )
    return GroupResult(
        group_index=group_index,
        arrays=group.arrays,
        scheduled=[scheduled[a] for a in local],
        digests=[digests[a] for a in local],
        per_disk_ios=[
            fleet.controllers[a].per_disk_completed() for a in local
        ],
        duration_ms=duration,
        outcomes=[],
        wall_s=time.perf_counter() - t0,
        migrations=list(coordinator.outcomes),
        engines=[fleet.controllers[a].last_engine for a in local],
        obs=rec,
    )


# ----------------------------------------------------------------------
# Merge + execution metadata
# ----------------------------------------------------------------------


def _merge_results(
    scenario: FleetScenario,
    results: list[GroupResult],
) -> tuple[
    FleetReport,
    tuple[RebuildOutcome, ...],
    tuple[VolumeMigrationOutcome, ...],
]:
    """Fold per-group raw results into one fleet report.

    Placement is by global shard id; per-shard latency accumulators
    fold in shard order — the exact order the serial report sums them
    in, so float reductions (means) agree bit for bit.  A reshape
    scenario's report covers ``reshape_to`` shards (reshape-born shards
    a group didn't touch stay zero rows, matching the serial pads);
    migration outcomes merge sorted by volume id — the canonical order
    the report serializes them in.
    """
    n = max(scenario.shards, scenario.reshape_to or 0)
    scheduled = [0] * n
    accs: list[dict[str, LatencyDigest]] = [{} for _ in range(n)]
    per_disk: list[list[int]] = [[0] * scenario.v for _ in range(n)]
    engines: list[str | None] = [None] * n
    duration = 0.0
    outcomes: list[RebuildOutcome] = []
    migrations: list[VolumeMigrationOutcome] = []
    for res in results:
        duration = max(duration, res.duration_ms)
        outcomes.extend(res.outcomes)
        migrations.extend(res.migrations)
        for i, gid in enumerate(res.arrays):
            scheduled[gid] = res.scheduled[i]
            per_disk[gid] = res.per_disk_ios[i]
            engines[gid] = res.engines[i]
            accs[gid] = {
                kind: digest
                for kind, digest in res.digests[i].items()
                if digest.count
            }

    # Per-shard accumulators feed the same shard-order merge_summaries
    # fold the serial Fleet._report performs, so merged means and
    # histograms agree bit for bit.
    per_shard_latency = [
        {kind: summarize(shard[kind]) for kind in sorted(shard)}
        for shard in accs
    ]
    kinds = sorted({kind for shard in accs for kind in shard})
    completed = int(
        sum(acc.count for shard in accs for acc in shard.values())
    )
    report = FleetReport(
        shards=n,
        scheduled=int(sum(scheduled)),
        completed=completed,
        duration_ms=duration,
        throughput_rps=(
            completed / (duration / 1000.0) if duration > 0 else 0.0
        ),
        latency={
            kind: merge_summaries(
                [shard[kind] for shard in accs if kind in shard]
            )
            for kind in kinds
        },
        per_shard_scheduled=list(scheduled),
        per_shard_latency=per_shard_latency,
        per_disk_ios=per_disk,
    )
    # Same non-field attribute Fleet._report sets on the serial path —
    # the payload's engine keys must agree serial vs merged bit for bit.
    object.__setattr__(report, "engines", engines)
    return (
        report,
        tuple(sorted(outcomes, key=lambda o: o.array)),
        tuple(sorted(migrations, key=lambda m: m.volume)),
    )


def _group_row(group: ShardGroup, duration_ms: float, wall_s: float) -> dict:
    """One :attr:`ParallelExecution.groups` row."""
    return {
        "arrays": list(group.arrays),
        "admission_slots": group.admission_slots,
        "failures": len(group.failures),
        "migration_volumes": list(group.migration_volumes),
        "duration_ms": duration_ms,
        "wall_s": wall_s,
    }


@dataclass(frozen=True)
class ParallelExecution:
    """How a parallel run actually executed (metadata only — everything
    here may differ between two equal-report runs, which is why
    :func:`canonical_payload` drops it before equality checks).

    Attributes:
        requested_workers: the ``workers`` argument (``None`` = auto).
        workers: processes actually used (1 = in-process).
        cpu_count: :func:`available_cpus` at run time.
        mp_context: multiprocessing start method (``None`` in-process).
        serial_fallback: True when the run used the serial path.
        fallback_reason: partition reason when it did.
        groups: per-group execution rows (arrays, slots, failure count,
            group makespan, worker wall time).
        admission_partition: recorded budget split (group index →
            slots).
    """

    requested_workers: int | None
    workers: int
    cpu_count: int
    mp_context: str | None
    serial_fallback: bool
    fallback_reason: str | None
    groups: tuple[dict, ...]
    admission_partition: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready execution metadata."""
        return {
            "requested_workers": self.requested_workers,
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "mp_context": self.mp_context,
            "serial_fallback": self.serial_fallback,
            "fallback_reason": self.fallback_reason,
            "groups": [dict(g) for g in self.groups],
            "admission_partition": {
                str(k): v for k, v in sorted(self.admission_partition.items())
            },
        }


@dataclass(frozen=True)
class ParallelScenarioRun:
    """A parallel run's outcome: the scenario report (identical in
    content to the serial runner's) plus execution metadata."""

    report: FleetScenarioReport
    execution: ParallelExecution

    def to_dict(self) -> dict:
        """The serial report payload plus a ``parallel`` section.

        ``serial_fallback``/``fallback_reason`` are ALSO surfaced at the
        payload's top level: a ``--workers N`` run that silently
        downgraded to serial used to be discoverable only by digging
        into the ``parallel`` metadata, so dashboards (and the CLI
        smoke gate) never noticed.  Top-level placement makes the
        downgrade part of the report summary itself.
        """
        payload = self.report.to_dict()
        payload["serial_fallback"] = self.execution.serial_fallback
        payload["fallback_reason"] = self.execution.fallback_reason
        payload["parallel"] = self.execution.to_dict()
        return payload


_VOLATILE_KEYS = frozenset(
    {"wall_s", "parallel", "serial_fallback", "fallback_reason", "runtime"}
)


def canonical_payload(payload: dict) -> dict:
    """A report payload with run-to-run-volatile fields removed: wall
    clock times (``wall_s`` at any depth), the ``parallel``
    execution-metadata section, and the warm runtime's ``runtime``
    stats section (cache hits and pool reuse are properties of the
    serving session, not of the report).  Two runs of the same
    scenario — serial, ``workers=1``, ``workers=N``, cold or warm —
    must produce *identical* canonical payloads; this is the
    merge-equality gate the tests and the benchmark suite check with
    ``json.dumps(..., sort_keys=True)`` string comparison.
    """

    def strip(node):
        if isinstance(node, dict):
            return {
                k: strip(v)
                for k, v in node.items()
                if k not in _VOLATILE_KEYS
            }
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(payload)


def run_fleet_scenario_parallel(
    scenario: FleetScenario,
    workers: int | None = None,
    *,
    mp_context: str = "auto",
    recorder=None,
) -> ParallelScenarioRun:
    """Run a scenario across worker processes, one per shard group —
    a one-shot :class:`repro.service.runtime.WarmRuntime` whose pool
    and shared-memory segments live for this run only.

    Args:
        scenario: the scenario to run (must be failure/migration
            consistent, exactly as :func:`run_fleet_scenario` requires).
        workers: process budget.  ``None`` auto-sizes to
            ``min(groups, available_cpus())``; ``1`` runs the grouped
            pipeline in-process through the same task entry point
            (useful for testing the merge without process overhead) —
            the CLI maps ``--workers 1`` to the plain serial runner
            instead.
        mp_context: multiprocessing start method — ``"auto"`` picks
            ``fork`` where available (cheap) and falls back to
            ``spawn``; pass ``"spawn"``/``"forkserver"`` explicitly to
            exercise those paths (everything shipped to workers is
            spawn-safe).
        recorder: optional :class:`repro.obs.MetricsRecorder`.  Workers
            record into local recorders on their own simulated clocks
            (keyed by global shard id) and the parent absorbs them —
            per-shard state is disjoint across groups, so the merged
            recorder renders snapshot rows byte-identical to a serial
            instrumented run's.

    Returns:
        A :class:`ParallelScenarioRun` whose report content matches the
        serial runner's for the same scenario.

    Raises:
        ValueError: on inconsistent scenario parameters or a
            non-positive ``workers``.
    """
    from .runtime import WarmRuntime  # the runtime builds on this module

    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    partition = partition_scenario(scenario)
    budget = workers if workers is not None else available_cpus()
    with WarmRuntime(
        scenario,
        workers=min(budget, len(partition.groups)),
        mp_context=mp_context,
    ) as runtime:
        return runtime._run_grouped(
            partition, recorder=recorder, requested_workers=workers
        )
