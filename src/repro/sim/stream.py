"""Streaming compiled execution: constant-memory windows.

The materialized pipeline (:func:`repro.sim.compile.execute_compiled`)
holds the whole stream — generated vectors, one big
:class:`CompiledTrace`, every latency sample — so memory, not CPU, caps
the horizon.  :func:`execute_windows` runs the same simulation from a
window iterator (:class:`repro.sim.compile.StreamWindows`, or anything
yielding ``(times, is_read, lbas)`` slices in arrival order): each
window is translated with one ``map_batch`` call, executed by an engine
that carries its queue state across window boundaries, and reduced to
constant-memory :class:`repro.sim.stats.LatencyDigest` accumulators —
peak memory is one window, at any horizon.

Reports stay **byte-identical** to the materialized path.  Three
engines mirror :func:`execute_compiled`'s selection gate:

* single-phase streams (read-only by construction, or any mix under
  ``write_policy="write_through"``) run on :class:`_WindowedSolver` —
  the analytic FIFO solver of :func:`~repro.sim.compile.solve_compiled`
  with the per-disk recurrence state (previous completion, last offset,
  busy/delay accumulators) carried between windows.  Partitioning a
  disk's IO sequence does not change the float left-fold, so every
  completion is bit-equal to the whole-trace solve;
* mixed read-modify-write streams on a hookless array run on
  :class:`repro.sim.batchstep._EagerCore` fed window by window, its
  pending-phase heap and per-disk state persisting across feeds.  On
  the core's ambiguity abort (an exact submission-time tie) nothing has
  touched the controller, so the stream is replayed exactly on the heap
  pump;
* everything else (busy simulator, data plane attached, degenerate
  service model) streams through the chained heap pump —
  :class:`~repro.sim.compile._CompiledRun` with a window ``source``,
  which loads one window at a time into the real event engine.

Sample *emission* is the part windowing could reorder, so every engine
defers a sample until no later request can complete before it (a
window's last arrival bounds all future completions) and emits in
completion order with the engine's own tie-break — concatenated window
emissions reproduce the materialized emission order exactly, which
makes the digest's running mean bit-equal to ``sum(samples)`` and every
summary byte-identical (see :mod:`repro.sim.stats`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..core.registry import get_incidence
from .compile import CompiledTrace, _CompiledRun, compile_stream
from .controller import ArrayController
from .stats import LatencyDigest

__all__ = ["execute_windows"]

_KIND_NAMES = ("read", "degraded_read", "write", "degraded_write")

#: A raw stream window, as yielded by StreamWindows.
_Window = tuple[np.ndarray, np.ndarray, np.ndarray]


def _digest_sink(digests: dict[str, LatencyDigest], obs=None, shard: int = 0):
    """Build a drain sink folding samples into per-kind digests.

    The sink contract: ``sink(kind, lats, comps)`` receives float64
    ndarrays — ``lats`` in emission order, ``comps`` the matching
    completion times — and folds them with the vectorized
    :meth:`LatencyDigest.extend_array`, state-identical to one
    ``record`` per sample.

    When a metrics recorder ``obs`` is supplied, each drained batch is
    also folded into its completion-time buckets — the drain contract
    (completion-sorted emission, windowed prefixes of the one-shot
    order) is exactly what keeps the recorder's per-bucket folds
    byte-identical across window sizes.
    """

    def sink(kind: str, lats: np.ndarray, comps: np.ndarray) -> None:
        d = digests.get(kind)
        if d is None:
            d = digests[kind] = LatencyDigest()
        d.extend_array(lats)
        if obs is not None:
            obs.feed(shard, kind, comps, lats)

    return sink


class _WindowedSolver:
    """The analytic single-phase solver, fed one window at a time.

    Carries the per-disk FIFO recurrence across feeds: the previous
    completion time per disk (the solver's ``prev``), while last
    offset / busy time / queue delay round-trip through the disk
    objects between windows (the same additions in the same order as
    one whole-trace solve, so every float is bit-equal).  Request
    completions pool in request order and drain once no later request
    can land among them.
    """

    __slots__ = ("ctrl", "base", "prev", "maxc", "n", "_comps", "_lats", "_codes")

    def __init__(self, ctrl: ArrayController):
        if ctrl.sim.pending():
            raise RuntimeError("the windowed solver requires an idle simulator")
        self.ctrl = ctrl
        self.base = ctrl.sim.now
        self.prev = [float("-inf")] * len(ctrl.disks)
        self.maxc = float("-inf")
        self.n = 0
        # Pooled, in request order: completion, latency, kind code.
        self._comps = np.empty(0, dtype=np.float64)
        self._lats = np.empty(0, dtype=np.float64)
        self._codes = np.empty(0, dtype=np.int8)

    def feed(self, compiled: CompiledTrace, sink) -> int:
        """Solve one compiled window and emit every pooled sample that
        can no longer be preceded (completion <= this window's last
        arrival).  Returns the window's request count.

        Raises:
            ValueError: on a write under the read-modify-write policy
                (multi-phase; not a single-phase stream).
        """
        ctrl = self.ctrl
        n = compiled.n
        if n == 0:
            return 0
        has_writes = not compiled.read_only()
        if has_writes and ctrl.write_policy != "write_through":
            raise ValueError(
                "the windowed solver handles read-only streams under the "
                "read-modify-write policy (write-through streams are "
                "single-phase and always solvable)"
            )
        self.n += n
        times = self.base + compiled.times
        failed = ctrl.failed_disk
        disks = compiled.disks
        offsets = compiled.offsets

        # --- fan requests out to disk IOs (identical to solve_compiled).
        kind_code = None
        if not has_writes and failed is None:
            io_req = np.arange(n, dtype=np.int64)
            io_disk = disks
            io_off = offsets
            io_write = None
            block_start = io_req
        else:
            counts = np.ones(n, dtype=np.int64)
            kind_code = np.zeros(n, dtype=np.int8)
            if has_writes:
                widx = np.flatnonzero(~compiled.is_read)
                wd, wo, ws, wpd, wpo = ctrl.mapper.map_batch_parity(
                    compiled.lbas[widx]
                )
                if failed is None:
                    wnormal = np.ones(len(widx), dtype=bool)
                    wdataf = wparityf = np.zeros(len(widx), dtype=bool)
                else:
                    wdataf = wd == failed
                    wparityf = wpd == failed
                    wnormal = ~(wdataf | wparityf)
                counts[widx[wnormal]] = 2
                kind_code[widx[wnormal]] = 2
                kind_code[widx[~wnormal]] = 3
                if ctrl.data is not None:
                    b = ctrl.layout.b
                    wlbas = compiled.lbas[widx].tolist()
                    for j in range(len(widx)):
                        ctrl._apply_write_dataplane(
                            int(ws[j]) % b,
                            int(wd[j]),
                            int(wo[j]),
                            ctrl._default_payload(wlbas[j]),
                        )
            deg = None
            if failed is not None:
                layout = ctrl.layout
                inc = get_incidence(layout)
                lengths = inc.stripe_lengths()
                sids = compiled.stripes % layout.b
                deg = compiled.is_read & (disks == failed)
                counts[deg] = lengths[sids[deg]] - 1
                kind_code[deg] = 1
            block_start = np.zeros(n, dtype=np.int64)
            np.cumsum(counts[:-1], out=block_start[1:])
            total = int(counts.sum())
            io_req = np.repeat(np.arange(n, dtype=np.int64), counts)
            io_disk = np.empty(total, dtype=np.int64)
            io_off = np.empty(total, dtype=np.int64)
            io_write = np.zeros(total, dtype=bool)
            hr = compiled.is_read if deg is None else compiled.is_read & ~deg
            io_disk[block_start[hr]] = disks[hr]
            io_off[block_start[hr]] = offsets[hr]
            if has_writes:
                bs = block_start[widx[wnormal]]
                io_disk[bs] = wd[wnormal]
                io_off[bs] = wo[wnormal]
                io_disk[bs + 1] = wpd[wnormal]
                io_off[bs + 1] = wpo[wnormal]
                io_write[bs] = True
                io_write[bs + 1] = True
                bs = block_start[widx[wdataf]]
                io_disk[bs] = wpd[wdataf]
                io_off[bs] = wpo[wdataf]
                io_write[bs] = True
                bs = block_start[widx[wparityf]]
                io_disk[bs] = wd[wparityf]
                io_off[bs] = wo[wparityf]
                io_write[bs] = True
            if deg is not None and deg.any():
                dsids = sids[deg]
                row_start = inc.indptr[dsids]
                row_len = lengths[dsids]
                m = int(row_len.sum())
                run_end = np.cumsum(row_len)
                intra = np.arange(m, dtype=np.int64) - np.repeat(
                    run_end - row_len, row_len
                )
                upos = np.repeat(row_start, row_len) + intra
                udisks = inc.disks[upos]
                uoffs = inc.offsets[upos]
                keep = udisks != failed
                klen = row_len - 1
                kept = int(klen.sum())
                kend = np.cumsum(klen)
                kintra = np.arange(kept, dtype=np.int64) - np.repeat(
                    kend - klen, klen
                )
                kpos = np.repeat(block_start[deg], klen) + kintra
                io_disk[kpos] = udisks[keep]
                io_off[kpos] = uoffs[keep]

        # --- continue each disk's FIFO recurrence from the carried
        # state (the one line that differs from the one-shot solver:
        # ``prev`` starts at the previous window's last completion).
        io_time = times[io_req]
        completion = np.empty(len(io_disk), dtype=np.float64)
        p = ctrl.params
        rot, xfer = p.rotational_latency_ms, p.transfer_ms_per_unit
        avg, seqs = p.average_seek_ms, p.sequential_seek_ms
        order = np.argsort(io_disk, kind="stable")
        sorted_disk = io_disk[order]
        group_bounds = np.flatnonzero(np.diff(sorted_disk)) + 1
        for grp in np.split(order, group_bounds):
            di = int(io_disk[grp[0]])
            disk_obj = ctrl.disks[di]
            offs = io_off[grp]
            seeks = np.empty(len(grp), dtype=np.float64)
            last = disk_obj._last_offset
            seeks[0] = (
                seqs if last is not None and abs(int(offs[0]) - last) <= 1 else avg
            )
            seeks[1:] = np.where(np.abs(np.diff(offs)) <= 1, seqs, avg)
            service = (seeks + rot) + xfer
            arrivals = io_time[grp].tolist()
            comp = []
            busy = disk_obj.busy_time
            delay = disk_obj.total_queue_delay
            prev = self.prev[di]
            for a, s in zip(arrivals, service.tolist()):
                start = a if a > prev else prev
                delay += start - a
                busy += s
                prev = start + s
                comp.append(prev)
            completion[grp] = comp
            self.prev[di] = prev
            disk_obj.busy_time = busy
            disk_obj.total_queue_delay = delay
            if io_write is None:
                disk_obj.completed_reads += len(grp)
            else:
                nw = int(io_write[grp].sum())
                disk_obj.completed_writes += nw
                disk_obj.completed_reads += len(grp) - nw
            disk_obj._last_offset = int(offs[-1])

        # --- pool per-request completions (request order) and drain.
        if len(io_disk) == n:
            req_completion = completion
        else:
            req_completion = np.maximum.reduceat(completion, block_start)
        top = float(req_completion.max())
        if top > self.maxc:
            self.maxc = top
        if kind_code is None:
            kind_code = np.zeros(n, dtype=np.int8)
        self._comps = np.concatenate((self._comps, req_completion))
        self._lats = np.concatenate((self._lats, req_completion - times))
        self._codes = np.concatenate((self._codes, kind_code))
        self._drain(float(times[-1]), sink)
        return n

    def _drain(self, threshold: float, sink) -> None:
        """Emit pooled samples with completion <= ``threshold``.  Every
        later request arrives at or after the threshold, so its
        completion cannot sort before the emitted prefix — and within
        the pool a stable completion sort breaks ties by request order,
        exactly the one-shot solver's ``done_order``.  ``sink`` receives
        each kind's latencies and completion times as float64 ndarrays
        (the :func:`_digest_sink` contract)."""
        carr = self._comps
        ready = carr <= threshold
        if not ready.any():
            return
        larr = self._lats
        codes = self._codes
        order = np.argsort(carr[ready], kind="stable")
        comp_done = carr[ready][order]
        lat_done = larr[ready][order]
        kinds_done = codes[ready][order]
        for code, name in enumerate(_KIND_NAMES):
            mask = kinds_done == code
            sel = lat_done[mask]
            if len(sel):
                sink(name, sel, comp_done[mask])
        keep = ~ready
        self._comps = carr[keep]
        self._lats = larr[keep]
        self._codes = codes[keep]

    def finish(self, sink) -> None:
        """Emit everything still pooled and advance the clock to the
        last completion (the one-shot solver's final ``sim.now``)."""
        self._drain(float("inf"), sink)
        if self.maxc > float("-inf"):
            self.ctrl.sim.now = self.maxc


def _eager_windows(
    ctrl: ArrayController,
    windows: Iterable[_Window],
    digests: dict[str, LatencyDigest],
    seq_s: float,
    avg_s: float,
) -> int | None:
    """Stream a mixed RMW workload through the eager core, one window
    at a time.  Returns the request count, or ``None`` on an ambiguous
    tie — the controller is untouched and the caller replays."""
    from .batchstep import _EagerCore

    core = _EagerCore(ctrl, seq_s, avg_s)
    obs = ctrl.obs
    sink = _digest_sink(digests, obs if obs.enabled else None, ctrl.obs_shard)
    n = 0
    for times, is_read, lbas in windows:
        w = compile_stream(ctrl.mapper, times, is_read, lbas)
        if not w.n:
            continue
        run = _CompiledRun(ctrl, w)
        if not core.feed(run):
            return None
        n += w.n
        obs.count("window_boundaries", volatile=True)
        core.drain(run.times[-1], sink)
    if not core.finish(sink):
        return None
    ctrl.last_engine = "windowed-eager"
    obs.set_engine(ctrl.obs_shard, "windowed-eager")
    return n


def _pump_windows(
    ctrl: ArrayController,
    it: Iterator[_Window],
    digests: dict[str, LatencyDigest],
) -> int:
    """Stream through the chained heap pump: the general engine, able
    to interleave with foreign events (rebuilds, timers, other streams).
    Latency-sample lists are swept into the digests at every window
    boundary, so they never grow past one window.

    Metrics recording rides the event-level hooks (the controller's
    ``_record``, the compiled run's inlined sinks), which see every
    completion at its event time — the boundary sweep below moves
    samples that the recorder has already bucketed, so it must not feed
    the recorder again."""
    ctrl.last_engine = "windowed-pump"
    ctrl.obs.set_engine(ctrl.obs_shard, "windowed-pump")
    mapper = ctrl.mapper
    first: CompiledTrace | None = None
    for times, is_read, lbas in it:
        w = compile_stream(mapper, times, is_read, lbas)
        if w.n:
            first = w
            break
    if first is None:
        return 0
    obs = ctrl.obs
    obs.count("window_boundaries", volatile=True)
    scheduled = [first.n]

    def source() -> CompiledTrace | None:
        for times, is_read, lbas in it:
            w = compile_stream(mapper, times, is_read, lbas)
            if w.n:
                scheduled[0] += w.n
                obs.count("window_boundaries", volatile=True)
                return w
        return None

    latency = ctrl.latency

    def drain() -> None:
        for kind, st in latency.items():
            lst = st.samples
            if not lst:
                continue
            d = digests.get(kind)
            if d is None:
                d = digests[kind] = LatencyDigest()
            d.extend_array(np.asarray(lst, dtype=np.float64))
            # Clear in place: the pump and controller cache the list
            # object as their recording sink.
            del lst[:]

    _CompiledRun(ctrl, first, source=source, on_window=drain).schedule()
    ctrl.sim.run()
    drain()
    return scheduled[0]


def execute_windows(
    ctrl: ArrayController,
    windows: Iterable[_Window],
    *,
    read_only_hint: bool = False,
    digests: dict[str, LatencyDigest] | None = None,
) -> tuple[int, dict[str, LatencyDigest]]:
    """Run a windowed request stream through the fastest exact engine.

    The streaming counterpart of
    :func:`repro.sim.compile.execute_compiled`: same simulation, same
    per-disk counters and clock, and latency summaries byte-identical
    to the materialized run — but peak memory is one window.  The
    selection gate mirrors the materialized one:

    1. a busy simulator → the chained heap pump (window source);
    2. ``read_only_hint`` (the caller knows every request is a read —
       e.g. ``read_fraction >= 1``) or write-through policy → the
       windowed analytic solver;
    3. mixed read-modify-write on a hookless array (no data plane) →
       the windowed eager core; an exact-tie abort replays the stream
       bit-exactly on the heap pump (``windows`` must be re-iterable
       for the replay — :class:`~repro.sim.compile.StreamWindows` is;
       one-shot generators skip the eager tier);
    4. otherwise → the chained heap pump.

    The hint is advisory: an all-read stream without it simply runs on
    the eager core, whose read recurrence performs the identical float
    operations, so the report does not change — only the speed.

    Latency goes to constant-memory digests, not the controller's
    sample lists; the heap-pump path drains ``ctrl.latency`` into the
    digests at window boundaries, so the controller's accumulators must
    start empty (fresh controllers do).  Returns ``(scheduled,
    digests)``.
    """
    if digests is None:
        digests = {}
    sim = ctrl.sim
    if not sim.pending():
        if read_only_hint or ctrl.write_policy == "write_through":
            solver = _WindowedSolver(ctrl)
            obs = ctrl.obs
            ctrl.last_engine = "windowed-solver"
            obs.set_engine(ctrl.obs_shard, "windowed-solver")
            sink = _digest_sink(
                digests, obs if obs.enabled else None, ctrl.obs_shard
            )
            n = 0
            for times, is_read, lbas in windows:
                n += solver.feed(
                    compile_stream(ctrl.mapper, times, is_read, lbas), sink
                )
                obs.count("window_boundaries", volatile=True)
            solver.finish(sink)
            return n, digests
        p = ctrl.params
        min_service = (
            min(p.sequential_seek_ms, p.average_seek_ms)
            + p.rotational_latency_ms
            + p.transfer_ms_per_unit
        )
        seq_s = (
            p.sequential_seek_ms + p.rotational_latency_ms + p.transfer_ms_per_unit
        )
        avg_s = p.average_seek_ms + p.rotational_latency_ms + p.transfer_ms_per_unit
        reiterable = iter(windows) is not windows
        if (
            min_service > 0.0
            and ctrl.write_policy == "rmw"
            and ctrl.data is None
            and reiterable
        ):
            n = _eager_windows(ctrl, windows, digests, seq_s, avg_s)
            if n is not None:
                return n, digests
            # Ambiguous tie: nothing touched; replay exactly on the pump.
            digests.clear()
            ctrl.obs.reset_shard(ctrl.obs_shard)
            ctrl.obs.count("tie_abort_replays")
            windows = iter(windows)
    return _pump_windows(ctrl, iter(windows), digests), digests
