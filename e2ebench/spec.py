"""Workload constants and the metric names every run emits.

The names here are the benchmark's contract with ``BENCHMARK.json``;
``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

WORKLOADS = ("layout_build", "stream_windowed", "fleet_degraded", "frontend_warm")

# -- layout_build ---------------------------------------------------------
#: Three (v, k) pairs per family the planner picks, each op 0.1-0.6 s on
#: a 2-CPU host.  Every pair's built size equals the planned size.
LAYOUT_PAIRS = (
    (99, 7), (99, 5), (72, 6),  # ring
    (125, 5), (121, 7), (81, 7),  # flow_single
    (110, 6), (75, 5), (105, 5),  # stairway_compact
    (130, 7), (80, 6), (87, 5),  # removal
)

# -- serving workloads ----------------------------------------------------
#: Served layout pair on every shard.
SERVE_V, SERVE_K = 41, 5
#: Aggregate fleet mean interarrival (ms) on the healthy 70/30 mixes.
#: At this load the eager cores keep every shard: an exact
#: submission-time tie, which replays the shard on the heap pump at
#: ~1.7x the op time, hit 0 of 600 shard-streams (at 3 ms: 2 of 600),
#: so the op time does not hinge on which streams a seed draws.
HEALTHY_INTERARRIVAL_MS = 6.0
READ_FRACTION = 0.7

WINDOWED = dict(shards=4, requests=80_000, window_size=20_000)
DEGRADED = dict(shards=8, requests=20_000, interarrival_ms=0.1, failures=2,
                failure_at=0.05)
FRONTEND = dict(shards=4, requests=40_000, workers=2, chunk=1000,
                streams=8, line_limit=64 * 1024)

#: Distinct streams per run on the in-process serving workloads; op i
#: serves stream i mod STREAM_POOL, and each stream's reference report
#: is computed once, before its first op.
STREAM_POOL = 4

#: Ops per run: at least MIN_OPS, so the tail rule always reaches p75,
#: and at most MAX_OPS, so it never flips to p90 (100 samples) between
#: runs that the host happened to run faster.  Between the two, a run
#: measures for --seconds and stops at the end of a cycle.
MIN_OPS = 44
MAX_OPS = 96

#: Fresh-process set-ups timed per run (median reported).
SETUP_REPEATS = 7

# -- metric names -----------------------------------------------------------
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "requests_per_s": "1/s",
    "layouts_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
    "layout_units": "units",
}

ENGINE_LABELS = (
    "windowed-eager",
    "windowed-solver",
    "windowed-pump",
    "heap",
    "solver",
    "eager",
    "calendar",
)

PER_LAYER = {
    "core.plan_s": "s",
    "designs.best_design_s": "s",
    "flow.assign_parity_s": "s",
    "layouts.build_s": "s",
    "layouts.evaluate_s": "s",
    "layouts.incidence_s": "s",
    "layouts.mapper_build_s": "s",
    "core.registry_hit_ratio": "ratio",
    "service.scenario_s": "s",
    "sim.generate_s": "s",
    "sim.compile_s": "s",
    "layouts.map_batch_s": "s",
    "layouts.map_batch_addresses": "count",
    "service.route_s": "s",
    "service.routed_requests": "count",
    **{f"sim.engine_s.{label}": "s" for label in ENGINE_LABELS},
    "sim.digest_s": "s",
    "sim.digest_calls": "count",
    "sim.digest_samples": "count",
    "sim.events": "count",
    "sim.rebuild_s": "s",
    "sim.stripes_rebuilt": "count",
    "sim.dataplane_s": "s",
    "sim.dataplane_bytes": "bytes",
    "service.conformance_s": "s",
    "service.frontend.submit_ms": "ms",
    "service.frontend.serve_hit_ms": "ms",
    "service.frontend.serve_miss_ms": "ms",
    "service.frontend.request_bytes": "bytes",
    "service.frontend.error_replies": "count",
    "service.runtime.compile_cache_hit_ratio": "ratio",
    "service.runtime.pool_warm_hit_ratio": "ratio",
    "service.runtime.shm_bytes": "bytes",
    "service.runtime.ipc_bytes_avoided": "bytes",
    "op.unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}
