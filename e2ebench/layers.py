"""Per-layer instrumentation of the in-process workloads.

Every span is opened by a wrapper around a public ``repro`` call (see
:class:`tracer.Patches`); the span name is the per-layer metric its
self time feeds.  Where a layer runs inside a call that has no public
seam of its own, its time stays in the enclosing span — see README.md
for the list.
"""

from __future__ import annotations

from contextlib import nullcontext

from tracer import Patches, Tracer, self_times

ENGINE_SPAN = "sim.engine_s"
OP_SPAN = "op.unattributed_s"


class _Span:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.span)


def span(tracer: Tracer | None, name: str):
    """A span around a block the benchmark itself calls (no-op when the
    op is untraced)."""
    return nullcontext() if tracer is None else _Span(tracer, name)


def library_patches(tracer: Tracer) -> Patches:
    """Wrappers around the public library calls the serving and
    layout workloads reach."""
    from repro import designs, flow, layouts, service, sim

    p = Patches(tracer)

    def count(name, fn):
        def on_call(t, s, args, kwargs, result):
            t.count(name, fn(args, result))

        return on_call

    def outermost_digest(t, s, args, kwargs, result):
        parent = t.spans[s.parent] if s.parent is not None else None
        if parent is None or parent.name != "sim.digest_s":
            t.count("sim.digest_calls")
            t.count("sim.digest_samples", len(args[1]))

    def engine_label(t, s, args, kwargs, result):
        s.label = ",".join(e for e in getattr(result, "engines", ()) if e)

    def capture_fleet(t, s, args, kwargs, result):
        t.fleet = args[0]

    p.add_function(designs.best_design, "designs.best_design_s")
    p.add_function(flow.assign_parity, "flow.assign_parity_s")
    p.add_function(layouts.stripe_incidence, "layouts.incidence_s")
    p.add_function(service.run_fleet_scenario, "service.scenario_s")
    p.add_function(service.check_fleet, "service.conformance_s", capture_fleet)
    p.add_function(sim.generate_request_stream, "sim.generate_s")
    p.add_method(sim.StreamWindows, "__iter__", "sim.generate_s", generator=True)
    p.add_function(sim.compile_stream, "sim.compile_s")
    p.add_method(
        layouts.AddressMapper,
        "map_batch",
        "layouts.map_batch_s",
        count("layouts.map_batch_addresses", lambda a, r: len(a[1])),
    )
    p.add_method(
        service.Fleet,
        "route_stream",
        "service.route_s",
        count("service.routed_requests", lambda a, r: len(a[1])),
    )
    p.add_method(service.Fleet, "serve_windows", ENGINE_SPAN, engine_label)
    p.add_method(service.Fleet, "serve_compiled", ENGINE_SPAN, engine_label)
    for attr in ("extend", "extend_array", "extend_keyed"):
        p.add_method(sim.LatencyDigest, attr, "sim.digest_s", outermost_digest)
    p.add_method(sim.RebuildProcess, "start", "sim.rebuild_s")
    p.add_method(sim.DataPlane, "reconstruct_unit", "sim.rebuild_s")
    p.add_method(
        sim.DataPlane,
        "small_write",
        "sim.dataplane_s",
        count("sim.dataplane_bytes", lambda a, r: 2 * a[4].nbytes),
    )
    p.add_method(
        sim.DataPlane,
        "write_unit",
        "sim.dataplane_s",
        count("sim.dataplane_bytes", lambda a, r: a[3].nbytes),
    )
    p.add_method(sim.DataPlane, "stripe_parity", "sim.dataplane_s")
    return p


def op_layers(tracer: Tracer, first_span: int) -> dict[str, float]:
    """Per-layer self times and counts of the op whose spans start at
    index ``first_span`` (the op's root span)."""
    spans = tracer.spans[first_span:]
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        t = own[s.sid]
        if s.name == ENGINE_SPAN:
            labels = [x for x in (s.label or "").split(",") if x]
            # Shards of one serve that ran different engines share the
            # span's self time evenly.
            for label in labels or ["unknown"]:
                key = f"{ENGINE_SPAN}.{label}"
                out[key] = out.get(key, 0.0) + t / max(1, len(labels))
        else:
            out[s.name] = out.get(s.name, 0.0) + t
    for name, value in tracer.counts.items():
        out[name] = out.get(name, 0.0) + value
    return out
