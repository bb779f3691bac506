"""Run loop, set-up timing, and result assembly shared by all workloads."""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

import hostspeed
import spec
from layers import OP_SPAN, library_patches, op_layers
from stats import tail
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pause before each set-up's calibration.
SETTLE_S = 0.25


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def probe_setup(workload: str, root: str) -> float:
    """Seconds from launching a fresh interpreter to the workload being
    ready for its first op (the child runs ``run.py --setup-probe``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", workload],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r} {err.strip()[-500:]}")
    return elapsed


def registry_lookups() -> tuple[int, int]:
    """(hits, misses) summed over every registry level."""
    from repro.core import registry_stats

    stats = registry_stats().values()
    return sum(s[0] for s in stats), sum(s[1] for s in stats)


def run(wl, *, workload: str, seconds: float, trace: bool, root: str) -> dict:
    """Set up, measure for ``seconds``, and return the run's outcome."""
    in_process = not getattr(wl, "external", False)
    setups, setups_raw = [], []
    for r in range(spec.SETUP_REPEATS):
        # A calibration next to process start-up or teardown reads up to
        # 2x slow, so calibrate after a pause, before the set-up only.
        time.sleep(SETTLE_S)
        speed = hostspeed.factor(hostspeed.calibrate(), hostspeed.calibrate())
        if in_process:
            elapsed = probe_setup(workload, root)
        else:
            elapsed = wl.timed_setup(keep=(r == spec.SETUP_REPEATS - 1))
        setups_raw.append(elapsed)
        setups.append(elapsed * speed)
    if in_process:
        wl.setup()

    tracer = Tracer() if trace else None
    patches = library_patches(tracer) if trace and in_process else None
    ops: list[dict] = []
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    min_cycles = 2 if trace else 1
    i = 0
    try:
        while True:
            cycle_no, pos = divmod(i, wl.cycle)
            if pos == 0 and cycle_no >= min_cycles and (
                i >= spec.MAX_OPS
                or (i >= spec.MIN_OPS and time.perf_counter() >= deadline)
            ):
                break
            traced = trace and cycle_no % 2 == 1
            inputs = wl.prepare(i)
            gc.collect()
            rec = {"i": i, "traced": traced}
            before = hostspeed.calibrate()
            if traced:
                tracer.op, tracer.counts, tracer.fleet = i, {}, None
                first = len(tracer.spans)
                if in_process:
                    lookups0 = registry_lookups()
                    patches.install()
                root_span = tracer.begin(OP_SPAN)
            out, err = None, None
            t0 = time.perf_counter()
            try:
                out = wl.op(inputs, tracer if traced else None)
            except Exception as exc:  # one failed op must not end the run
                err = f"{type(exc).__name__}: {exc}"
            rec["raw_seconds"] = time.perf_counter() - t0
            if traced:
                tracer.end(root_span)
                if in_process:
                    patches.uninstall()
                    hits, misses = registry_lookups()
                    rec["registry"] = (hits - lookups0[0], misses - lookups0[1])
            rec["speed"] = hostspeed.factor(before, hostspeed.calibrate())
            rec["seconds"] = rec["raw_seconds"] * rec["speed"]
            if err is None:
                err = wl.check(inputs, out)
            if err is None:
                rec["requests"], rec["layouts"], rec["units"] = wl.units(out)
            if traced:
                layers = op_layers(tracer, first)
                layers.update(wl.op_counts(out, tracer) if err is None else {})
                rec["layers"] = layers
            rec.update(wl.op_extra(inputs, out) if err is None else {})
            rec["ok"] = err is None
            if err is not None:
                errors.append(f"op {i}: {err}")
            ops.append(rec)
            i += 1
    finally:
        hygiene = wl.close()
    errors.extend(hygiene.get("errors", []))
    return {
        "setups": setups,
        "setups_raw": setups_raw,
        "ops": ops,
        "errors": errors,
        "hygiene": hygiene,
        "tracer": tracer,
        "peak_rss_mb": hygiene.get("peak_rss_mb", own_peak_rss_mb()),
    }


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, outcome: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts behind them."""
    ops = outcome["ops"]
    good = [o for o in ops if o["ok"]]
    hygiene = outcome["hygiene"]
    attempted = len(ops) + hygiene.get("attempted", 0)
    failed = len(ops) - len(good) + hygiene.get("failed", 0)
    if good:
        times = [o["seconds"] for o in good]
        p50 = median(times)
        tail_v, tail_p, n = tail(times)
    else:  # every op failed: report zeros, which stay valid JSON
        p50, tail_v, tail_p, n = 0.0, 0.0, "none", 0
    per_op_requests = sum(o["requests"] for o in good) / max(1, len(good))
    metrics = {
        "setup_s": median(outcome["setups"]),
        "op_p50_ms": p50 * 1000.0,
        "op_tail_ms": tail_v * 1000.0,
        "requests_per_s": per_op_requests / p50 if p50 else 0.0,
        "layouts_per_s": wl.layouts_per_s(good, p50),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted if attempted else 0.0,
        "layout_units": wl.layout_units(good),
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "op_samples": n,
        "tail_percentile": tail_p,
        "setup_samples_s": outcome["setups"],
        "setup_raw_samples_s": outcome["setups_raw"],
        "requests_per_op_mean": per_op_requests,
        "op_ms": [round(o["seconds"] * 1000.0, 1) for o in ops],
        "op_raw_ms": [round(o["raw_seconds"] * 1000.0, 1) for o in ops],
        "raw_op_p50_ms": median([o["raw_seconds"] for o in good] or [0.0]) * 1000.0,
        "host_speed_factor_median": median([o["speed"] for o in ops] or [1.0]),
    }
    if any("cache_hit" in o for o in good):
        facts["repeat_share_measured"] = sum(
            o["cache_hit"] for o in good
        ) / len(good)
    return metrics, facts


def per_layer(wl, outcome: dict) -> dict:
    """Per-layer metrics: mean per traced op of each layer's self time
    or count, plus ratios and the tracing overhead."""
    ops = [o for o in outcome["ops"] if o["ok"]]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    out = {name: 0.0 for name in spec.PER_LAYER}
    for o in traced:
        for name, value in o["layers"].items():
            if name in out:
                out[name] += value / len(traced)
    hits = sum(o.get("registry", (0, 0))[0] for o in traced)
    misses = sum(o.get("registry", (0, 0))[1] for o in traced)
    out["core.registry_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if traced and plain:
        out["trace_overhead_ratio"] = median(
            [o["seconds"] for o in traced]
        ) / median([o["seconds"] for o in plain])
    out.update(wl.layer_overrides(ops, outcome))
    unknown = sorted(set(out) - set(spec.PER_LAYER))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    return out
