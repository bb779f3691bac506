"""In-memory span tracer and the wrappers that feed it.

A traced op records one span per call into a layer boundary: name,
start, end, parent, and the identifier of the op it belongs to.  Spans
come only from wrappers this module installs around *public* calls of
the library (functions, methods and classes exported by ``repro.*``);
the library itself is never edited.  Wrappers are installed for a
traced op and removed after it, so untraced ops run the plain code.

Self time of a span is its duration minus the part of its interval
that its child spans cover.  Per-layer metrics are sums of self time
(and of counts) per op.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "Patches", "self_times"]


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    label: str | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals (clipped to the parent's interval)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            elif hi > cur_end:
                cur_end = hi
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = (s.end - s.start) - covered
    return out


@dataclass
class Tracer:
    """Span store for one benchmark run (single-threaded)."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    op: int = -1
    fleet: object = None
    _stack: list[Span] = field(default_factory=list)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "op": s.op,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "label": s.label,
                        }
                    )
                    + "\n"
                )


def _bindings(obj) -> list[tuple[object, str]]:
    """Every ``repro.*`` module attribute bound to ``obj`` — so a
    function imported by name into several modules is wrapped wherever
    the library looks it up."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is obj:
                out.append((mod, attr))
    return out


class Patches:
    """A set of wrappers, installed around one traced op.

    ``add_function(obj, name, on_call)`` wraps a module-level function
    everywhere it is bound; ``add_method(cls, attr, name, on_call)``
    wraps a class attribute.  ``on_call(tracer, span, args, kwargs,
    result)`` may record counts or a label after the call returns.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.names: set[str] = set()
        self._targets: list[tuple[object, str, object, object]] = []

    def _wrap(self, original, name: str, on_call=None, generator=False):
        tracer = self.tracer
        self.names.add(name)
        if generator:
            # Time each step of an iterator separately, so the consumer's
            # work between steps is not billed to the producer.
            def gen_wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    span = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.end(span)
                        return
                    except BaseException:
                        tracer.end(span)
                        raise
                    tracer.end(span)
                    if on_call is not None:
                        on_call(tracer, span, args, kwargs, item)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_call is not None:
                on_call(tracer, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        # Cached functions keep their cache controls reachable, so
        # registry calls made while the wrapper is bound still work.
        for attr in ("cache_info", "cache_clear"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        return wrapper

    def add_function(self, func, name: str, on_call=None) -> None:
        wrapped = self._wrap(func, name, on_call)
        for mod, attr in _bindings(func):
            self._targets.append((mod, attr, func, wrapped))

    def add_method(
        self, cls, attr: str, name: str, on_call=None, generator=False
    ) -> None:
        original = cls.__dict__[attr]
        wrapped = self._wrap(original, name, on_call, generator)
        self._targets.append((cls, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._targets:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._targets):
            setattr(owner, attr, original)
