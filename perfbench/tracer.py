"""Span tracing from outside the program, by wrapping public entry points.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers and restores the originals on :meth:`Tracer.restore`. Each
wrapped call is a span; spans nest through a stack, so a span's *self*
time is its duration minus the time its child spans cover. Span names
read ``"<layer>:<what>"`` and :meth:`Tracer.layer_self` sums self time
per layer.

In the simulator, :meth:`Tracer.sim_observer` plugs into
``Simulator.instrument``: every dispatched event becomes a parent span
named after the layer that owns its callback, and the event core's own
time is what ``Simulator.run`` spent outside all dispatches.

Spans are kept in memory (up to ``span_limit``) and written out when
the run ends; per-name totals are exact however many spans were kept.

A wrapper costs its caller a little time outside the span it records.
:meth:`Tracer.calibrate` measures that cost once, and every span's self
time has it subtracted once per direct child, so a parent is not
charged for its children's wrappers.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

_MISSING = object()
_MARK = "__perfbench_wrapped__"

#: Module prefix -> layer, first match wins.
LAYER_OF_MODULE = (
    ("repro.sim.link", "links"),
    ("repro.sim.queues", "links"),
    ("repro.sim.node", "links"),
    ("repro.sim", "sim"),
    ("repro.transport", "transport"),
    ("repro.core", "qa"),
    ("repro.server", "session"),
    ("repro.media", "playout"),
    ("repro.telemetry", "telemetry"),
    ("repro.service.protocol", "wire"),
    ("repro.service.pacing", "pacer"),
    ("repro.service", "loop"),
    ("repro.lint", "lint"),
)


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return "other"


def is_wrapped(obj: Any) -> bool:
    func = getattr(obj, "__func__", obj)
    return bool(getattr(func, _MARK, False))


class Tracer:
    """Timing wrappers with self-time accounting and a bounded span log."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_limit: int = 20_000) -> None:
        self.clock = clock
        self.span_limit = span_limit
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        #: Free-form counters bumped by ``observe`` callbacks.
        self.counts: Counter[str] = Counter()
        #: Heap depth after each dispatched simulator event.
        self.heap_depths: Counter[int] = Counter()
        #: Time the simulator observer itself spent (tracing overhead).
        self.observer_s = 0.0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        #: Caller-side seconds per wrapped call (see :meth:`calibrate`).
        self.child_overhead = 0.0

    # ------------------------------------------------------------ spans

    def _close(self, name: str, frame: list, start: float,
               end: float) -> None:
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += (duration - frame[0]
                                 - frame[2] * self.child_overhead)
        stack = self._stack
        if stack:
            stack[-1][0] += duration
            stack[-1][2] += 1
        if len(self.spans) < self.span_limit:
            parent = stack[-1][1] if stack else None
            self.spans.append((frame[1], parent, name, start, end))
        else:
            self.spans_dropped += 1

    def _open(self) -> list:
        self._next_id += 1
        frame = [0.0, self._next_id, 0]
        self._stack.append(frame)
        return frame

    def timed(self, name: str, fn: Callable[..., Any],
              observe: Optional[Callable[[Any], Any]] = None,
              ) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name``.

        ``observe(result)`` (when given) sees each return value; its
        return value replaces the result only when it is not ``None``,
        which is how hook factories hand back timed hooks.
        """
        clock = self.clock
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(name, frame, start, end)
            if observe is not None:
                replaced = observe(result)
                if replaced is not None:
                    return replaced
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> float:
        """Measure :attr:`child_overhead`: what one wrapped call costs
        its caller beyond the duration its own span records."""
        probe = Tracer(self.clock, span_limit=0)

        def noop() -> None:
            return None

        wrapped = probe.timed("probe", noop)
        clock = self.clock
        best = float("inf")
        for _ in range(rounds):
            recorded = probe.total["probe"]
            t0 = clock()
            for _ in range(calls):
                wrapped()
            t1 = clock()
            for _ in range(calls):
                noop()
            t2 = clock()
            inner = probe.total["probe"] - recorded
            best = min(best, ((t1 - t0) - (t2 - t1) - inner) / calls)
        self.child_overhead = max(0.0, best)
        return self.child_overhead

    # ---------------------------------------------------------- patching

    def patch(self, owner: Any, attr: str, name: str,
              observe: Optional[Callable[[Any], Any]] = None) -> None:
        """Replace ``owner.attr`` (class or module) with a timed wrapper."""
        original = vars(owner).get(attr, _MISSING)
        raw = getattr(owner, attr) if original is _MISSING else original
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.timed(name, raw.__func__,
                                                observe))
        else:
            wrapped = self.timed(name, raw, observe)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def hook_factory(self, name: str) -> Callable[[Any], Any]:
        """``observe`` for a factory: time the hook it returns."""
        def observe(hook: Any) -> Any:
            return self.timed(name, hook) if callable(hook) else None
        return observe

    # --------------------------------------------------------- simulator

    def sim_observer(self) -> tuple[Callable[[], float],
                                    Callable[[Any, float, int], None]]:
        """``(timer, record)`` for ``Simulator.instrument``.

        The engine calls ``timer`` right before and right after each
        dispatch, then ``record``; the first call opens the dispatch's
        parent span so wrapped calls inside it nest under it.
        """
        clock = self.clock
        stack = self._stack
        layers: dict[Any, str] = {}
        pending: list = []

        def timer() -> float:
            now = clock()
            if pending:
                stack.pop()
                pending.append(now)
            else:
                pending.append(self._open())
                pending.append(now)
            return now

        def record(callback: Any, seconds: float, depth: int) -> None:
            began = clock()
            frame, start, end = pending
            pending.clear()
            func = getattr(callback, "__func__", callback)
            layer = layers.get(func)
            if layer is None:
                layer = layers[func] = layer_of_module(
                    getattr(func, "__module__", None)) + ":dispatch"
            self._close(layer, frame, start, end)
            self.heap_depths[depth] += 1
            self.observer_s += clock() - began

        return timer, record

    # ----------------------------------------------------------- reports

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span whose name starts ``layer:``."""
        prefix = layer + ":"
        return sum(v for k, v in self.self_time.items()
                   if k.startswith(prefix))

    def dispatch_total(self) -> float:
        return sum(v for k, v in self.total.items()
                   if k.endswith(":dispatch"))
