"""The engine dispatches in exactly the ``(time, priority, seq)`` order.

:class:`ReferenceScheduler` states that order plainly: a list kept
sorted by ``(time, priority, seq)``, with cancelled entries left in
place until they reach the front. Random operation sequences drive it
and a :class:`Simulator` side by side; after every operation both must
agree on what ran and in which order, the clock, the event count and
the number of pending entries (cancelled ones included, so lazy
cancellation keeps the heap exactly as deep). Times come from a small
set of exact binary fractions, so ties in time and priority are common.
"""

from __future__ import annotations

import bisect
from datetime import timedelta
from typing import Callable, Optional

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator


class _Entry:
    __slots__ = ("key", "fire", "cancelled")

    def __init__(self, key: tuple[float, int, int],
                 fire: Callable[[], None]) -> None:
        self.key = key
        self.fire = fire
        self.cancelled = False


class ReferenceScheduler:
    """The dispatch order the engine must keep, without a heap."""

    def __init__(self) -> None:
        self.pending: list[_Entry] = []
        self.now = 0.0
        self.processed = 0
        self.running = False
        self._seq = 0

    def schedule_at(self, time: float, priority: int,
                    fire: Callable[[], None]) -> _Entry:
        entry = _Entry((time, priority, self._seq), fire)
        self._seq += 1
        bisect.insort(self.pending, entry, key=lambda e: e.key)
        return entry

    def _drop_cancelled(self) -> None:
        while self.pending and self.pending[0].cancelled:
            del self.pending[0]

    def _dispatch(self) -> None:
        entry = self.pending.pop(0)
        self.now = entry.key[0]
        self.processed += 1
        entry.fire()

    def peek_time(self) -> Optional[float]:
        self._drop_cancelled()
        return self.pending[0].key[0] if self.pending else None

    def step(self) -> bool:
        self._drop_cancelled()
        if not self.pending:
            return False
        self._dispatch()
        return True

    def run(self, until: Optional[float]) -> None:
        self.running = True
        while self.running:
            self._drop_cancelled()
            if not self.pending:
                break
            if until is not None and self.pending[0].key[0] > until:
                break
            self._dispatch()
        if self.running and until is not None and self.now < until:
            self.now = until
        self.running = False

    def stop(self) -> None:
        self.running = False


#: What a dispatched event does besides logging its tag: whether it
#: stops the run, and the delay of one child event it schedules.
Behaviour = tuple[bool, Optional[float]]


class Harness:
    """Applies each operation to the engine and to the reference."""

    def __init__(self, observed: bool = False) -> None:
        self.sim = Simulator()
        if observed:  # run() then takes its observed twin loop
            self.sim.instrument(lambda: 0.0, lambda *_: None)
        self.ref = ReferenceScheduler()
        self.sim_log: list[str] = []
        self.ref_log: list[str] = []
        self.handles: list[tuple[Event, _Entry]] = []
        self._tags = 0

    def _tag(self) -> str:
        self._tags += 1
        return str(self._tags)

    def _sim_fire(self, tag: str, behaviour: Behaviour,
                  priority: int) -> Callable[[], None]:
        stop, child = behaviour

        def fire() -> None:
            self.sim_log.append(tag)
            if stop:
                self.sim.stop()
            if child is not None:
                # A bound method with an ``args`` payload, as links use.
                self.sim.schedule(child, self.sim_log.append,
                                  priority=priority, args=(tag + "c",))

        return fire

    def _ref_fire(self, tag: str, behaviour: Behaviour,
                  priority: int) -> Callable[[], None]:
        stop, child = behaviour
        ref = self.ref

        def fire() -> None:
            self.ref_log.append(tag)
            if stop:
                ref.stop()
            if child is not None:
                ref.schedule_at(ref.now + child, priority,
                                lambda: self.ref_log.append(tag + "c"))

        return fire

    def apply(self, op: tuple) -> None:
        sim, ref = self.sim, self.ref
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            _, delay, priority, behaviour, cancel = op
            tag = self._tag()
            fire = self._sim_fire(tag, behaviour, priority)
            if kind == "schedule":
                event = sim.schedule(delay, fire, priority=priority)
            else:
                event = sim.schedule_at(sim.now + delay, fire,
                                        priority=priority)
            entry = ref.schedule_at(ref.now + delay, priority,
                                    self._ref_fire(tag, behaviour, priority))
            self.handles.append((event, entry))
            if cancel:
                event.cancel()
                entry.cancelled = True
        elif kind == "schedule_many":
            _, items, priority = op
            tags = [self._tag() for _ in items]
            events = sim.schedule_many(
                [(delay, self._sim_fire(tag, behaviour, priority))
                 for tag, (delay, behaviour) in zip(tags, items)],
                priority=priority)
            for tag, event, (delay, behaviour) in zip(tags, events, items):
                entry = ref.schedule_at(
                    ref.now + delay, priority,
                    self._ref_fire(tag, behaviour, priority))
                self.handles.append((event, entry))
        elif kind == "cancel":
            # Counted from the newest handle, which is most likely pending.
            if self.handles:
                event, entry = self.handles[-1 - op[1] % len(self.handles)]
                event.cancel()
                entry.cancelled = True
        elif kind == "step":
            assert sim.step() == ref.step()
        elif kind == "peek":
            assert sim.peek_time() == ref.peek_time()
        elif kind == "run":
            offset = op[1]
            until = None if offset is None else sim.now + offset
            sim.run(until=until)
            ref.run(until)
        else:  # pragma: no cover - strategy and harness out of step
            raise AssertionError(f"unknown op {op!r}")

    def check(self) -> None:
        assert self.sim_log == self.ref_log
        assert self.sim.now == self.ref.now
        assert self.sim.events_processed == self.ref.processed
        assert len(self.sim._heap) == len(self.ref.pending)


times = st.sampled_from((0.0, 0.25, 0.5, 1.0))
priorities = st.sampled_from((0, 1, 2))
behaviours = st.tuples(st.sampled_from((False, False, False, True)),
                       st.one_of(st.none(), times))
ops = st.one_of(
    st.tuples(st.just("schedule"), times, priorities, behaviours,
              st.booleans()),
    st.tuples(st.just("schedule_at"), times, priorities, behaviours,
              st.booleans()),
    st.tuples(st.just("schedule_many"),
              st.lists(st.tuples(times, behaviours), max_size=8),
              priorities),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run"), st.one_of(times, st.none())),
)


class TestReferenceOrder:
    @pytest.mark.parametrize("observed", [False, True])
    @seed(20_261_017)
    @settings(max_examples=300, deadline=timedelta(milliseconds=500))
    @given(program=st.lists(ops, max_size=60))
    def test_dispatch_matches_reference(self, observed, program):
        harness = Harness(observed)
        for op in program:
            harness.apply(op)
            harness.check()
        harness.apply(("run", None))
        harness.check()

    def test_schedule_many_push_and_heapify_branches(self):
        """A small batch into a deep heap pushes; a large one heapifies."""
        harness = Harness()
        quiet: Behaviour = (False, None)
        harness.apply(("schedule_many", [(0.5, quiet)] * 8, 1))  # heapify
        harness.apply(("schedule_many", [(0.5, quiet)], 0))  # push
        harness.apply(("schedule_many", [(0.25, quiet)] * 3, 1))  # heapify
        harness.apply(("run", None))
        harness.check()
        assert harness.sim_log == ["10", "11", "12", "9", "1", "2", "3",
                                   "4", "5", "6", "7", "8"]
