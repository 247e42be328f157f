"""Engine self-profiling: attach, record, detach, determinism."""

from __future__ import annotations

import pytest

from repro.scenario import QAFlowSpec, Scenario, ScenarioConfig
from repro.sim.engine import Simulator
from repro.sim.topology import DumbbellConfig
from repro.telemetry import MetricsRegistry, instrument_engine


def fake_timer():
    """A deterministic injected clock: each read advances 1 ms."""
    state = {"t": 0.0}

    def read() -> float:
        state["t"] += 0.001
        return state["t"]

    return read


def _noop() -> None:
    pass


class TestAttachDetach:
    def test_disabled_registry_attaches_nothing(self, sim):
        assert instrument_engine(
            sim, MetricsRegistry(enabled=False), fake_timer()) is None

    def test_handler_counters_and_timings(self, sim):
        registry = MetricsRegistry()
        instrument_engine(sim, registry, fake_timer())
        for i in range(5):
            sim.schedule(0.1 * i, _noop, priority=0)
        sim.run()
        calls = registry.counter(
            "engine_handler_calls_total", handler="_noop")
        assert calls.value == 5.0
        timings = registry.histogram(
            "engine_handler_seconds", handler="_noop")
        assert timings.count == 5
        # The fake timer advances 1 ms per read: every dispatch times
        # at exactly one tick.
        assert timings.total == pytest.approx(0.001 * 5)
        assert registry.histogram("engine_heap_depth").count == 5

    def test_collector_gauges_engine_state(self, sim):
        registry = MetricsRegistry()
        instrument_engine(sim, registry, fake_timer())
        sim.schedule(0.5, _noop, priority=0)
        sim.run(until=2.0)
        registry.collect()
        assert registry.gauge("engine_events_total").value == 1.0
        assert registry.gauge("engine_sim_time_seconds").value == 2.0

    def test_detach_restores_the_fast_path(self, sim):
        registry = MetricsRegistry()
        instrumentation = instrument_engine(sim, registry, fake_timer())
        sim.schedule(0.1, _noop, priority=0)
        sim.run(until=0.2)
        assert instrumentation is not None
        instrumentation.detach()
        sim.schedule(0.1, _noop, priority=0)
        sim.run(until=0.4)
        # Second event ran on the fast path: no new handler samples.
        calls = registry.counter(
            "engine_handler_calls_total", handler="_noop")
        assert calls.value == 1.0
        assert sim.events_processed == 2


class TestObservedLoopEquivalence:
    def test_same_schedule_same_outcome(self):
        """The observed loop must dispatch identically to the fast one."""

        def drive(sim: Simulator) -> list[tuple[float, int]]:
            log: list[tuple[float, int]] = []

            def tick(i: int) -> None:
                log.append((sim.now, i))
                if i < 10:
                    sim.schedule(0.1, tick, priority=1, args=(i + 1,))

            sim.schedule(0.0, tick, priority=1, args=(0,))
            sim.run(until=0.75)
            return log

        plain = Simulator()
        observed = Simulator()
        instrument_engine(observed, MetricsRegistry(), fake_timer())
        assert drive(plain) == drive(observed)
        assert plain.now == observed.now
        assert plain.events_processed == observed.events_processed

    def test_dumbbell_scenario_dispatches_identically(self, monkeypatch):
        """A packet-level dumbbell: same dispatches, same QA outcome."""
        # Keyed by the simulator itself, which keeps it alive: an id()
        # key could be reused by the second run's simulator.
        logs: dict[Simulator, list[tuple[float, str]]] = {}

        def logged(sim, callback):
            log = logs.setdefault(sim, [])
            name = getattr(callback, "__qualname__", type(callback).__name__)

            def dispatch(*args):
                log.append((sim.now, name))
                callback(*args)

            return dispatch

        schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
        schedule_many = Simulator.schedule_many
        monkeypatch.setattr(
            Simulator, "schedule",
            lambda sim, delay, callback, priority=0, args=(): schedule(
                sim, delay, logged(sim, callback), priority, args))
        monkeypatch.setattr(
            Simulator, "schedule_at",
            lambda sim, time, callback, priority=0, args=(): schedule_at(
                sim, time, logged(sim, callback), priority, args))
        monkeypatch.setattr(
            Simulator, "schedule_many",
            lambda sim, items, priority=0: schedule_many(
                sim, [(d, logged(sim, cb)) for d, cb in items], priority))

        def drive(observed: bool):
            scenario = Scenario(ScenarioConfig(
                flows=(QAFlowSpec(label="qa0"),
                       QAFlowSpec(label="qa1", start=0.3)),
                topology=DumbbellConfig(bottleneck_bandwidth=100_000.0,
                                        queue_capacity_packets=50),
                duration=8.0, seed=1, telemetry=False))
            if observed:
                instrument_engine(scenario.sim, MetricsRegistry(),
                                  fake_timer())
            result = scenario.run()
            summaries = [flow.session.metrics.summary()
                         for flow in result.flows]
            return (logs[scenario.sim], summaries, scenario.sim.now,
                    scenario.sim.events_processed)

        plain, observed = drive(False), drive(True)
        assert len(logs) == 2 and len(plain[0]) > 1_000
        assert plain == observed
