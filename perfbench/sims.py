"""The two packet-level simulator workloads.

``dumbbell-steady``: two paper-default QA flows share a 100 KB/s
dumbbell with a 50-packet queue. Each flow adds its layers early and
then spends the run on the filling path, so the QA decision dominates.

``contended-mix``: ``multiflow_fairness.build_scenario(n_qa=2,
n_tcp=8)``, 20 KB/s and 5 queue packets per flow. The QA flows add and
drop all run long, but the event core, links and TCP dominate the cost.

Both are closed, self-clocked simulations of :data:`DURATION` simulated
seconds; one operation is one simulated second. The seed picks one of
:data:`~perfbench.harness.VARIANTS` input variants (the second flow's
start offset, the scenario seed that draws TCP start times), and every
run is checked against the behaviour fingerprint recorded for its
variant. The first run of a scenario is the live code alone; every
later one advances the live and the pinned scenario (see
:mod:`perfbench.pinned`) in alternating slices, for ``relative_cpu``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import time
from typing import Any, Callable, Optional

from perfbench import layers
from perfbench import pinned as pinned_copy
from perfbench.harness import (WorkloadResult, check_observation,
                               median, peak_rss_mb, variant_of,
                               write_spans)
from perfbench.pinned import load, side_by_side
from perfbench.tracer import Tracer, is_wrapped

#: Simulated seconds per run of the scenario.
DURATION = 60.0
#: Simulated seconds each side runs before the other takes a turn.
SLICE = 0.5
#: Seconds the pinned build took to build each scenario on the machine
#: this benchmark was built on; ``setup_s`` is the live build time scaled
#: by it over the pinned build time measured alongside.
SETUP_REFERENCE_S = {"dumbbell-steady": 0.0007, "contended-mix": 0.0009}


def build_dumbbell(variant: int, pinned: bool = False) -> Any:
    scenario = load("scenario", pinned)
    topology = load("sim.topology", pinned)
    offset = round(random.Random(variant).uniform(0.0, 1.0), 6)
    return scenario.Scenario(scenario.ScenarioConfig(
        flows=(scenario.QAFlowSpec(label="qa0"),
               scenario.QAFlowSpec(label="qa1", start=offset)),
        topology=topology.DumbbellConfig(bottleneck_bandwidth=100_000.0,
                                         queue_capacity_packets=50),
        duration=DURATION,
        seed=variant,
        telemetry=False,
    ))


def build_contended(variant: int, pinned: bool = False) -> Any:
    experiment = load("experiments.multiflow_fairness", pinned)
    return experiment.build_scenario(n_qa=2, n_tcp=8, duration=DURATION,
                                     seed=variant, telemetry=False)


BUILDERS: dict[str, Callable[..., Any]] = {
    "dumbbell-steady": build_dumbbell,
    "contended-mix": build_contended,
}


def fingerprint(scenario: Any, outcome: Any) -> str:
    """sha256 over each flow's QA summary and delivered bytes, plus the
    number of events the simulator processed."""
    flows = [{
        "label": flow.label,
        "delivered": flow.bytes_delivered,
        "summary": (flow.session.metrics.summary()
                    if flow.session is not None else None),
    } for flow in outcome.flows]
    blob = json.dumps({"flows": flows,
                       "events": scenario.sim.events_processed},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def qoe(outcome: Any) -> dict[str, float]:
    """Per-QA-flow means of layers, stall time and quality changes.

    Mean layers is time-averaged over the flow's lifetime from its
    add/drop timeline (the tracer is off in these scenarios).
    """
    means, stalls, changes, adds, drops = [], [], [], [], []
    for flow in outcome.flows:
        if flow.session is None:
            continue
        metrics = flow.session.metrics
        steps = sorted([(t, layer + 1) for t, layer in metrics.adds]
                       + [(e.time, e.layer) for e in metrics.drops])
        level, last, area = 1, flow.start, 0.0
        for when, new_level in steps:
            area += level * (when - last)
            level, last = new_level, when
        area += level * (outcome.duration - last)
        lifetime = outcome.duration - flow.start
        means.append(area / lifetime)
        stalls.append(flow.session.playout.stall_time)
        changes.append(metrics.quality_changes * 60.0 / lifetime)
        adds.append(len(metrics.adds))
        drops.append(len(metrics.drops))
    n = len(means)
    return {
        "mean_layers": sum(means) / n,
        "stall_s": sum(stalls) / n,
        "quality_changes_per_min": sum(changes) / n,
        "qa.adds": sum(adds) / n,
        "qa.drops": sum(drops) / n,
    }


def _transport_counts(scenario: Any) -> tuple[int, int]:
    backoffs = losses = 0
    for flow in scenario.flows:
        stats = flow.source.stats
        backoffs += stats.backoffs
        losses += stats.packets_lost
    return backoffs, losses


def run_paired(live: Any, pinned: Any,
               tracer: Optional[Tracer] = None) -> tuple[float, float, float]:
    """Advance both scenarios to :data:`DURATION` in alternating slices.

    Returns (live CPU s, pinned CPU s, live wall s). ``tracer`` (when
    given) observes the live simulator's dispatches.
    """
    if tracer is not None:
        live.sim.instrument(*tracer.sim_observer())
    cpu_live = cpu_pinned = wall = 0.0
    now = 0.0
    try:
        with side_by_side():
            while now < DURATION:
                now = min(DURATION, now + SLICE)
                w0 = time.perf_counter()
                c0 = time.process_time()
                live.sim.run(until=now)
                c1 = time.process_time()
                wall += time.perf_counter() - w0
                pinned.sim.run(until=now)
                c2 = time.process_time()
                cpu_live += c1 - c0
                cpu_pinned += c2 - c1
    finally:
        live.sim.uninstrument()
    return cpu_live, cpu_pinned, wall


def run(name: str, seed: int, seconds: float, trace: bool,
        recorded: dict[str, str]) -> WorkloadResult:
    from repro.core.adapter import QualityAdapter
    from repro.sim.link import Link

    build = BUILDERS[name]
    variant = variant_of(seed)
    expected = recorded.get(str(variant))
    result = WorkloadResult(name, seed)
    started = time.perf_counter()

    def check(scenario: Any, outcome: Any, traced: bool) -> None:
        result.attempted += 1
        digest = fingerprint(scenario, outcome)
        if digest != expected:
            result.failed += 1
            result.mismatch(f"{name}.fingerprint.variant{variant}")
        (result.traced_fingerprints if traced
         else result.untraced_fingerprints).add(digest)

    # No wrapper may be left over from a traced run.
    if is_wrapped(QualityAdapter.pick_layer) or is_wrapped(Link.send):
        raise RuntimeError("a tracing wrapper is still installed")
    # Warm-up, live code alone: loads what the scenario imports lazily
    # and is where peak RSS is read, before the pinned copy is loaded.
    scenario = build(variant)
    outcome = scenario.run()
    check(scenario, outcome, False)
    result.add("peak_rss_mb", peak_rss_mb())
    quality = qoe(outcome)
    workdir = pinned_copy.prepare(str(os.getpid()))
    try:
        build(variant, pinned=True)
        cpu_ms: list[float] = []

        def rep(tracer: Optional[Tracer] = None) -> tuple[Any, float, float]:
            gc.collect()
            # Built live, pinned, pinned, live: the set-up is scaled like
            # the CPU time, by the pinned build's measured alongside, in
            # an order that cancels what going first or second costs.
            built, took = {}, {False: 0.0, True: 0.0}
            for pinned in (False, True, True, False):
                t0 = time.perf_counter()
                built[pinned] = build(variant, pinned=pinned)
                took[pinned] += time.perf_counter() - t0
            live, pinned = built[False], built[True]
            cpu, cpu_pinned, wall = run_paired(live, pinned, tracer)
            check(live, live.result(), tracer is not None)
            if tracer is None:
                result.add("setup_s", SETUP_REFERENCE_S[name]
                           * took[False] / took[True])
                result.add("relative_cpu", cpu / cpu_pinned)
                cpu_ms.append(1e3 * cpu / DURATION)
            return live, cpu / cpu_pinned, wall

        budget = seconds / 2 if trace else seconds
        last = 0.0
        while (not cpu_ms
               or time.perf_counter() - started + last <= budget):
            t0 = time.perf_counter()
            rep()
            last = time.perf_counter() - t0
        result.named.update({
            "cpu_ms_per_op": (median(cpu_ms), "ms (raw, this machine)"),
            "sim_s_per_cpu_s": (1e3 / median(cpu_ms),
                                "sim-s/CPU-s (raw)"),
            "mean_layers": (quality["mean_layers"], "layers"),
            "stall_s": (quality["stall_s"], "s per session"),
            "quality_changes_per_min": (
                quality["quality_changes_per_min"], "1/min"),
        })
        if trace:
            _traced(result, rep, quality, started, seconds, last)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_observation(result)
    return result


def _traced(result: WorkloadResult, rep: Callable[..., Any],
            quality: dict[str, float], started: float, seconds: float,
            last: float) -> None:
    """Live reps with every layer wrapped, still paired with the pinned
    copy, so the tracing overhead is a ratio of ratios."""
    tracer = Tracer()
    tracer.calibrate()
    layers.install_sim(tracer)
    run_s = 0.0
    events = reps = backoffs = losses = 0
    relative: list[float] = []
    try:
        while not relative or (time.perf_counter() - started + last
                               <= seconds):
            t0 = time.perf_counter()
            scenario, ratio, wall = rep(tracer)
            last = time.perf_counter() - t0
            relative.append(ratio)
            run_s += wall
            events += scenario.sim.events_processed
            reps += 1
            b, lost = _transport_counts(scenario)
            backoffs += b
            losses += lost
    finally:
        tracer.restore()
    untraced = median(result.samples["relative_cpu"])
    traced = median(relative)
    out = layers.sim_metrics(tracer, run_s, events, reps)
    out.update({
        "transport.backoffs": backoffs / reps,
        "transport.losses": losses / reps,
        "qa.adds": quality["qa.adds"],
        "qa.drops": quality["qa.drops"],
        "error_rate": result.error_rate,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
        "trace.overhead_cpu_ms_per_op": (
            (traced / untraced - 1.0) * result.named["cpu_ms_per_op"][0]),
    })
    out.update({k: v for k, (v, _unit) in result.named.items()})
    result.layers.update(out)
    write_spans(f"{result.workload}-{result.seed}", tracer.spans,
                tracer.spans_dropped)
