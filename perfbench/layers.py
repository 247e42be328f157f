"""The per-layer metrics, what each should move, and where to hook them.

:data:`PER_LAYER` is the single list of per-layer metrics: a traced run
reports every one of them (0 where the workload never enters the
layer), and ``BENCHMARK.json`` lists the same names and units. ``moves``
names the end-to-end metric the layer metric should move and on which
workload; a change to one layer is expected to move that pairing and
leave the workload built to bypass the layer unchanged.

The ``install_*`` functions wrap each layer's public entry points with a
:class:`~perfbench.tracer.Tracer`. They must run before the objects
under test are built, because constructors capture bound methods (the
simulated RAP source keeps ``SessionCore.pick_payload``, for one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from perfbench.tracer import Tracer


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


_SIMS = "relative_cpu on contended-mix most, then dumbbell-steady"
_QA = ("relative_cpu on dumbbell-steady most, then service-loopback; "
       "least on contended-mix")
_SESSION = "relative_cpu on service-loopback, then dumbbell-steady"
_SERVICE = "relative_cpu on service-loopback only"
_LATENCY = "feedback_p50_ms and relative_cpu on service-loopback only"
_LINT = "relative_cpu on lint-tree only"
_QOE = "the user-visible quality (QA workloads)"

PER_LAYER: tuple[LayerMetric, ...] = (
    # event core (repro.sim.engine)
    LayerMetric("sim.events", "count", "lower", _SIMS),
    LayerMetric("sim.dispatch_us_per_event", "us", "lower", _SIMS),
    LayerMetric("sim.heap_depth_p50", "events", "lower", _SIMS),
    # links and queues (repro.sim.link, .queues, .node)
    LayerMetric("links.packets", "count", "lower", _SIMS),
    LayerMetric("links.self_us_per_packet", "us", "lower", _SIMS),
    LayerMetric("links.queue_drops", "count", "lower", _SIMS),
    # transport (repro.transport)
    LayerMetric("transport.self_us_per_packet", "us", "lower",
                "relative_cpu on both sims, contended-mix through TCP"),
    LayerMetric("transport.backoffs", "count", "lower", _SIMS),
    LayerMetric("transport.losses", "count", "lower", _SIMS),
    # QA decision (repro.core)
    LayerMetric("qa.pick_calls", "count", "lower", _QA),
    LayerMetric("qa.pick_us", "us", "lower", _QA),
    LayerMetric("qa.tick_us", "us", "lower", _QA),
    LayerMetric("qa.self_share", "ratio", "lower", _QA),
    LayerMetric("qa.state_seq_builds_per_pick", "ratio", "lower", _QA),
    LayerMetric("qa.adds", "count", "lower", _QOE),
    LayerMetric("qa.drops", "count", "lower", _QOE),
    # session core (repro.server.core)
    LayerMetric("session.pick_payload_us", "us", "lower", _SESSION),
    LayerMetric("session.on_ack_us", "us", "lower", _SESSION),
    LayerMetric("session.on_loss_us", "us", "lower", _SESSION),
    LayerMetric("session.tick_us", "us", "lower", _SESSION),
    # playout (repro.media)
    LayerMetric("playout.on_packet_us", "us", "lower",
                "client cost on service-loopback"),
    LayerMetric("playout.calls", "count", "lower",
                "client cost on service-loopback"),
    # wire codec (repro.service.protocol)
    LayerMetric("wire.decode_us", "us", "lower", _LATENCY),
    LayerMetric("wire.encode_us", "us", "lower", _LATENCY),
    LayerMetric("wire.frames", "count", "lower", _LATENCY),
    LayerMetric("wire.malformed", "count", "lower", _LATENCY),
    # pacer (repro.service.pacing)
    LayerMetric("pacer.on_ack_us", "us", "lower", _SERVICE),
    LayerMetric("pacer.advance_us", "us", "lower", _SERVICE),
    LayerMetric("pacer.useful_send_ratio", "ratio", "higher", _SERVICE),
    LayerMetric("pacer.backoffs", "count", "lower", _SERVICE),
    LayerMetric("pacer.timeouts", "count", "lower", _SERVICE),
    # asyncio loop (repro.service.server, .client)
    LayerMetric("loop.lag_p99_ms", "ms", "lower", _LATENCY),
    LayerMetric("service.feedback_p99_ms", "ms", "lower", _LATENCY),
    LayerMetric("service.queue_drops", "count", "lower", _LATENCY),
    LayerMetric("service.client_cpu_us_per_rt", "us", "lower",
                "client cost on service-loopback"),
    # telemetry (repro.telemetry)
    LayerMetric("telemetry.records_per_rt", "ratio", "lower", _SERVICE),
    LayerMetric("telemetry.spans_per_rt", "ratio", "lower", _SERVICE),
    LayerMetric("telemetry.self_us_per_rt", "us", "lower", _SERVICE),
    # analyzer (repro.lint)
    LayerMetric("lint.files", "count", "lower", _LINT),
    LayerMetric("lint.findings", "count", "lower", _LINT),
    LayerMetric("lint.project_build_s", "s", "lower", _LINT),
    LayerMetric("lint.call_graph_s", "s", "lower", _LINT),
    LayerMetric("lint.summaries_s", "s", "lower", _LINT),
    LayerMetric("lint.asyncgraph_s", "s", "lower", _LINT),
    *(LayerMetric(f"lint.rule_s.RL{code:03d}", "s", "lower", _LINT)
      for code in range(1, 17)),
    # the workload-specific end-to-end numbers, by their own names, from
    # the untraced part of the traced run; raw times, so they drift with
    # the machine where relative_cpu does not
    LayerMetric("sim_s_per_cpu_s", "sim-s/CPU-s", "higher",
                "relative_cpu on the sims, inversely"),
    LayerMetric("server_cpu_us_per_rt", "us", "lower",
                "relative_cpu on service-loopback"),
    LayerMetric("feedback_p50_ms", "ms", "lower",
                "the service's feedback delay"),
    LayerMetric("lint_cpu_s", "s", "lower", "relative_cpu on lint-tree"),
    LayerMetric("mean_layers", "layers", "higher", _QOE),
    LayerMetric("stall_s", "s", "lower", _QOE),
    LayerMetric("quality_changes_per_min", "1/min", "lower", _QOE),
    LayerMetric("error_rate", "ratio", "lower", "correctness"),
    # what tracing costs: traced minus untraced
    LayerMetric("trace.overhead_cpu_ms_per_op", "ms", "lower",
                "nothing: the cost of observing"),
    LayerMetric("trace.overhead_pct", "%", "lower",
                "nothing: the cost of observing"),
)


def _per_call_us(tracer: Tracer, name: str) -> float:
    calls = tracer.calls[name]
    return 1e6 * tracer.self_time[name] / calls if calls else 0.0


# ------------------------------------------------------------- install


def install_qa_and_session(tracer: Tracer) -> None:
    """QualityAdapter, StateSequence, SessionCore and telemetry sinks."""
    from repro.core.adapter import QualityAdapter
    from repro.core.states import StateSequence
    from repro.server.core import SessionCore
    from repro.telemetry.recorder import FlightRecorder
    from repro.telemetry.tracing import SpanRecorder

    for method in ("pick_layer", "tick", "on_backoff", "on_delivered",
                   "on_lost"):
        tracer.patch(QualityAdapter, method,
                     f"qa:QualityAdapter.{method}")
    tracer.patch(StateSequence, "__init__", "qa:StateSequence.__init__")
    for method in ("pick_payload", "on_ack", "on_loss", "on_backoff",
                   "tick"):
        tracer.patch(SessionCore, method, f"session:SessionCore.{method}")
    tracer.patch(FlightRecorder, "hook", "telemetry:FlightRecorder.hook",
                 observe=tracer.hook_factory("telemetry:record"))
    tracer.patch(SpanRecorder, "span_hook",
                 "telemetry:SpanRecorder.span_hook",
                 observe=tracer.hook_factory("telemetry:span"))


def install_sim(tracer: Tracer) -> None:
    """Every simulated layer: links, queues, nodes, transports, playout."""
    from repro.media.playout import PlayoutBuffer
    from repro.sim.link import Link
    from repro.sim.node import Host, Router
    from repro.sim.queues import DropTailQueue
    from repro.transport.rap import RapSink, RapSource
    from repro.transport.tcp import TcpSink, TcpSource

    install_qa_and_session(tracer)

    def count_drop(accepted: Any) -> None:
        if accepted is False:
            tracer.counts["queue_drops"] += 1

    tracer.patch(Link, "send", "links:Link.send")
    tracer.patch(DropTailQueue, "enqueue", "links:DropTailQueue.enqueue",
                 observe=count_drop)
    tracer.patch(DropTailQueue, "dequeue", "links:DropTailQueue.dequeue")
    tracer.patch(Host, "send", "links:Host.send")
    tracer.patch(Host, "receive", "links:Host.receive")
    tracer.patch(Router, "receive", "links:Router.receive")
    for cls in (RapSource, RapSink, TcpSource, TcpSink):
        tracer.patch(cls, "receive", f"transport:{cls.__name__}.receive")
    tracer.patch(PlayoutBuffer, "on_packet", "playout:PlayoutBuffer.on_packet")
    tracer.patch(PlayoutBuffer, "advance", "playout:PlayoutBuffer.advance")


def _install_wire(tracer: Tracer, names: tuple[str, ...]) -> None:
    from repro.service import protocol

    tracer.patch(protocol, "decode", "wire:decode")
    for name in names:
        tracer.patch(protocol, name, f"wire:{name}")


def install_service_server(tracer: Tracer) -> None:
    """The server process: QA, session core, pacer, wire, loop entry."""
    from repro.service.pacing import RapPacer
    from repro.service.server import StreamingService

    install_qa_and_session(tracer)

    def count_pacer(actions: Any) -> None:
        if actions.backoff_rate is not None:
            tracer.counts["pacer_backoffs"] += 1
        if actions.timed_out:
            tracer.counts["pacer_timeouts"] += 1

    for method in ("on_ack", "advance"):
        tracer.patch(RapPacer, method, f"pacer:RapPacer.{method}",
                     observe=count_pacer)
    for method in ("register_send", "skip_send", "send_due",
                   "next_deadline"):
        tracer.patch(RapPacer, method, f"pacer:RapPacer.{method}")
    _install_wire(tracer, ("encode_data", "encode_welcome",
                           "encode_fin_ack", "encode_reject"))
    tracer.patch(StreamingService, "datagram_received",
                 "loop:StreamingService.datagram_received")


def install_service_client(tracer: Tracer) -> None:
    """The load-generating process: playout, wire, loop entry."""
    from repro.media.playout import PlayoutBuffer
    from repro.service.client import LoadClient

    tracer.patch(PlayoutBuffer, "on_packet", "playout:PlayoutBuffer.on_packet")
    tracer.patch(PlayoutBuffer, "advance", "playout:PlayoutBuffer.advance")
    _install_wire(tracer, ("encode_hello", "encode_ack", "encode_fin"))
    tracer.patch(LoadClient, "datagram_received",
                 "loop:LoadClient.datagram_received")


def install_lint(tracer: Tracer) -> None:
    """Project stages and every default rule's check entry points."""
    from repro.lint.flow.project import Project
    from repro.lint.rules import default_rules

    tracer.patch(Project, "build", "lint:Project.build")
    for stage in ("call_graph", "summaries", "asyncgraph"):
        tracer.patch(Project, stage, f"lint:Project.{stage}")
    for rule in default_rules():
        cls = type(rule)
        for method in ("check", "check_project"):
            if method in vars(cls):
                tracer.patch(cls, method, f"lint:rule.{rule.code}")


# ------------------------------------------------------------- metrics


def qa_session_metrics(tracer: Tracer, busy_s: float,
                       per: float) -> dict[str, float]:
    """QA and session-core metrics; counts are divided by ``per``."""
    picks = tracer.calls["qa:QualityAdapter.pick_layer"]
    builds = tracer.calls["qa:StateSequence.__init__"]
    return {
        "qa.pick_calls": picks / per,
        "qa.pick_us": _per_call_us(tracer, "qa:QualityAdapter.pick_layer"),
        "qa.tick_us": _per_call_us(tracer, "qa:QualityAdapter.tick"),
        "qa.self_share": (tracer.layer_self("qa") / busy_s
                          if busy_s > 0 else 0.0),
        "qa.state_seq_builds_per_pick": builds / picks if picks else 0.0,
        "session.pick_payload_us": _per_call_us(
            tracer, "session:SessionCore.pick_payload"),
        "session.on_ack_us": _per_call_us(tracer,
                                          "session:SessionCore.on_ack"),
        "session.on_loss_us": _per_call_us(tracer,
                                           "session:SessionCore.on_loss"),
        "session.tick_us": _per_call_us(tracer, "session:SessionCore.tick"),
        "playout.on_packet_us": _per_call_us(
            tracer, "playout:PlayoutBuffer.on_packet"),
        "playout.calls": tracer.calls["playout:PlayoutBuffer.on_packet"]
        / per,
    }


def sim_metrics(tracer: Tracer, run_s: float, events: int,
                reps: int) -> dict[str, float]:
    """Per-layer metrics of ``reps`` traced simulator runs.

    ``run_s`` is the time spent inside ``Simulator.run``; the event
    core's self time is what remains after every dispatch and the
    observer's own bookkeeping.
    """
    core_s = run_s - tracer.dispatch_total() - tracer.observer_s
    packets = tracer.calls["links:Link.send"]
    emitted = tracer.calls["links:Host.send"]
    depths = sorted(tracer.heap_depths.elements())
    out = {
        "sim.events": events / reps,
        "sim.dispatch_us_per_event": 1e6 * core_s / events if events else 0.0,
        "sim.heap_depth_p50": float(depths[len(depths) // 2]) if depths
        else 0.0,
        "links.packets": packets / reps,
        "links.self_us_per_packet": (1e6 * tracer.layer_self("links")
                                     / packets if packets else 0.0),
        "links.queue_drops": tracer.counts["queue_drops"] / reps,
        "transport.self_us_per_packet": (
            1e6 * tracer.layer_self("transport") / emitted
            if emitted else 0.0),
    }
    out.update(qa_session_metrics(tracer, run_s, reps))
    return out


def wire_pacer_metrics(tracer: Tracer) -> dict[str, float]:
    """Wire codec and pacer metrics of one process's tracer."""
    sends = tracer.calls["pacer:RapPacer.register_send"]
    skips = tracer.calls["pacer:RapPacer.skip_send"]
    encodes = [k for k in tracer.calls if k.startswith("wire:encode_")]
    encode_calls = sum(tracer.calls[k] for k in encodes)
    encode_s = sum(tracer.self_time[k] for k in encodes)
    return {
        "wire_decode_calls": tracer.calls["wire:decode"],
        "wire_decode_s": tracer.self_time["wire:decode"],
        "wire_encode_calls": encode_calls,
        "wire_encode_s": encode_s,
        "pacer_on_ack_calls": tracer.calls["pacer:RapPacer.on_ack"],
        "pacer_on_ack_s": tracer.self_time["pacer:RapPacer.on_ack"],
        "pacer_advance_calls": tracer.calls["pacer:RapPacer.advance"],
        "pacer_advance_s": tracer.self_time["pacer:RapPacer.advance"],
        "pacer_sends": sends,
        "pacer_skips": skips,
        "pacer_backoffs": tracer.counts["pacer_backoffs"],
        "pacer_timeouts": tracer.counts["pacer_timeouts"],
        "telemetry_s": tracer.layer_self("telemetry"),
    }


def lint_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    out = {
        "lint.project_build_s": tracer.self_time["lint:Project.build"],
        "lint.call_graph_s": tracer.self_time["lint:Project.call_graph"],
        "lint.summaries_s": tracer.self_time["lint:Project.summaries"],
        "lint.asyncgraph_s": tracer.self_time["lint:Project.asyncgraph"],
    }
    for code in range(1, 17):
        out[f"lint.rule_s.RL{code:03d}"] = tracer.self_time[
            f"lint:rule.RL{code:03d}"]
    return {name: value / reps for name, value in out.items()}
