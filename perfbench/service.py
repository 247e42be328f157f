"""The ``service-loopback`` workload: the real UDP service on loopback.

Each round starts a fresh server process (``service_server.py``; the
set-up is the time until it announces its port), streams
:data:`SESSIONS` concurrent fixed-length sessions to it from a
:class:`~repro.service.client.LoadFleet` in this process, then stops
the server and collects what it measured. Keeping the server in its own
process keeps its CPU time apart from the load generator's.

The server paces DATA on its own AIMD schedule capped at ``max_rate``
and the clients ACK every DATA, so one operation is one DATA/ACK round
trip. In a paired round a second server process serves the pinned
build to a second fleet streaming at the same time, on the same CPU;
``relative_cpu`` is the live server's CPU per round trip over the
pinned one's.

Checked on every round: every session completes, none stalls, no task
leaks on either side, no frame is malformed, and the decision recorder
saw decisions. A round that fails any check counts all its sessions as
failed; a server that does not start fails them all.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

from perfbench import layers
from perfbench import pinned as pinned_copy
from perfbench.harness import WorkloadResult, check_observation, variant_of
from perfbench.pinned import load
from perfbench.tracer import Tracer, is_wrapped

SESSIONS = 2
#: Bare start-and-stop pairs of servers per untraced run, for the
#: median ``setup_s``.
SETUPS = 2
#: Seconds the pinned server took to start on the machine this benchmark
#: was built on; ``setup_s`` is the live server's start-up time scaled
#: by it over the pinned server's start-up measured alongside.
SETUP_REFERENCE_S = 0.40
#: Streaming time of each session, seconds.
SESSION_SECONDS = 7.0
STARTUP_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0

SERVER = Path(__file__).resolve().parent / "service_server.py"


def server_command() -> list[str]:
    return [sys.executable, str(SERVER)]


@dataclass
class Round:
    """One round: the server processes and the fleets that streamed."""

    #: Seconds from spawning each server until it announced its port.
    setup_s: float = 0.0
    pinned_setup_s: float = 0.0
    client_cpu_s: float = 0.0
    #: Live sessions, and the pinned ones when the round was paired.
    results: list[Any] = field(default_factory=list)
    pinned_results: list[Any] = field(default_factory=list)
    #: The live and the pinned server's reports.
    server: dict[str, Any] = field(default_factory=dict)
    pinned_server: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: The client-side tracer of a traced round.
    tracer: Optional[Tracer] = None

    @property
    def cpu_per_rt(self) -> float:
        return self.server["cpu_s"] / self.server["acks"]

    @property
    def relative_cpu(self) -> float:
        pinned = self.pinned_server
        return self.cpu_per_rt / (pinned["cpu_s"] / pinned["acks"])


@contextlib.contextmanager
def _off_server_cpu() -> Iterator[None]:
    """Keep the load generator off the server's CPU while it streams.

    The server holds itself on the lowest-numbered CPU it may use
    (``service_server.py``); the generator moves to the highest one.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class _Server:
    """One server process: start it, stop it, read its report."""

    def __init__(self, argv: list[str]) -> None:
        self.argv = argv
        self.proc: Optional[asyncio.subprocess.Process] = None

    async def start(self) -> Optional[int]:
        """The port it serves on, or None when it did not start."""
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      STARTUP_TIMEOUT)
        try:
            return int(json.loads(line)["port"])
        except (ValueError, KeyError, TypeError):
            return None

    async def stop(self) -> dict[str, Any]:
        proc = self.proc
        assert proc is not None
        proc.stdin.write(b"stop\n")
        await proc.stdin.drain()
        line = await asyncio.wait_for(proc.stdout.readline(), STOP_TIMEOUT)
        await asyncio.wait_for(proc.wait(), STOP_TIMEOUT)
        return json.loads(line)

    async def kill(self) -> None:
        proc = self.proc
        if proc is not None:
            if proc.returncode is None:
                proc.kill()
            await proc.wait()


async def _round(variant: int, trace: bool, command: Sequence[str],
                 pinned_dir: Optional[Path] = None, live_first: bool = True,
                 stream: bool = True) -> Round:
    """Start the server(s), stream fleets from them, stop them.

    With ``pinned_dir`` a second server process serves the pinned copy
    and a second fleet streams from it at the same time; ``live_first``
    says whose server starts and stops first and whose fleet is
    scheduled first, and rounds alternate it. ``stream=False`` only
    starts and stops the servers (a set-up sample). Only the live side
    is traced.
    """
    out = Round()
    base = [*command, "--trace", "0"]
    live_argv = [*command, "--trace", str(int(trace))]
    servers = {}
    if pinned_dir is not None:
        copy = ["--pinned-copy", str(pinned_dir)]
        servers["pinned"] = _Server([*base, *copy, "--serve", "pinned"])
        live_argv += copy
    servers["live"] = _Server(live_argv)
    if live_first:
        servers = dict(reversed(servers.items()))
    try:
        ports = {}
        for side, server in servers.items():  # one at a time
            t0 = time.perf_counter()
            ports[side] = await server.start()
            if side == "live":
                out.setup_s = time.perf_counter() - t0
            else:
                out.pinned_setup_s = time.perf_counter() - t0
        if None in ports.values():
            out.error = "server_start"
            return out
        if stream:
            await _stream(out, variant, trace, ports)
        reports = {side: await server.stop()
                   for side, server in servers.items()}
        out.server = reports["live"]
        out.pinned_server = reports.get("pinned", {})
    except (asyncio.TimeoutError, ValueError, KeyError,
            ConnectionError) as exc:
        out.error = out.error or f"server_io:{type(exc).__name__}"
    finally:
        for server in servers.values():
            await server.kill()
    current = asyncio.current_task()
    if any(t is not current for t in asyncio.all_tasks()):
        out.error = out.error or "client_leaked_tasks"
    if out.error is None and stream and pinned_dir is not None and not (
            out.pinned_server.get("acks", 0) > 0
            and all(r.ok for r in out.pinned_results)):
        out.error = "pinned_failed"
    return out


async def _stream(out: Round, variant: int, trace: bool,
                  ports: dict[str, int]) -> None:
    """One fleet per server, all streaming at once, scheduled in the
    order of ``ports``."""
    fleets = {
        side: load("service.client", side == "pinned").LoadFleet(
            "127.0.0.1", port, sessions=SESSIONS,
            duration=SESSION_SECONDS, seed=variant,
            spread=random.Random(variant).uniform(0.0, 0.5))
        for side, port in ports.items()}
    order = list(ports)
    if trace:
        out.tracer = Tracer()
        out.tracer.calibrate()
        layers.install_service_client(out.tracer)
    try:
        with _off_server_cpu():
            c0 = time.process_time()
            results = await asyncio.gather(*(fleets[side].run()
                                             for side in order))
            out.client_cpu_s = time.process_time() - c0
    finally:
        if out.tracer is not None:
            out.tracer.restore()
    by_side = dict(zip(order, results))
    out.results = by_side["live"]
    out.pinned_results = by_side.get("pinned", [])


def _check(result: WorkloadResult, rnd: Round) -> None:
    """Count the round's sessions; name every failed check."""
    name = "service-loopback"
    result.attempted += SESSIONS
    problems = [rnd.error] if rnd.error else []
    for session in rnd.results:
        if not session.ok:
            problems.append(f"session_failed.{session.label}")
        elif session.playout.stall_count:
            problems.append(f"stalls.{session.label}")
    if rnd.server:
        if rnd.server["leaked_tasks"]:
            problems.append("leaked_tasks")
        if rnd.server["counters"]["malformed_frames"]:
            problems.append("malformed_frames")
        if rnd.server["decisions"] <= 0:
            problems.append("no_decisions")
        if rnd.server["acks"] <= 0:
            problems.append("no_round_trips")
    elif not problems:
        problems.append("no_server_report")
    if problems:
        result.failed += SESSIONS
        for problem in problems:
            result.mismatch(f"{name}.{problem}")


def _qoe(rnd: Round) -> dict[str, float]:
    from repro.service.client import metrics_from_summary
    from repro.service.results import fleet_result

    flows = fleet_result(rnd.results, SESSION_SECONDS).flows
    means = [f.mean_layers() or 0.0 for f in flows]
    changes = [metrics_from_summary(r.server_summary).quality_changes
               * 60.0 / SESSION_SECONDS for r in rnd.results]
    stalls = [r.playout.stall_time for r in rnd.results]
    return {"mean_layers": sum(means) / len(means),
            "quality_changes_per_min": sum(changes) / len(changes),
            "stall_s": sum(stalls) / len(stalls)}


def _fingerprint(rnd: Round) -> str:
    """What must hold on every round, traced or not."""
    return json.dumps({
        "completed": sum(1 for r in rnd.results if r.ok),
        "stalled": sum(1 for r in rnd.results if r.playout.stall_count),
        "leaked": bool(rnd.server.get("leaked_tasks")),
        "malformed": rnd.server.get("counters", {}).get(
            "malformed_frames"),
        "decided": rnd.server.get("decisions", 0) > 0,
    }, sort_keys=True)


def run(seed: int, seconds: float, trace: bool,
        command: Optional[Sequence[str]] = None) -> WorkloadResult:
    from repro.core.adapter import QualityAdapter
    from repro.service import protocol

    result = WorkloadResult("service-loopback", seed)
    if is_wrapped(QualityAdapter.pick_layer) or is_wrapped(protocol.decode):
        raise RuntimeError("a tracing wrapper is still installed")
    pinned_dir = pinned_copy.prepare(str(os.getpid()))
    try:
        asyncio.run(_run(result, variant_of(seed), seconds, trace,
                         list(command or server_command()), pinned_dir))
    finally:
        shutil.rmtree(pinned_dir, ignore_errors=True)
    check_observation(result)
    return result


async def _run(result: WorkloadResult, variant: int, seconds: float,
               trace: bool, command: list[str], pinned_dir: Path) -> None:
    """Untraced: a few bare set-ups of both servers, then pairs of
    paired rounds until the time is up. Traced: one paired round
    untraced, then one traced, in the same order.
    """
    started = time.perf_counter()

    async def one(**kwargs: Any) -> Optional[Round]:
        stream = kwargs.get("stream", True)
        rnd = await _round(variant, command=command, **kwargs)
        if rnd.error or stream:
            _check(result, rnd)
        if rnd.error == "server_start":
            return None
        if stream:
            (result.traced_fingerprints if kwargs["trace"]
             else result.untraced_fingerprints).add(_fingerprint(rnd))
        return rnd

    if trace:
        plain = await one(trace=False, pinned_dir=pinned_dir)
        traced = await one(trace=True, pinned_dir=pinned_dir)
        if plain and traced and not (plain.error or traced.error):
            result.add("relative_cpu", plain.relative_cpu)
            _named(result, [plain])
            _traced_metrics(result, plain, traced)
        return
    for index in range(SETUPS):
        rnd = await one(trace=False, stream=False, pinned_dir=pinned_dir,
                        live_first=index % 2 == 0)
        if rnd is None:
            return
        if rnd.error is None:
            result.add("setup_s", SETUP_REFERENCE_S * rnd.setup_s
                       / rnd.pinned_setup_s)
    # Rounds come in pairs, one of each order: whichever server starts
    # and streams first pays a few percent more CPU per round trip.
    rounds: list[Round] = []
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        pair = []
        for live_first in (True, False):
            rnd = await one(trace=False, pinned_dir=pinned_dir,
                            live_first=live_first)
            if rnd is None:
                return
            pair.append(rnd)
        last = time.perf_counter() - t0
        rounds += pair
        if not any(r.error for r in pair):
            result.add("relative_cpu", math.sqrt(pair[0].relative_cpu
                                                 * pair[1].relative_cpu))
            for rnd in pair:
                result.add("peak_rss_mb", rnd.server["peak_rss_mb"])
    measured = [r for r in rounds if r.error is None]
    if measured:
        _named(result, measured)


def _named(result: WorkloadResult, rounds: list[Round]) -> None:
    """The service's own numbers by name: medians of the live sides."""
    quality = [_qoe(r) for r in rounds]

    def mid(values: list[float]) -> float:
        return statistics.median(values)

    result.named.update({
        "server_cpu_us_per_rt": (1e6 * mid([r.cpu_per_rt for r in rounds]),
                                 "CPU-us (raw, this machine)"),
        "feedback_p50_ms": (
            1e3 * mid([r.server["feedback_p50"] for r in rounds]), "ms"),
        "mean_layers": (mid([q["mean_layers"] for q in quality]),
                        "layers"),
        "stall_s": (mid([q["stall_s"] for q in quality]), "s per session"),
        "quality_changes_per_min": (
            mid([q["quality_changes_per_min"] for q in quality]), "1/min"),
    })


def _traced_metrics(result: WorkloadResult, plain: Round,
                    traced: Round) -> None:
    """Per-layer metrics: self times from the traced round, loop and
    telemetry ratios from the untraced one."""
    server = traced.server["layers"]
    client = traced.tracer
    assert client is not None
    wire = [layers.wire_pacer_metrics(client), server]
    decodes = sum(w["wire_decode_calls"] for w in wire)
    encodes = sum(w["wire_encode_calls"] for w in wire)
    sends, skips = server["pacer_sends"], server["pacer_skips"]
    playout = "playout:PlayoutBuffer.on_packet"
    acks = plain.server["acks"]
    overhead = traced.relative_cpu / plain.relative_cpu - 1.0
    out = {k: v for k, v in server.items() if "." in k}
    out.update({
        "playout.on_packet_us": (1e6 * client.self_time[playout]
                                 / max(1, client.calls[playout])),
        "playout.calls": float(client.calls[playout]),
        "wire.decode_us": (1e6 * sum(w["wire_decode_s"] for w in wire)
                           / max(1, decodes)),
        "wire.encode_us": (1e6 * sum(w["wire_encode_s"] for w in wire)
                           / max(1, encodes)),
        "wire.frames": float(decodes),
        "wire.malformed": float(plain.server["counters"]
                                ["malformed_frames"]),
        "pacer.on_ack_us": (1e6 * server["pacer_on_ack_s"]
                            / max(1, server["pacer_on_ack_calls"])),
        "pacer.advance_us": (1e6 * server["pacer_advance_s"]
                             / max(1, server["pacer_advance_calls"])),
        "pacer.useful_send_ratio": sends / max(1, sends + skips),
        "pacer.backoffs": float(server["pacer_backoffs"]),
        "pacer.timeouts": float(server["pacer_timeouts"]),
        "loop.lag_p99_ms": 1e3 * plain.server["lag_p99"],
        "service.feedback_p99_ms": 1e3 * plain.server["feedback_p99"],
        "service.queue_drops": float(plain.server["counters"]
                                     ["queue_drops"]),
        "service.client_cpu_us_per_rt": (
            1e6 * plain.client_cpu_s
            / (acks + plain.pinned_server["acks"])),
        "telemetry.records_per_rt": plain.server["decisions"] / acks,
        "telemetry.spans_per_rt": plain.server["spans"] / acks,
        "telemetry.self_us_per_rt": (1e6 * server["telemetry_s"]
                                     / traced.server["acks"]),
        "qa.adds": sum(len(r.server_summary.get("adds", []))
                       for r in traced.results) / SESSIONS,
        "qa.drops": sum(len(r.server_summary.get("drops", []))
                        for r in traced.results) / SESSIONS,
        "error_rate": result.error_rate,
        "trace.overhead_cpu_ms_per_op": overhead * plain.cpu_per_rt * 1e3,
        "trace.overhead_pct": 100.0 * overhead,
    })
    out.update({k: v for k, (v, _unit) in result.named.items()})
    result.layers.update(out)
