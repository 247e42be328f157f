#!/usr/bin/env python3
"""The server process of the ``service-loopback`` workload.

Starts a :class:`~repro.service.server.StreamingService` on an ephemeral
loopback port with the decision recorder, the span recorder and a
:class:`~repro.service.sanitizer.LoopSanitizer` on, prints
``{"port": N}`` and serves until a line (or end of file) arrives on
standard input. It then shuts down and prints one JSON line of what it
measured: its CPU time between the two, round trips, feedback latency,
loop lag, leaked tasks, peak RSS and, with ``--trace 1``, the per-layer
self times of the server-side layers.

``--pinned-copy DIR`` loads the pinned copy of the program (see
:mod:`perfbench.pinned`) and ``--serve pinned`` serves it instead of the
live one. The two servers of a paired round both load both copies, so
that they hold the same objects; both run on the lowest-numbered CPU
the process may use, so that they see the same core; and both pause the
cyclic garbage collector while serving, because its cadence follows
how many objects a process holds, not the code under test.

Usage::

    python3 perfbench/service_server.py --trace 0 \\
        [--pinned-copy DIR [--serve pinned]]
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, layers  # noqa: E402
from perfbench.pinned import activate, load  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

#: The service's QA profile: 12.5 KB/s layers (larger ones stall at
#: start-up, before the AIMD ramp from srtt_init reaches the base layer).
QA = {"layer_rate": 12_500.0, "max_layers": 4, "packet_size": 400,
      "max_buffer_seconds": 4.0}


async def serve(trace: bool, pinned: bool) -> dict:
    config = load("core.config", pinned)
    sanitizers = load("service.sanitizer", pinned)
    server = load("service.server", pinned)

    tracer = None
    if trace:
        # CPU clock: the other server's turns on the shared core must
        # not land in the live spans.
        tracer = Tracer(clock=time.process_time)
        tracer.calibrate()
        layers.install_service_server(tracer)
    try:
        sanitizer = sanitizers.LoopSanitizer()
        await sanitizer.start()
        service = await server.StreamingService.start(server.ServiceConfig(
            qa=config.QAConfig(**QA), record_decisions=True,
            trace_spans=True))
        loop = asyncio.get_running_loop()
        stdin = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
        gc.collect()
        gc.disable()
        cpu0 = time.process_time()
        print(json.dumps({"port": service.port}), flush=True)
        await stdin.readline()
        cpu = time.process_time() - cpu0
        gc.enable()
        await service.close()
        await sanitizer.stop()
    finally:
        if tracer is not None:
            tracer.restore()
    lag = sanitizer.report()
    latencies = service.feedback_latencies
    report = {
        "cpu_s": cpu,
        "acks": service.counters["acks_received"],
        "counters": service.counters,
        "feedback_p50": harness.percentile(latencies, 50.0),
        "feedback_p99": harness.percentile(latencies, 99.0),
        "decisions": service.decisions_recorded,
        "spans": service.spans.total_recorded if service.spans else 0,
        "lag_p99": lag["lag_p99"],
        "leaked_tasks": lag["leaked_task_names"],
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    if tracer is not None:
        report["layers"] = {
            **layers.qa_session_metrics(tracer, cpu, 1.0),
            **layers.wire_pacer_metrics(tracer),
        }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pinned-copy", metavar="DIR", type=Path,
                        help="load the pinned copy extracted in DIR")
    parser.add_argument("--serve", choices=("live", "pinned"),
                        default="live")
    args = parser.parse_args()
    if args.serve == "pinned" and args.pinned_copy is None:
        parser.error("--serve pinned needs --pinned-copy")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    harness.bootstrap()
    if args.pinned_copy is not None:
        activate(args.pinned_copy)
    report = asyncio.run(serve(bool(args.trace), args.serve == "pinned"))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
