#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dumbbell-steady --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends the first half of the run untraced and the second
half with timing wrappers around every layer's entry points, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced). Each workload prints a report, then, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The exit status is 0 when every run was correct, 1 when a behaviour
fingerprint or a check failed, and 2 when there is nothing to benchmark
(no ``src/repro`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

#: name -> (module, held-out seed reserved for confirming later claims,
#: why the workload exists). Claims are made on seed 1 and confirmed on
#: the held-out seed.
WORKLOADS = {
    "dumbbell-steady": (
        "sims", 9,
        "2 paper-default QA flows, 100 KB/s dumbbell, 50-packet queue: the "
        "QA filling path dominates, so repro.core work moves it most. "
        "Op: 1 simulated second"),
    "contended-mix": (
        "sims", 9,
        "2 QA + 8 TCP flows at 20 KB/s and 5 queue packets per flow: event "
        "core, links and TCP dominate; QA adds/drops run but cost little. "
        "Op: 1 simulated second"),
    "service-loopback": (
        "service", 9,
        "real UDP service in its own process, 2 loopback sessions: the only "
        "load on wire codec, pacer, asyncio loop and telemetry. "
        "Op: 1 DATA/ACK round trip"),
    "lint-tree": (
        "lintload", 9,
        "cold repro-lint of src/ plus lint fixtures frozen at a pinned "
        "commit: the only workload that runs repro.lint. Op: 1 full lint"),
}

RUN_SECONDS = 20

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 recorded: dict) -> harness.WorkloadResult:
    module_name = WORKLOADS[name][0]
    if module_name == "sims":
        from perfbench import sims
        return sims.run(name, seed, seconds, trace, recorded[name])
    if module_name == "service":
        from perfbench import service
        return service.run(seed, seconds, trace)
    from perfbench import lintload
    return lintload.run(seed, seconds, trace, recorded[name])


def manifest() -> dict:
    """The ``BENCHMARK.json`` this benchmark implements."""
    from perfbench.layers import PER_LAYER

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_module, _seed, why) in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in
                       harness.END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.bootstrap()
    except harness.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    recorded = json.loads(FINGERPRINTS.read_text())
    print("machine " + json.dumps(harness.machine_fingerprint()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        print(f"held-out seed for {name}: {WORKLOADS[name][1]}")
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), recorded)
        ok = harness.emit(result, bool(args.trace))["correct"] and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
