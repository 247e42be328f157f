"""Shared plumbing: locating the source tree, statistics, the result line.

Every workload module returns a :class:`WorkloadResult`; :func:`emit`
turns it into the human-readable report and the one-line JSON result
the benchmark contract asks for (``correct``, ``attempted``, ``failed``,
``metrics``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (ignored by git).
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: Seeds map onto this many recorded input variants (``seed % VARIANTS``),
#: so every seed has a recorded behaviour fingerprint.
VARIANTS = 16

#: End-to-end metrics: (name, unit, better, bound, meaning). Every
#: workload reports every one of them; what one "operation" is depends on
#: the workload (its ``why`` in ``run.WORKLOADS`` says).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "time from workload start until the timed phase begins "
     "(median over the set-ups of one run)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak RSS of the process doing the work (the server process for "
     "service-loopback)"),
    ("relative_cpu", "ratio", "lower", 0.15,
     "CPU time per operation divided by the pinned build's CPU time for "
     "the same operation, run interleaved with it (median)"),
)


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def bootstrap(root: Path = ROOT) -> None:
    """Make ``repro`` importable from ``root/src`` and only from there."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no src/repro package under {root}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SourceMissing(f"repro imported from {origin}, not {src}")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_fingerprint() -> dict[str, object]:
    """Enough about the host to tell two machines' results apart."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "load_1min": round(os.getloadavg()[0], 2),
    }


@dataclass
class WorkloadResult:
    """What one workload run measured.

    ``samples`` holds the per-operation values of each end-to-end metric
    (reported as medians); ``named`` holds the workload-specific numbers
    the report prints by name, with their units; ``layers`` holds the
    per-layer metrics of a traced run; the two fingerprint sets hold the
    behaviour fingerprints of the untraced and the traced operations,
    which must be equal.
    """

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    untraced_fingerprints: set[str] = field(default_factory=set)
    traced_fingerprints: set[str] = field(default_factory=set)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def mismatch(self, name: str) -> None:
        if name not in self.mismatches:
            self.mismatches.append(name)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return (self.attempted > 0 and self.failed == 0
                and not self.mismatches)

    def end_to_end(self) -> dict[str, dict[str, object]]:
        return {
            name: {"value": median(self.samples.get(name, [])),
                   "unit": unit}
            for name, unit, _better, _bound, _meaning in END_TO_END
        }


def check_observation(result: WorkloadResult) -> None:
    """Tracing must not change behaviour: traced == untraced fingerprints."""
    if (result.traced_fingerprints
            and result.traced_fingerprints != result.untraced_fingerprints):
        result.mismatch("trace.fingerprint_changed")


def emit(result: WorkloadResult, trace: bool,
         out=sys.stdout) -> dict[str, object]:
    """Print the report and, last, the JSON result line; return the line."""
    from perfbench.layers import PER_LAYER

    print(f"workload {result.workload} seed={result.seed} "
          f"variant={variant_of(result.seed)} trace={int(trace)}",
          file=out)
    for name, unit, *_ in END_TO_END:
        values = result.samples.get(name, [])
        print(f"  {name:<28} {median(values):>14.6g} {unit:<8} "
              f"(median, n={len(values)})", file=out)
    print(f"  {'error_rate':<28} {result.error_rate:>14.6g} {'ratio':<8} "
          f"({result.failed}/{result.attempted} failed)", file=out)
    for name, (value, unit) in result.named.items():
        print(f"  {name:<28} {value:>14.6g} {unit}", file=out)
    for name in result.mismatches:
        print(f"  FINGERPRINT MISMATCH: {name}", file=out)
    if trace:
        metrics = {}
        for spec in PER_LAYER:
            value = float(result.layers.get(spec.name, 0.0))
            metrics[spec.name] = {"value": value, "unit": spec.unit}
            print(f"  {spec.name:<34} {value:>14.6g} {spec.unit:<10} "
                  f"-> {spec.moves}", file=out)
    else:
        metrics = result.end_to_end()
    line = {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}
    print(json.dumps(line), file=out, flush=True)
    return line


def write_spans(name: str, spans: list[tuple], dropped: int) -> Path:
    """Write a traced run's spans (JSON lines) under :data:`WORK_DIR`."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"spans-{name}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, layer, start, end in spans:
            handle.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": layer, "start": start,
                                     "end": end}) + "\n")
        if dropped:
            handle.write(json.dumps({"dropped": dropped}) + "\n")
    return path
