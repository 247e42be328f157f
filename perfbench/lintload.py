"""The ``lint-tree`` workload: a full cold ``repro-lint`` of a frozen tree.

The input is ``lint_tree.tar.gz``: the ``.py`` files of ``src/`` and
``tests/lint/fixtures/`` exactly as they were at :data:`PINNED_COMMIT`.
Freezing it keeps the work constant, so a change that shrinks ``src/``
cannot look like a faster analyzer. Each operation extracts the archive
into a fresh directory (the set-up) and runs
``repro.lint.cli.lint_paths`` over every file with all default rules
and no cache, in an order drawn from the seed. The first operation runs
the live analyzer alone; the rest run it side by side with the pinned
analyzer (see :mod:`perfbench.pinned`) for ``relative_cpu``.

The fingerprint: the frozen ``src/`` has no findings, and the digest of
the fixture findings (file, line, column, code) equals the recorded one,
so an analyzer that gets faster by dropping findings fails.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import tarfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from perfbench import layers
from perfbench import pinned as pinned_copy
from perfbench.harness import (WORK_DIR, WorkloadResult, check_observation,
                               peak_rss_mb, write_spans)
from perfbench.pinned import ARCHIVE, load, side_by_side
from perfbench.tracer import Tracer, is_wrapped

#: The commit the archive (:data:`perfbench.pinned.ARCHIVE`) was cut from (``git archive`` of ``src`` and
#: ``tests/lint/fixtures``, ``.py`` files only).
PINNED_COMMIT = "eb7fc349b7542ec8a11862945519e683f039b129"
LINT_ROOTS = ("src", "tests/lint/fixtures")
#: Seconds one extraction of the frozen tree took on the machine this
#: benchmark was built on (see ``tree()`` in :func:`run`).
SETUP_REFERENCE_S = 0.085
#: Seconds to wait for a paired lint before giving up on it.
PAIRED_TIMEOUT = 120.0
#: Modules the analyzer imports lazily; imported before a paired lint so
#: that import time is not charged to either side.
LAZY_MODULES = ("lint.cli", "lint.flow.project", "lint.flow.callgraph",
                "lint.flow.summaries", "lint.flow.asyncgraph",
                "lint.flow.dataflow")


def materialize(dest: Path, archive: Path = ARCHIVE) -> list[str]:
    """Extract the frozen tree into ``dest``; its ``.py`` files, sorted.

    Only the archive decides what is linted: whatever else the checkout
    holds (a larger or smaller ``src/``) is never read.
    """
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return sorted(
        path.relative_to(dest).as_posix()
        for root in LINT_ROOTS
        for path in (dest / root).rglob("*.py"))


def findings_digest(violations: Sequence[Any]) -> str:
    rows = sorted((v.path, v.line, v.col, v.code) for v in violations)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def lint_once(dest: Path, files: list[str]) -> tuple[list[Any], int, float,
                                                     float]:
    """One cold lint of ``files`` (relative to ``dest``), timed."""
    from repro.lint.cli import lint_paths

    cwd = os.getcwd()
    os.chdir(dest)
    try:
        c0, w0 = time.process_time(), time.perf_counter()
        violations, checked = lint_paths(files)
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
    finally:
        os.chdir(cwd)
    return violations, checked, cpu, wall


def lint_paired(dest: Path, files: list[str]) -> dict[str, Any]:
    """The live and the pinned analyzer on ``files`` at once.

    Each runs in its own thread; the interpreter hands the lock between
    them every few milliseconds, so both see the same machine and each
    thread's CPU clock times its own analyzer (see
    :func:`~perfbench.pinned.side_by_side`). Returns, per side,
    ``(violations, files checked, thread CPU seconds)``.
    """
    out: dict[str, Any] = {}
    for module in LAZY_MODULES:
        load(module, False)
        load(module, True)

    def work(side: str) -> None:
        lint_paths = load("lint.cli", side == "pinned").lint_paths
        try:
            c0 = time.thread_time()
            violations, checked = lint_paths(files)
            out[side] = (violations, checked, time.thread_time() - c0)
        except Exception as exc:  # reported by the caller, by name
            out[side] = exc

    cwd = os.getcwd()
    os.chdir(dest)
    try:
        with side_by_side():
            threads = [threading.Thread(target=work, args=(side,),
                                        daemon=True)
                       for side in ("live", "pinned")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(PAIRED_TIMEOUT)
    finally:
        os.chdir(cwd)
    for side in ("live", "pinned"):
        if not isinstance(out.get(side), tuple):
            raise RuntimeError(f"{side} lint failed: {out.get(side)!r}")
    return out


def check(result: WorkloadResult, violations: list[Any], checked: int,
          recorded: dict[str, Any]) -> bool:
    """Record every fingerprint mismatch by name; True when all match."""
    ok = True
    if checked != recorded["files"]:
        result.mismatch("lint-tree.files")
        ok = False
    if any(v.path.startswith("src/") for v in violations):
        result.mismatch("lint-tree.src_findings")
        ok = False
    fixtures = [v for v in violations if not v.path.startswith("src/")]
    if findings_digest(fixtures) != recorded["fixture_digest"]:
        result.mismatch("lint-tree.fixture_digest")
        ok = False
    return ok


def run(seed: int, seconds: float, trace: bool,
        recorded: dict[str, Any]) -> WorkloadResult:
    from repro.lint.flow.project import Project

    result = WorkloadResult("lint-tree", seed)
    started = time.perf_counter()
    order = random.Random(seed)
    scratch = WORK_DIR / f"lint-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)

    def tree() -> tuple[Path, list[str]]:
        """A fresh copy of the frozen tree; the set-up of one operation.

        Reference copies are extracted alongside (tree, reference,
        reference, tree) and the set-up is scaled by them the way
        ``relative_cpu`` is. No program code runs here, so ``setup_s``
        only guards the extraction itself.
        """
        gc.collect()
        took = {"tree": 0.0, "reference": 0.0}
        copies = []
        for copy in ("tree", "reference", "reference", "tree"):
            dest = scratch / f"{copy}{result.attempted}.{len(copies)}"
            t0 = time.perf_counter()
            files = materialize(dest)
            took[copy] += time.perf_counter() - t0
            copies.append(dest)
        for spare in copies[:-1]:
            shutil.rmtree(spare)
        result.add("setup_s", SETUP_REFERENCE_S * took["tree"]
                   / took["reference"])
        order.shuffle(files)
        return dest, files

    def judge(violations: list[Any], checked: int, traced: bool) -> None:
        result.attempted += 1
        if not check(result, violations, checked, recorded):
            result.failed += 1
        (result.traced_fingerprints if traced
         else result.untraced_fingerprints).add(findings_digest(violations))

    def paired(traced: bool = False) -> tuple[list[Any], int, float,
                                               float]:
        """One operation side by side: (violations, files checked, live
        CPU seconds, live over pinned CPU)."""
        dest, files = tree()
        sides = lint_paired(dest, files)
        violations, checked, cpu = sides["live"]
        judge(violations, checked, traced)
        return violations, checked, cpu, cpu / sides["pinned"][2]

    if is_wrapped(Project.build):
        raise RuntimeError("a tracing wrapper is still installed")
    try:
        if trace:
            pinned_copy.prepare(str(os.getpid()))
            _traced(result, paired)
        else:
            _untraced(result, tree, judge, paired, started, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(pinned_copy.directory(str(os.getpid())),
                      ignore_errors=True)
    check_observation(result)
    return result


def _untraced(result: WorkloadResult, tree: Callable[..., Any],
              judge: Callable[..., None], paired: Callable[..., Any],
              started: float, seconds: float) -> None:
    """The live analyzer alone first, for peak RSS and the raw CPU time;
    then side by side with the pinned one until the time is up."""
    dest, files = tree()
    violations, checked, cpu, wall = lint_once(dest, files)
    judge(violations, checked, False)
    result.add("peak_rss_mb", peak_rss_mb())
    result.named["lint_cpu_s"] = (cpu, "CPU-s (raw, this machine)")
    pinned_copy.prepare(str(os.getpid()))
    last = wall
    while (not result.samples.get("relative_cpu")
           or time.perf_counter() - started + last <= seconds):
        t0 = time.perf_counter()
        result.add("relative_cpu", paired()[3])
        last = time.perf_counter() - t0


def _traced(result: WorkloadResult, paired: Callable[..., Any]) -> None:
    """A paired lint untraced, then one with every stage and rule of the
    live analyzer wrapped, so the overhead is a ratio of ratios.

    Spans are timed on the live thread's CPU clock: the pinned thread
    runs in between, and wall time would charge its turns to the live
    spans.
    """
    violations, checked, cpu, untraced = paired()
    tracer = Tracer(clock=time.thread_time)
    tracer.calibrate()
    layers.install_lint(tracer)
    try:
        traced = paired(traced=True)[3]
    finally:
        tracer.restore()
    overhead = traced / untraced - 1.0
    out = layers.lint_metrics(tracer, 1)
    out.update({
        "lint.files": float(checked),
        "lint.findings": float(len(violations)),
        "lint_cpu_s": cpu,
        "error_rate": result.error_rate,
        "trace.overhead_cpu_ms_per_op": 1e3 * overhead * cpu,
        "trace.overhead_pct": 100.0 * overhead,
    })
    result.layers.update(out)
    write_spans(f"lint-tree-{result.seed}", tracer.spans,
                tracer.spans_dropped)
