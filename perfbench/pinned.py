"""The pinned build: the program as it was at the pinned commit.

This machine's speed drifts by tens of percent over tens of seconds
(other tenants share its cores), far more than any bound worth gating
on. So the benchmark's CPU metric is *relative*: each operation runs
interleaved, at a fine grain, with the same operation on a pinned copy
of the program, and the metric is the ratio of the two CPU times. Both
sides see the same machine at the same moment, so the drift cancels;
the ratio is 1.0 at the pinned commit and falls as the program gets
faster.

The pinned copy is ``src/repro`` from ``lint_tree.tar.gz`` (the frozen
tree the lint workload also reads), renamed to the package
``repro_pinned`` by rewriting its import statements, so both copies load
side by side in one process without sharing any state.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import os
import re
import shutil
import sys
import tarfile
from pathlib import Path
from types import ModuleType
from typing import Iterator

from perfbench.harness import WORK_DIR

ARCHIVE = Path(__file__).resolve().parent / "lint_tree.tar.gz"
PACKAGE = "repro_pinned"

_IMPORT = re.compile(r"^(\s*)(from|import) repro(?=[.\s])", re.MULTILINE)


def materialize(dest: Path, archive: Path = ARCHIVE) -> Path:
    """Extract the pinned ``repro`` into ``dest/repro_pinned``.

    Only import statements are rewritten: string literals keep naming
    ``repro`` modules, so the pinned analyzer judges the frozen tree
    exactly as the live one does.
    """
    shutil.rmtree(dest, ignore_errors=True)
    with tarfile.open(archive) as tar:
        members = [m for m in tar.getmembers()
                   if m.name.startswith("src/repro/")]
        tar.extractall(dest / "tmp", members=members, filter="data")
    package = dest / PACKAGE
    (dest / "tmp" / "src" / "repro").rename(package)
    shutil.rmtree(dest / "tmp")
    for path in package.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        path.write_text(_IMPORT.sub(rf"\1\2 {PACKAGE}", source),
                        encoding="utf-8")
    return dest


def activate(dest: Path) -> None:
    """Make ``repro_pinned`` importable from ``dest`` and only from there."""
    if str(dest) not in sys.path:
        sys.path.insert(0, str(dest))
    package = importlib.import_module(PACKAGE)
    if dest.resolve() not in Path(package.__file__).resolve().parents:
        raise RuntimeError(f"{PACKAGE} imported from {package.__file__}")


def load(module: str, pinned: bool) -> ModuleType:
    """``repro.<module>`` from the live tree or the pinned copy."""
    return importlib.import_module(
        f"{PACKAGE if pinned else 'repro'}.{module}")


def directory(tag: str) -> Path:
    """Where :func:`prepare` puts the pinned copy of run ``tag``."""
    return WORK_DIR / f"pinned-{tag}"


def prepare(tag: str) -> Path:
    """Extract and activate a pinned copy for one run; returns its dir."""
    dest = directory(tag)
    materialize(dest)
    activate(dest)
    return dest


@contextlib.contextmanager
def side_by_side() -> Iterator[None]:
    """Conditions for a fair live/pinned comparison in one process.

    The process is held on one CPU, so both sides see the same core's
    neighbours, and the cyclic garbage collector is paused (after a full
    collection), because a collection triggered by one side would also
    walk, and be charged for, the other side's objects.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()
        os.sched_setaffinity(0, cpus)
