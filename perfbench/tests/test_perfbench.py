"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness

harness.bootstrap()

from perfbench import layers, lintload, run, service, sims  # noqa: E402
from perfbench.tracer import Tracer, is_wrapped  # noqa: E402

ROOT = harness.ROOT
RECORDED = json.loads(run.FINGERPRINTS.read_text())


def test_benchmark_json_matches_the_code():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest()


def test_perturbed_seed_is_a_fingerprint_mismatch_not_a_crash(monkeypatch):
    name = "contended-mix"
    honest = sims.BUILDERS[name]
    # Inputs drawn from the next seed, judged against this seed's record.
    monkeypatch.setitem(sims.BUILDERS, name,
                        lambda variant, pinned=False:
                        honest((variant + 1) % harness.VARIANTS, pinned))
    result = sims.run(name, seed=3, seconds=0.1, trace=False,
                      recorded=RECORDED[name])
    assert not result.correct
    assert result.failed == result.attempted >= 1
    assert result.mismatches == [f"{name}.fingerprint.variant3"]
    out = io.StringIO()
    line = harness.emit(result, trace=False, out=out)
    assert "FINGERPRINT MISMATCH: contended-mix.fingerprint.variant3" in (
        out.getvalue())
    assert json.loads(out.getvalue().splitlines()[-1]) == line
    assert line["correct"] is False


def test_unperturbed_seed_matches_its_record():
    name = "contended-mix"
    result = sims.run(name, seed=3, seconds=0.1, trace=False,
                      recorded=RECORDED[name])
    assert result.correct, result.mismatches
    assert 0.5 < result.samples["relative_cpu"][0] < 2.0


def test_server_that_fails_to_start_gives_error_rate_one():
    result = service.run(seed=1, seconds=0.1, trace=False,
                         command=[sys.executable, "-c",
                                  "import sys; sys.exit(3)"])
    assert result.attempted >= 1
    assert result.error_rate == 1.0
    assert "service-loopback.server_start" in result.mismatches
    assert not result.correct


def _fake_checkout(root: Path, n_src_files: int) -> Path:
    """A checkout whose live src/ differs, with the same frozen archive."""
    bench = root / "perfbench"
    bench.mkdir(parents=True)
    shutil.copy(lintload.ARCHIVE, bench / lintload.ARCHIVE.name)
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    for index in range(n_src_files):
        (package / f"mod{index}.py").write_text("x = 1\n")
    return bench / lintload.ARCHIVE.name


def test_lint_input_has_the_same_file_count_on_two_commits(tmp_path):
    older = _fake_checkout(tmp_path / "older", n_src_files=200)
    newer = _fake_checkout(tmp_path / "newer", n_src_files=3)
    files_older = lintload.materialize(tmp_path / "tree-older", older)
    files_newer = lintload.materialize(tmp_path / "tree-newer", newer)
    assert files_older == files_newer
    assert len(files_older) == RECORDED["lint-tree"]["files"]


def test_tracer_restores_every_original():
    from repro.core.adapter import QualityAdapter
    from repro.lint.flow.project import Project
    from repro.service import protocol
    from repro.sim.link import Link

    targets = [(QualityAdapter, "pick_layer"), (Link, "send"),
               (Project, "build"), (protocol, "decode")]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = Tracer()
    for install in (layers.install_sim, layers.install_service_server,
                    layers.install_service_client, layers.install_lint):
        install(tracer)
    assert all(is_wrapped(getattr(owner, attr)) for owner, attr in targets)
    tracer.restore()
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert not any(is_wrapped(getattr(owner, attr))
                   for owner, attr in targets)


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def child():
        return 1

    def parent():
        return timed_child() + 1

    timed_child = tracer.timed("b:child", child)
    assert tracer.timed("a:parent", parent)() == 2
    # parent spans clock 0..3, child 1..2
    assert tracer.total["a:parent"] == 3.0
    assert tracer.self_time["a:parent"] == 2.0
    assert tracer.self_time["b:child"] == 1.0
    assert tracer.spans[0][1] == tracer.spans[1][0]  # child -> parent


def test_without_source_the_benchmark_exits_nonzero_silently(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lint-tree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_workload_has_a_why_within_limits(name):
    why = run.WORKLOADS[name][2]
    assert 0 < len(why) <= 200 and "\n" not in why
