#!/usr/bin/env python3
"""Recompute ``fingerprints.json``: the behaviour every run is checked against.

Run from the repository root only when behaviour is *meant* to change
(the change then has to say so)::

    python3 perfbench/record_fingerprints.py

For each simulator workload it runs every input variant once and stores
the sha256 fingerprint; for ``lint-tree`` it stores the file count and
the digest of the fixture findings.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def main() -> int:
    harness.bootstrap()
    from perfbench import lintload, sims

    out: dict[str, dict] = {}
    for name, build in sims.BUILDERS.items():
        out[name] = {}
        for variant in range(harness.VARIANTS):
            scenario = build(variant)
            outcome = scenario.run()
            out[name][str(variant)] = sims.fingerprint(scenario, outcome)
            print(f"{name} variant {variant}: {out[name][str(variant)]}")
    dest = harness.WORK_DIR / "record-lint"
    shutil.rmtree(dest, ignore_errors=True)
    try:
        files = lintload.materialize(dest)
        violations, checked, _cpu, _wall = lintload.lint_once(dest, files)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    if any(v.path.startswith("src/") for v in violations):
        print("the frozen src/ has findings; refusing to record")
        return 1
    out["lint-tree"] = {
        "files": checked,
        "findings": len(violations),
        "fixture_digest": lintload.findings_digest(violations),
    }
    print(f"lint-tree: {out['lint-tree']}")
    path = Path(__file__).resolve().parent / "fingerprints.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
