#!/usr/bin/env python3
"""Golden-fixture tests for tools/gflint.py.

Each fixture under fixtures/ is a miniature repo root. For every rule there
is a *_bad tree that must produce an exact set of findings and a *_good
tree that must be clean. The C-family (coroutine lifetime) bad fixtures
reproduce the exact PR-8 bug shapes; tokens_good proves the token-stream
engine never matches inside comments or string literals. Run directly or
via ctest (test name `gflint_fixtures`).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GFLINT = HERE.parent.parent / "tools" / "gflint.py"
FINDING_RE = re.compile(r"\[([A-Z]\d+)\]")

# (fixture, rules to run, expected exit, expected finding count per rule)
CASES = [
    ("r1_bad", "R1", 1, {"R1": 4}),
    ("r1_good", "R1", 0, {}),
    ("r2_bad", "R2", 1, {"R2": 2}),
    ("r2_good", "R2", 0, {}),
    ("r3_bad", "R3", 1, {"R3": 2}),
    ("r3_good", "R3", 0, {}),
    ("r4_bad", "R4", 1, {"R4": 2}),
    ("r4_good", "R4", 0, {}),
    ("r5_bad", "R5", 1, {"R5": 2}),
    ("r5_good", "R5", 0, {}),
    ("r6_bad", "R6", 1, {"R6": 3}),
    ("r6_good", "R6", 0, {}),
    ("r7_bad", "R7", 1, {"R7": 3}),
    ("r7_good", "R7", 0, {}),
    # Coroutine-lifetime family (PR-8 bug shapes).
    ("c1_bad", "C1", 1, {"C1": 2}),
    ("c1_good", "C1", 0, {}),
    ("c2_bad", "C2", 1, {"C2": 2}),
    ("c2_good", "C2", 0, {}),
    ("c3_bad", "C3", 1, {"C3": 1}),
    ("c3_good", "C3", 0, {}),
    # Token-stream regression: R-rule patterns inside comments/strings.
    ("tokens_good", "R1,R2,R3", 0, {}),
    # Suppression hygiene.
    ("allow_good", "R2", 0, {}),
    ("allow_bad", "R2", 1, {"R2": 1, "A1": 1}),
]


def run_case(fixture, rules, want_exit, want_counts):
    root = HERE / "fixtures" / fixture
    proc = subprocess.run(
        [sys.executable, str(GFLINT), "--root", str(root), "--rules", rules],
        capture_output=True, text=True)
    counts = {}
    for rule in FINDING_RE.findall(proc.stdout):
        counts[rule] = counts.get(rule, 0) + 1
    problems = []
    if proc.returncode != want_exit:
        problems.append(f"exit {proc.returncode}, want {want_exit}")
    if counts != want_counts:
        problems.append(f"findings {counts or '{}'}, want {want_counts or '{}'}")
    return proc, problems


def sarif_smoke():
    """--sarif must emit a loadable SARIF 2.1.0 log mirroring the findings."""
    root = HERE / "fixtures" / "r1_bad"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "gflint.sarif"
        proc = subprocess.run(
            [sys.executable, str(GFLINT), "--root", str(root), "--rules", "R1",
             "--sarif", str(out)],
            capture_output=True, text=True)
        problems = []
        if proc.returncode != 1:
            problems.append(f"exit {proc.returncode}, want 1")
        try:
            doc = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return proc, [f"sarif unreadable: {exc}"]
        if doc.get("version") != "2.1.0":
            problems.append(f"sarif version {doc.get('version')!r}, want '2.1.0'")
        runs = doc.get("runs") or [{}]
        results = runs[0].get("results", [])
        if len(results) != 4:
            problems.append(f"{len(results)} sarif results, want 4")
        if results and results[0].get("ruleId") != "R1":
            problems.append(f"ruleId {results[0].get('ruleId')!r}, want 'R1'")
        rules = (runs[0].get("tool", {}).get("driver", {}).get("rules", []))
        if not any(r.get("id") == "R1" for r in rules):
            problems.append("rule R1 missing from tool.driver.rules")
        return proc, problems


def main() -> int:
    failures = []
    total = 0

    def report(name, proc, problems):
        nonlocal total
        total += 1
        if problems:
            failures.append(name)
            print(f"FAIL {name}: {'; '.join(problems)}")
            for line in (proc.stdout + proc.stderr).splitlines():
                print(f"  | {line}")
        else:
            print(f"ok   {name}")

    for fixture, rules, want_exit, want_counts in CASES:
        proc, problems = run_case(fixture, rules, want_exit, want_counts)
        report(f"{fixture} ({rules})", proc, problems)

    proc, problems = sarif_smoke()
    report("sarif_smoke (r1_bad)", proc, problems)

    if failures:
        print(f"{len(failures)}/{total} fixture case(s) failed", file=sys.stderr)
        return 1
    print(f"all {total} fixture cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
