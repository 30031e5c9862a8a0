#!/usr/bin/env python3
"""Selftest for tools/iqs_lint.py: runs the linter over the fixture tree
(one deliberate violation per rule + clean counterparts) and asserts the
exact finding set — every rule fires where it must, and nowhere else.

Expected findings are derived from `VIOLATION: <rule>` marker comments
in the fixture files (umbrella findings anchor to line 1 of the orphan
header, which is marked in its leading comment instead). Then the repo
itself is linted and must come back clean.

Usage: python3 run_selftest.py [--lint PATH] [--fixture DIR]
Exit 0 on success, 1 on any mismatch.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

FINDING_RE = re.compile(r"^(.*):(\d+): \[([a-z-]+)\] ")
MARKER_RE = re.compile(r"VIOLATION: ([a-z-]+)")
ALL_RULES = ("raw-rand", "check-in-loop", "batch-signature", "umbrella",
             "naked-mutex", "layering", "suppression")


def collect_expected(fixture):
    """All (relpath, line, rule) triples marked in the fixture tree."""
    expected = set()
    for dirpath, _, names in os.walk(fixture):
        for name in sorted(names):
            if not name.endswith((".h", ".cc", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, fixture).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for i, line in enumerate(f, start=1):
                    for m in MARKER_RE.finditer(line):
                        rule = m.group(1)
                        # Umbrella findings always anchor at line 1.
                        expected.add((rel, 1 if rule == "umbrella" else i,
                                      rule))
    return expected


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--lint",
        default=os.path.join(HERE, os.pardir, os.pardir, "tools",
                             "iqs_lint.py"))
    parser.add_argument("--fixture", default=os.path.join(HERE, "fixture"))
    args = parser.parse_args()

    expected = collect_expected(args.fixture)
    if not expected:
        print(f"FAIL: no VIOLATION markers under {args.fixture}")
        return 1
    rules_covered = {rule for _, _, rule in expected}
    missing_rules = set(ALL_RULES) - rules_covered
    if missing_rules:
        print(f"FAIL: fixture covers no violation for: "
              f"{sorted(missing_rules)}")
        return 1

    proc = subprocess.run(
        [sys.executable, args.lint, "--root", args.fixture],
        capture_output=True, text=True)
    if proc.returncode != 1:
        print(f"FAIL: expected exit 1 (findings), got {proc.returncode}\n"
              f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
        return 1

    got = set()
    for raw in proc.stdout.splitlines():
        m = FINDING_RE.match(raw)
        if m:
            got.add((m.group(1).replace(os.sep, "/"), int(m.group(2)),
                     m.group(3)))

    failures = []
    for triple in sorted(expected - got):
        failures.append(f"expected but not reported: {triple}")
    for triple in sorted(got - expected):
        failures.append(f"reported but not expected: {triple}")
    for path, line, rule in sorted(got):
        if path.endswith("clean_sampler.h"):
            failures.append(f"clean fixture flagged: {path}:{line} [{rule}]")

    # The repo itself must lint clean — the selftest doubles as the repo
    # gate so a single ctest target covers both.
    repo_root = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
    proc = subprocess.run(
        [sys.executable, args.lint, "--root", repo_root],
        capture_output=True, text=True)
    if proc.returncode != 0:
        failures.append(
            f"repo lint not clean (exit {proc.returncode}):\n{proc.stdout}")

    if failures:
        print("iqs_lint selftest FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"iqs_lint selftest OK: {len(expected)} expected findings across "
          f"{len(rules_covered)} rules, 0 stray, repo clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
