#!/usr/bin/env python3
"""Fixture-driven tests for tools/tl_lint.py.

Runs the linter over tests/lint_fixtures/repo — a tiny known-bad tree where
every line that must be reported carries a `LINT-EXPECT[rule]` marker and
every rule also has a suppressed twin — and asserts the finding set matches
the markers EXACTLY (so both false negatives and false positives fail,
including any suppression that stops working). Also asserts:

  * --no-blocking-syscall removes exactly the blocking-syscall findings
    (the fallback-retirement contract: tl_analyze's loop-blocking check
    replaces the regex rule when libclang is available);
  * the clean fixture tree exits 0 with no findings.

Exit status: 0 pass, 1 fail.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
LINT = os.path.join(REPO, "tools", "tl_lint.py")
FIXTURE = os.path.join(HERE, "lint_fixtures", "repo")
CLEAN = os.path.join(HERE, "lint_fixtures", "clean")

MARKER_RE = re.compile(r"//\s*LINT-EXPECT\[([a-z-]+)\]")
FINDING_RE = re.compile(r"^([^:]+?)(?::(\d+))?: \[([a-z-]+)\]")


def expected_findings():
    expected = set()
    for dirpath, _, filenames in os.walk(FIXTURE):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, FIXTURE)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for m in MARKER_RE.finditer(line):
                        expected.add((rel, lineno, m.group(1)))
    # The alpha <-> beta module cycle is reported once, against the module
    # directory that closes the cycle, with no line number.
    expected.add((os.path.join("src", "beta"), 0, "include-cycle"))
    return expected


def run_lint(args):
    proc = subprocess.run([sys.executable, LINT] + args,
                          capture_output=True, text=True)
    found = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found.add((m.group(1), int(m.group(2) or 0), m.group(3)))
    return proc.returncode, found


def main():
    failures = []
    expected = expected_findings()
    if len(expected) < 2:
        failures.append("fixture markers missing — did the tree move?")

    code, found = run_lint([FIXTURE])
    if code != 1:
        failures.append(f"bad-fixture run exited {code}, want 1")
    if found != expected:
        missing = sorted(expected - found)
        surplus = sorted(found - expected)
        failures.append(f"finding mismatch: missing={missing} "
                        f"unexpected={surplus}")

    no_block_expected = {f for f in expected if f[2] != "blocking-syscall"}
    code, found = run_lint(["--no-blocking-syscall", FIXTURE])
    if code != 1:
        failures.append(f"--no-blocking-syscall run exited {code}, want 1")
    if found != no_block_expected:
        failures.append("--no-blocking-syscall did not remove exactly the "
                        f"blocking-syscall findings: got {sorted(found)}")

    code, found = run_lint([CLEAN])
    if code != 0 or found:
        failures.append(f"clean fixture: exit {code}, findings "
                        f"{sorted(found)} (want 0, none)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"tl_lint fixtures: OK ({len(expected)} expected findings, "
          "suppressions honored, clean tree clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
