#!/usr/bin/env python3
"""TreeLattice project-convention linter (the custom leg of the static
analysis gate; see DESIGN.md §8 and tools/run_static_analysis.sh).

Checks, each suppressible per line with `// tl-lint: allow(<rule>)`:

  metric-literal   Every obs metric name used from src/ must be a constant
                   declared in src/obs/metric_names.h — no string literals
                   at MetricsRegistry::counter()/gauge()/histogram() call
                   sites, so the full telemetry surface lives in one header.
  metric-name      Constants in metric_names.h follow the naming scheme
                   lowercase dot-separated "<subsystem>.<metric>" and are
                   unique.
  metric-declared  Every serving-plane metric name string ("serve.*" or
                   "admin.*") appearing anywhere in src/ must be one of the
                   constants declared in src/obs/metric_names.h — a typo'd
                   or ad-hoc name would silently register a parallel metric
                   the dashboards never scrape.
  include-cycle    The src/<module> directories form a DAG under
                   #include "module/...": no include cycles between
                   modules (reported once per cycle, not per line).
  naked-new        No naked `new` expressions in src/ — ownership goes
                   through std::make_unique/std::make_shared/containers.
                   (Placement new and intentional leaks carry the
                   suppression comment with a justification.)
  string-key-map   No std::string-keyed hash containers
                   (unordered_map/unordered_set) in src/core or src/serve:
                   the estimation hot path probes by precomputed 64-bit
                   code hash (LatticeSummary slots, CodeMemo,
                   EstimateCache), and a string-keyed map re-hashes and
                   allocates per probe.
  canonical-in-loop
                   No Twig::CanonicalCode()/CanonicalHash() calls inside a
                   loop in src/core or src/serve — hoist the canonical form
                   out of the loop (it is cached on the Twig, but the call
                   inside a hot loop usually means a per-iteration twig is
                   being re-canonicalized).
  temp-name-literal
                   No string-literal file name joined to TempDir() in
                   tests/: ctest runs test cases in parallel processes, so
                   a fixed name is shared between them. Name files through
                   tests/temp_path.h's UniqueTempPath(stem) instead.
  blocking-syscall No potentially blocking calls in the TCP event loop
                   (src/serve/transport.* and src/serve/conn.*): raw
                   read/write/accept/recv/send (socket I/O must go through
                   util/net.h's NetIo, whose every call is
                   MSG_DONTWAIT/O_NONBLOCK), select, and every flavor of
                   sleep. One blocking call anywhere in the loop stalls
                   every connection it serves.

Exit status: 0 clean, 1 findings, 2 usage/environment error.

Usage: tools/tl_lint.py [repo_root]
"""

import os
import re
import sys

ALLOW_RE = re.compile(r"//\s*tl-lint:\s*allow\(([a-z-]+)\)")

METRIC_CALL_RE = re.compile(
    r"(?:->|\.)\s*(?:counter|gauge|histogram)\s*\(\s*\"")
METRIC_CONST_RE = re.compile(
    r"inline\s+constexpr\s+char\s+(k\w+)\[\]\s*=\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
SERVE_METRIC_STRING_RE = re.compile(
    r'"((?:serve|admin)\.[a-z0-9_]+(?:\.[a-z0-9_]+)*)"')
INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
# `new` introducing an expression: after =, (, {, ",", return, or start of
# statement. Excludes identifiers like "renew" via \b.
NAKED_NEW_RE = re.compile(r"(?:^|[=({,;]|\breturn)\s*\bnew\b")
STRING_KEY_MAP_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<\s*(?:std\s*::\s*)?string\b")
LOOP_HEADER_RE = re.compile(r"\b(?:for|while)\s*\(|\bdo\s*\{")
CANONICAL_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?:CanonicalCode|CanonicalHash)\s*\(")
HOT_PATH_DIRS = [os.path.join("src", "core"), os.path.join("src", "serve")]
# TempDir() joined to a string literal; the literal is checked for a name.
TEMP_JOIN_RE = re.compile(r'TempDir\s*\(\s*\)\s*\+\s*"([^"]*)"')

# Event-loop files that must never block (see blocking-syscall above).
EVENT_LOOP_FILES = [
    os.path.join("src", "serve", "transport.h"),
    os.path.join("src", "serve", "transport.cc"),
    os.path.join("src", "serve", "conn.h"),
    os.path.join("src", "serve", "conn.cc"),
]
BLOCKING_CALL_RE = re.compile(
    r"\b(read|write|pread|pwrite|accept|accept4|recv|recvfrom|recvmsg|"
    r"send|sendto|sendmsg|select|pselect|sleep|usleep|nanosleep|"
    r"fgets|fread|fwrite|getchar)\s*\(")
SLEEP_FOR_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")


def strip_comments_and_strings(line, in_block_comment, keep_strings=False):
    """Removes // and /* */ comment text and string-literal contents.

    Keeps the quotes of string literals (so call-site patterns like
    `counter("` still match) but blanks what is inside them — unless
    `keep_strings` is set, which preserves literal contents while still
    stripping comments (for rules that inspect the strings themselves).
    Returns (cleaned_line, still_in_block_comment).
    """
    out = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                out.append(c)
                state = "string"
                i += 1
                continue
            if c == "'":
                # Skip char literal wholesale (handles '\'' and '\\').
                j = i + 1
                while j < n:
                    if line[j] == "\\":
                        j += 2
                        continue
                    if line[j] == "'":
                        break
                    j += 1
                i = j + 1
                continue
            out.append(c)
            i += 1
        elif state == "string":
            if c == "\\":
                if keep_strings:
                    out.append(line[i:i + 2])
                i += 2
                continue
            if c == '"':
                out.append(c)
                state = "code"
                i += 1
                continue
            if keep_strings:
                out.append(c)
            i += 1
        else:  # block comment
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
    return "".join(out), state == "block"


def iter_source_files(root, subdirs, exts=(".h", ".cc")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def load_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def allowed(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group(1) == rule


def check_metric_constants(root, findings):
    """Returns the set of declared metric name strings."""
    path = os.path.join(root, "src", "obs", "metric_names.h")
    names = {}
    if not os.path.exists(path):
        findings.append((path, 0, "metric-name",
                         "missing metric name registry header"))
        return names
    for lineno, raw in enumerate(load_lines(path), 1):
        m = METRIC_CONST_RE.search(raw)
        if not m:
            continue
        const, name = m.groups()
        if not METRIC_NAME_RE.match(name) and not allowed(raw, "metric-name"):
            findings.append(
                (path, lineno, "metric-name",
                 f'"{name}" is not lowercase dot-separated '
                 '"<subsystem>.<metric>"'))
        if name in names:
            findings.append(
                (path, lineno, "metric-name",
                 f'duplicate metric name "{name}" (also {names[name]})'))
        names[name] = const
    return names


def check_metric_literals(root, findings):
    for path in iter_source_files(root, ["src"]):
        if path.endswith(os.path.join("obs", "metric_names.h")):
            continue
        in_block = False
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(raw, in_block)
            if METRIC_CALL_RE.search(line) and not allowed(
                    raw, "metric-literal"):
                findings.append(
                    (path, lineno, "metric-literal",
                     "metric name must be a constant from "
                     "obs/metric_names.h, not a string literal"))


def check_metric_declared(root, declared, findings):
    """Serving-plane metric strings must come from the declared registry."""
    for path in iter_source_files(root, ["src"]):
        if path.endswith(os.path.join("obs", "metric_names.h")):
            continue
        in_block = False
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(
                raw, in_block, keep_strings=True)
            for m in SERVE_METRIC_STRING_RE.finditer(line):
                name = m.group(1)
                if name not in declared and not allowed(
                        raw, "metric-declared"):
                    findings.append(
                        (path, lineno, "metric-declared",
                         f'serving-plane metric name "{name}" is not '
                         "declared in obs/metric_names.h"))


def check_naked_new(root, findings):
    for path in iter_source_files(root, ["src", "tools"]):
        in_block = False
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(raw, in_block)
            if NAKED_NEW_RE.search(line) and not allowed(raw, "naked-new"):
                findings.append(
                    (path, lineno, "naked-new",
                     "naked `new`: use std::make_unique/make_shared, or "
                     "suppress with a justification"))


def check_string_key_maps(root, findings):
    for path in iter_source_files(root, HOT_PATH_DIRS):
        in_block = False
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(raw, in_block)
            if STRING_KEY_MAP_RE.search(line) and not allowed(
                    raw, "string-key-map"):
                findings.append(
                    (path, lineno, "string-key-map",
                     "std::string-keyed hash container on the estimation "
                     "hot path: key by precomputed 64-bit code hash "
                     "(see CodeMemo / LatticeSummary slots)"))


def check_canonical_in_loop(root, findings):
    """Flags CanonicalCode()/CanonicalHash() calls lexically inside a loop.

    Line-based heuristic: a `for`/`while`/`do` header opens a loop region
    that ends at its matching close brace (or, for a braceless body, at the
    next statement-ending `;` at the same depth). Nesting is tracked by
    brace depth on comment/string-stripped text.
    """
    for path in iter_source_files(root, HOT_PATH_DIRS):
        in_block = False
        depth = 0
        parens = 0
        loop_depths = []   # brace depths whose region is a loop body
        pending_loop = False  # header seen, body brace (or `;`) not yet
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(raw, in_block)
            if LOOP_HEADER_RE.search(line):
                # Calls on the header line itself count as in-loop; the
                # region bookkeeping below handles following lines.
                pending_loop = True
            in_loop = bool(loop_depths) or pending_loop
            if (in_loop and CANONICAL_CALL_RE.search(line)
                    and not allowed(raw, "canonical-in-loop")):
                findings.append(
                    (path, lineno, "canonical-in-loop",
                     "CanonicalCode()/CanonicalHash() inside a loop: hoist "
                     "the canonical form out of the loop"))
            for c in line:
                if c == "(":
                    parens += 1
                elif c == ")":
                    parens = max(0, parens - 1)
                elif c == "{":
                    depth += 1
                    if pending_loop:
                        loop_depths.append(depth)
                        pending_loop = False
                elif c == "}":
                    if loop_depths and loop_depths[-1] == depth:
                        loop_depths.pop()
                    depth = max(0, depth - 1)
                elif c == ";" and pending_loop and parens == 0:
                    # Braceless single-statement loop body ends here; the
                    # header's own `;`s are inside its parentheses.
                    pending_loop = False


def check_temp_name_literals(root, findings):
    """Flags a file name literal joined to TempDir() in test sources.

    Fixture trees (directories named *_fixtures) are skipped: they hold
    deliberate findings for the linters' own tests.
    """
    for path in iter_source_files(root, ["tests"]):
        parts = os.path.relpath(path, root).split(os.sep)
        if any(part.endswith("_fixtures") for part in parts):
            continue
        in_block = False
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(
                raw, in_block, keep_strings=True)
            names = [m.group(1) for m in TEMP_JOIN_RE.finditer(line)]
            if any(n.strip("/") for n in names) and not allowed(
                    raw, "temp-name-literal"):
                findings.append(
                    (path, lineno, "temp-name-literal",
                     "fixed file name under TempDir(): parallel test "
                     "processes share it; use UniqueTempPath(stem) from "
                     "tests/temp_path.h"))


def check_blocking_syscalls(root, findings):
    for rel in EVENT_LOOP_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        in_block = False
        for lineno, raw in enumerate(load_lines(path), 1):
            line, in_block = strip_comments_and_strings(raw, in_block)
            m = BLOCKING_CALL_RE.search(line)
            call = m.group(1) if m else None
            # recv/send with MSG_DONTWAIT and accept4 with SOCK_NONBLOCK
            # cannot block; anything else on the list can.
            if call and call.startswith(("recv", "send")) \
                    and "MSG_DONTWAIT" in line:
                call = None
            if call == "accept4" and "SOCK_NONBLOCK" in line:
                call = None
            if call is None and SLEEP_FOR_RE.search(line):
                call = "sleep_for"
            if call and not allowed(raw, "blocking-syscall"):
                findings.append(
                    (path, lineno, "blocking-syscall",
                     f"`{call}` can block the event loop: socket I/O goes "
                     "through util/net.h NetIo (MSG_DONTWAIT), waiting "
                     "through util/event_poller.h"))


def check_include_cycles(root, findings):
    src = os.path.join(root, "src")
    modules = sorted(
        d for d in os.listdir(src) if os.path.isdir(os.path.join(src, d)))
    module_set = set(modules)
    edges = {m: set() for m in modules}
    for module in modules:
        for path in iter_source_files(src, [module]):
            in_block = False
            for raw in load_lines(path):
                # keep_strings: the include target IS a string literal —
                # blanking it (the old behavior) made this rule vacuous.
                line, in_block = strip_comments_and_strings(
                    raw, in_block, keep_strings=True)
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                target = m.group(1).split("/", 1)[0]
                if target in module_set and target != module:
                    edges[module].add(target)

    # Iterative DFS cycle detection; report each cycle once.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in modules}
    stack_path = []

    def dfs(start):
        stack = [(start, iter(sorted(edges[start])))]
        color[start] = GRAY
        stack_path.append(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = stack_path[stack_path.index(nxt):] + [nxt]
                    findings.append(
                        (os.path.join(src, node), 0, "include-cycle",
                         "module include cycle: " + " -> ".join(cycle)))
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack_path.append(nxt)
                    stack.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack_path.pop()
                stack.pop()

    for module in modules:
        if color[module] == WHITE:
            dfs(module)


def main(argv):
    import argparse
    parser = argparse.ArgumentParser(prog="tl_lint.py")
    parser.add_argument("root", nargs="?", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument(
        "--no-blocking-syscall", action="store_true",
        help="skip the file-scoped blocking-syscall regex rule — used when "
        "tl_analyze's call-graph loop-blocking check (its semantic "
        "replacement) runs in the same gate; the regex rule remains the "
        "fallback when libclang is unavailable")
    args = parser.parse_args(argv[1:])
    root = args.root
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"tl_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = []
    declared = check_metric_constants(root, findings)
    check_metric_literals(root, findings)
    check_metric_declared(root, declared, findings)
    check_naked_new(root, findings)
    check_string_key_maps(root, findings)
    check_canonical_in_loop(root, findings)
    check_temp_name_literals(root, findings)
    if not args.no_blocking_syscall:
        check_blocking_syscalls(root, findings)
    check_include_cycles(root, findings)

    for path, lineno, rule, message in sorted(findings):
        rel = os.path.relpath(path, root)
        where = f"{rel}:{lineno}" if lineno else rel
        print(f"{where}: [{rule}] {message}")
    if findings:
        print(f"tl_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("tl_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
