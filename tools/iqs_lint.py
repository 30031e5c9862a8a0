#!/usr/bin/env python3
"""iqs_lint: repo-local invariant checks for libiqs.

Token/regex-level checks over the real include graph — deliberately
libclang-free so it runs anywhere Python 3 runs (CI containers, dev
boxes without a clang toolchain). Complements, not replaces, the clang
-Wthread-safety build: clang proves lock discipline; iqs_lint enforces
the repo conventions a compiler cannot see (CLAUDE.md "Conventions").

Rules
-----
raw-rand         No std::rand / srand / std::random_device / std::mt19937
                 (or other <random> engines) outside src/iqs/util/rng*.
                 Every sampler takes an explicit iqs::Rng*; unseeded or
                 time-seeded randomness breaks test determinism.

check-in-loop    No IQS_CHECK inside a loop body in src/ — per-element
                 contract checks belong in IQS_DCHECK (compiled out under
                 NDEBUG) so RelWithDebInfo hot paths pay nothing. Cold
                 loops (destructors, build paths) may keep IQS_CHECK with
                 a justified suppression.

batch-signature  Batch entry points (QueryBatch / SampleBatch /
                 QueryPositionsBatch / SampleJoinBatch) keep the
                 canonical parameter order: inputs..., Rng*,
                 ScratchArena*, BatchOptions, output last. Params may be
                 omitted (overloads), never reordered.

umbrella         Every header under src/iqs/ is reachable from the
                 umbrella header src/iqs/iqs.h by following
                 #include "iqs/..." edges (static mirror of
                 tests/umbrella_header_test.cc).

naked-mutex      No std::mutex / std::condition_variable /
                 std::lock_guard / std::unique_lock / std::scoped_lock in
                 src/ outside util/thread_annotations.h — use the
                 annotated iqs::Mutex / iqs::MutexLock / iqs::CondVar so
                 clang -Wthread-safety sees every lock.

layering         Headers under src/iqs/serve/ #include "iqs/..." only
                 from util/ and serve/. The serving layer is generic over
                 its Query/Sample/Result types; a concrete sampler header
                 there would tie every frontend build to that sampler.

Suppression: append `// iqs-lint: allow(<rule>) -- <justification>` to
the offending line, or put it alone on the line above. The justification
is mandatory; an empty one is itself a finding.

Usage: python3 tools/iqs_lint.py [--root DIR] [--rule RULE]...
Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
Output: one `path:line: [rule] message` per finding.
"""

import argparse
import os
import re
import sys

ALL_RULES = (
    "raw-rand",
    "check-in-loop",
    "batch-signature",
    "umbrella",
    "naked-mutex",
    "layering",
)

SUPPRESS_RE = re.compile(
    r"//\s*iqs-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(?:--\s*(.*))?"
)

CXX_EXTS = (".h", ".cc", ".cpp")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One file plus its comment-stripped view and suppression map."""

    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            self.raw_lines = f.read().split("\n")
        # rule -> set of 1-based line numbers it is suppressed on;
        # "" key records allow() comments with an empty justification.
        self.suppressed = {}
        self.bad_suppressions = []  # (line, rules) with missing justification
        self._collect_suppressions()
        self.lines = [self._strip_line(ln) for ln in self.raw_lines]

    def _collect_suppressions(self):
        for i, line in enumerate(self.raw_lines, start=1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            rules = [r.strip() for r in m.group(1).split(",")]
            justification = (m.group(2) or "").strip()
            if not justification:
                self.bad_suppressions.append((i, rules))
                continue
            # A comment alone on its line covers the NEXT line too.
            covers = [i]
            if line.split("//")[0].strip() == "":
                covers.append(i + 1)
            for rule in rules:
                self.suppressed.setdefault(rule, set()).update(covers)

    @staticmethod
    def _strip_line(line):
        """Blank out string/char literals and // comments (keeps column
        positions, so line numbers and loop-brace tracking stay exact).
        Block comments are rare in this codebase and line-local ones are
        handled; multi-line /* */ bodies still parse as code, which the
        rules tolerate (they only match tokens that never appear in
        prose)."""
        out = []
        i, n = 0, len(line)
        in_str = None
        while i < n:
            c = line[i]
            if in_str:
                if c == "\\":
                    i += 2
                    continue
                if c == in_str:
                    in_str = None
                i += 1
                continue
            if c in "\"'":
                in_str = c
                out.append(c)
                i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest is comment
            out.append(c)
            i += 1
        return "".join(out)

    def is_suppressed(self, rule, line):
        return line in self.suppressed.get(rule, set())


# The lint selftest fixture contains deliberate violations; never lint
# it as repo code (run_selftest.py points --root at it directly).
EXCLUDE_DIRS = (os.path.join("tests", "lint_selftest"),)


def iter_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root)
            if any(rel_dir.startswith(e) for e in EXCLUDE_DIRS):
                continue
            for name in sorted(names):
                if name.endswith(CXX_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def report(findings, src, rule, line, message):
    if src.is_suppressed(rule, line):
        return
    findings.append(Finding(src.relpath, line, rule, message))


# --- rule: raw-rand ---------------------------------------------------------

RAW_RAND_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b"
    r"|\bstd::(mt19937(_64)?|minstd_rand0?|ranlux\w+|knuth_b|default_random_engine)\b"
)


def rule_raw_rand(files, findings):
    for src in files:
        if src.relpath.startswith(os.path.join("src", "iqs", "util")) and (
            os.path.basename(src.relpath).startswith("rng")
        ):
            continue
        for i, line in enumerate(src.lines, start=1):
            if RAW_RAND_RE.search(line):
                report(
                    findings, src, "raw-rand", i,
                    "raw/standard-library randomness; take an iqs::Rng* "
                    "instead (util/rng.h) so seeds stay deterministic",
                )


# --- rule: check-in-loop ----------------------------------------------------

LOOP_HEAD_RE = re.compile(r"(^|[^\w])(for|while)\s*\(")
DO_HEAD_RE = re.compile(r"(^|[^\w])do\s*\{")


IQS_CHECK_RE = re.compile(r"\bIQS_CHECK\(")


def rule_check_in_loop(files, findings):
    """Flag IQS_CHECK( inside a loop body. Brace-tracking state machine
    over per-line events (loop heads and braces, in column order): a loop
    head arms `pending_loops`; the next `{` binds it onto `loop_depths`;
    any IQS_CHECK while a loop scope is open is a finding. A brace-less
    single-statement body (`for (...) stmt;`) disarms at the terminating
    semicolon line."""
    for src in files:
        if not src.relpath.startswith("src" + os.sep):
            continue
        if os.path.basename(src.relpath) == "check.h":
            continue  # defines the macros inside do { } while (0)
        depth = 0
        paren_depth = 0  # cumulative ( ) nesting, for multi-line heads
        loop_depths = []  # brace depths whose scope is a loop body
        pending_loops = 0  # loop heads seen whose '{' has not appeared yet
        for i, line in enumerate(src.lines, start=1):
            events = []
            for m in LOOP_HEAD_RE.finditer(line):
                events.append((m.start(), "loop"))
            for m in DO_HEAD_RE.finditer(line):
                events.append((m.start(), "loop"))
            for j, c in enumerate(line):
                if c in "{}":
                    events.append((j, c))
            events.sort()
            in_loop_at_start = bool(loop_depths or pending_loops)
            for m in IQS_CHECK_RE.finditer(line):
                # In a loop if one was already open entering the line, or
                # a loop head appears earlier on this very line.
                if in_loop_at_start or any(
                        pos < m.start() and kind == "loop"
                        for pos, kind in events):
                    report(
                        findings, src, "check-in-loop", i,
                        "IQS_CHECK inside a loop body; use IQS_DCHECK "
                        "(free under NDEBUG) or suppress with a cold-path "
                        "justification",
                    )
                    break  # one finding per line is enough
            for _, kind in events:
                if kind == "loop":
                    pending_loops += 1
                elif kind == "{":
                    depth += 1
                    if pending_loops:
                        loop_depths.append(depth)
                        pending_loops -= 1
                else:
                    if loop_depths and loop_depths[-1] == depth:
                        loop_depths.pop()
                    depth -= 1
            paren_depth += line.count("(") - line.count(")")
            # Brace-less single-statement body: `for (...) stmt;` or the
            # statement on its own following line. The terminating ';' at
            # line end closes it — but only with the head's parens closed
            # (a multi-line `for (a;\n b; c)` head also ends lines in ';').
            if pending_loops and paren_depth == 0 and (
                    line.rstrip().endswith(";")):
                pending_loops -= 1


# --- rule: batch-signature --------------------------------------------------

BATCH_FN_RE = re.compile(
    r"\b(QueryBatch|SampleBatch|QueryPositionsBatch|SampleJoinBatch)\s*\(")

# Canonical tail order. Each param class gets a rank; ranks must be
# non-decreasing across the parameter list, and the output param (if any)
# must be last. Leading inputs (queries/plan/spans/sizes) share rank 0.
PARAM_CLASS_RES = (
    (re.compile(r"\bRng\s*\*"), 1, "Rng*"),
    (re.compile(r"\bScratchArena\s*\*"), 2, "ScratchArena*"),
    (re.compile(r"\bBatchOptions\b"), 3, "BatchOptions"),
    # Outputs: *BatchResult* / *Result* pointers, vector-of-samples
    # pointers, or a pointer param named out/result.
    (re.compile(r"\w*Result\s*\*|\bstd::vector\s*<[^;]*>\s*\*"
                r"|\*\s*(out|result)\b"), 4, "output*"),
)


def split_params(paramlist):
    """Split a parameter list on top-level commas."""
    parts, depth, cur = [], 0, []
    for c in paramlist:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def rule_batch_signature(files, findings):
    for src in files:
        if not src.relpath.startswith("src" + os.sep):
            continue
        text = "\n".join(src.lines)
        for m in BATCH_FN_RE.finditer(text):
            name = m.group(1)
            # Extract the balanced parameter list.
            depth, j = 1, m.end()
            while j < len(text) and depth:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                continue  # unbalanced (end of file mid-macro); skip
            paramlist = text[m.end():j - 1]
            line = text.count("\n", 0, m.start()) + 1
            # Only declarations/definitions, not call sites: a parameter
            # list contains type tokens; calls pass bare expressions.
            if not re.search(r"\b(const|Rng\s*\*|size_t|std::|double|uint)",
                             paramlist):
                continue
            if re.match(r"\s*\)", text[m.end():]):
                continue
            params = split_params(paramlist)
            ranks = []
            for p in params:
                rank = 0
                for cre, r, _ in PARAM_CLASS_RES:
                    if cre.search(p):
                        rank = r
                        break
                ranks.append(rank)
            # Call-site heuristic: declarations name their params with
            # types; if no param matched any class and none look like
            # declarations, skip.
            if ranks and ranks != sorted(ranks):
                report(
                    findings, src, "batch-signature", line,
                    f"{name} parameters out of canonical order "
                    "(inputs..., Rng*, ScratchArena*, BatchOptions, "
                    "output last)",
                )
            elif 4 in ranks and ranks.index(4) != len(ranks) - 1 and (
                    ranks.count(4) == 1):
                report(
                    findings, src, "batch-signature", line,
                    f"{name} output vector* parameter must come last",
                )


# --- rule: umbrella ---------------------------------------------------------

INCLUDE_RE = re.compile(r'#include\s+"(iqs/[^"]+)"')


def rule_umbrella(root, files, findings):
    headers = {}
    for src in files:
        if src.relpath.startswith(os.path.join("src", "iqs")) and (
                src.relpath.endswith(".h")):
            # Path as it appears in include directives.
            inc = src.relpath[len("src" + os.sep):].replace(os.sep, "/")
            headers[inc] = src
    start = "iqs/iqs.h"
    if start not in headers:
        findings.append(Finding(
            os.path.join("src", "iqs", "iqs.h"), 1, "umbrella",
            "umbrella header src/iqs/iqs.h not found"))
        return
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        # raw_lines, not the stripped view: stripping blanks out string
        # literal contents, and the include path IS a string literal.
        for line in headers[cur].raw_lines:
            m = INCLUDE_RE.search(line)
            if m and m.group(1) in headers and m.group(1) not in seen:
                seen.add(m.group(1))
                frontier.append(m.group(1))
    for inc in sorted(set(headers) - seen):
        src = headers[inc]
        report(
            findings, src, "umbrella", 1,
            f'"{inc}" is not reachable from the umbrella header iqs/iqs.h; '
            "add an #include edge or suppress if intentionally internal",
        )


# --- rule: naked-mutex ------------------------------------------------------

NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard"
    r"|unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
    r"|#include\s+<(mutex|shared_mutex|condition_variable)>"
)


def rule_naked_mutex(files, findings):
    for src in files:
        if not src.relpath.startswith("src" + os.sep):
            continue
        if os.path.basename(src.relpath) == "thread_annotations.h":
            continue  # the one place allowed to wrap the std primitives
        for i, line in enumerate(src.lines, start=1):
            if NAKED_MUTEX_RE.search(line):
                report(
                    findings, src, "naked-mutex", i,
                    "naked std synchronization primitive; use iqs::Mutex / "
                    "iqs::MutexLock / iqs::CondVar "
                    "(util/thread_annotations.h) so clang -Wthread-safety "
                    "sees the lock",
                )


# --- rule: layering ---------------------------------------------------------

SERVE_HEADER_DIR = os.path.join("src", "iqs", "serve") + os.sep
SERVE_ALLOWED_INCLUDES = ("iqs/util/", "iqs/serve/")


def rule_layering(files, findings):
    for src in files:
        if not (src.relpath.startswith(SERVE_HEADER_DIR)
                and src.relpath.endswith(".h")):
            continue
        # raw_lines: the include path is a string literal (see umbrella).
        for i, line in enumerate(src.raw_lines, start=1):
            m = INCLUDE_RE.search(line)
            if m and not m.group(1).startswith(SERVE_ALLOWED_INCLUDES):
                report(
                    findings, src, "layering", i,
                    f'serve/ header includes "{m.group(1)}"; serve/ may '
                    "depend only on util/ and serve/ (name concrete "
                    "sampler types at the instantiation site)",
                )


# ---------------------------------------------------------------------------


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--rule", action="append", choices=ALL_RULES,
                        help="run only this rule (repeatable)")
    args = parser.parse_args(argv)
    rules = tuple(args.rule) if args.rule else ALL_RULES

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"iqs_lint: no such directory: {root}", file=sys.stderr)
        return 2
    subdirs = ["src", "tests", "bench", "examples"]
    relpaths = list(iter_files(root, subdirs))
    if not relpaths:
        print(f"iqs_lint: no C++ sources under {root}", file=sys.stderr)
        return 2
    try:
        files = [SourceFile(root, rp) for rp in relpaths]
    except OSError as e:
        print(f"iqs_lint: {e}", file=sys.stderr)
        return 2

    findings = []
    for src in files:
        for line, bad_rules in src.bad_suppressions:
            findings.append(Finding(
                src.relpath, line, "suppression",
                f"allow({', '.join(bad_rules)}) without a justification; "
                "write `// iqs-lint: allow(rule) -- why`"))
    if "raw-rand" in rules:
        rule_raw_rand(files, findings)
    if "check-in-loop" in rules:
        rule_check_in_loop(files, findings)
    if "batch-signature" in rules:
        rule_batch_signature(files, findings)
    if "umbrella" in rules:
        rule_umbrella(root, files, findings)
    if "naked-mutex" in rules:
        rule_naked_mutex(files, findings)
    if "layering" in rules:
        rule_layering(files, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"iqs_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
