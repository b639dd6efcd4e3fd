#!/usr/bin/env python3
"""song_lint.py — repo-invariant linter for the SONG codebase.

Machine-checks invariants the compiler cannot express, complementing the
Clang Thread Safety Analysis build (docs/static_analysis.md):

  raw-sync           No naked std::mutex / std::shared_mutex /
                     std::lock_guard / std::unique_lock / std::scoped_lock /
                     std::condition_variable in src/ outside core/sync.h.
                     Raw primitives are invisible to thread-safety
                     annotations; everything must go through the annotated
                     wrappers (song::Mutex, song::MutexLock, ...).

  hot-path           Regions bracketed by
                       // song-lint: begin-hot-path(<name>)
                       // song-lint: end-hot-path
                     must not allocate, log, or build strings: no new /
                     make_unique / make_shared / malloc / calloc / realloc /
                     push_back / emplace_back / std::string / SONG_LOG /
                     printf / fprintf / snprintf / std::cout / std::cerr.
                     The load-bearing regions (REQUIRED_HOT_REGIONS below:
                     flight-recorder Record, search_core Stage 2 and both
                     frontiers' admission, BestFirstSearch admission, serve
                     batch forming) are REQUIRED to exist, so deleting a marker
                     fails the lint rather than silently skipping.

  status-discard     No raw `(void)call(...)` discards and no bare
                     `....status().ok();` statements. Intentional swallows
                     must use SONG_IGNORE_ERROR(...) with a comment.

  seqlock-discipline Accesses to the flight-recorder seqlock field (`.seq`)
                     may appear only inside
                       // song-lint: begin-seqlock(<name>)
                       // song-lint: end-seqlock
                     regions, i.e. the four named protocol helpers whose
                     memory orders are reviewed in one place.

  nodiscard-status   core/status.h must keep `class [[nodiscard]]` on both
                     Status and StatusOr (the repo-wide discard guarantee
                     hangs off those two tokens).

  one-search-loop    No std::priority_queue<Neighbor, ..., std::greater<>>
                     min-heap frontier anywhere in src/.
                     graph/graph_search.h's BestFirstSearch (paper
                     Algorithm 1, the one best-first loop) must run on the
                     sorted CandidatePool frontier (core/candidate_pool.h),
                     and so must every frontier class that
                     song/search_core.h's SongSearchCore instantiates its
                     Stage 1/2/3 loop with. Builders, baselines and models
                     instantiate those loops instead of writing another
                     copy.

Usage:
  tools/lint/song_lint.py [--root DIR] [--self-test] [--list-rules]

Exit status: 0 when clean, 1 on violations (or self-test failure).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cu", ".cuh")

BEGIN_HOT = re.compile(r"//\s*song-lint:\s*begin-hot-path\(([\w-]+)\)")
END_HOT = re.compile(r"//\s*song-lint:\s*end-hot-path\b")
BEGIN_SEQ = re.compile(r"//\s*song-lint:\s*begin-seqlock\(([\w-]+)\)")
END_SEQ = re.compile(r"//\s*song-lint:\s*end-seqlock\b")

# Hot-path regions that must exist somewhere under src/. Deleting the
# markers (or the code) must fail the lint, not silently pass it.
REQUIRED_HOT_REGIONS = {
    "best-first-admit",
    "flight-recorder-record",
    "search-core-pool-admit",
    "search-core-song-admit",
    "search-core-stage2",
    "serve-batch-form",
}

RAW_SYNC_PATTERN = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"shared_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable|condition_variable_any)\b"
)
# The one file allowed to touch raw primitives: the annotated wrappers.
RAW_SYNC_ALLOWED = {os.path.join("src", "core", "sync.h")}

HOT_PATH_FORBIDDEN = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "placement/operator new"),
    (re.compile(r"\bstd::make_unique\b"), "std::make_unique"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\b(?:std::)?(?:m|c|re)alloc\s*\("), "malloc/calloc/realloc"),
    (re.compile(r"\.push_back\s*\("), "push_back (may reallocate)"),
    (re.compile(r"\.emplace_back\s*\("), "emplace_back (may reallocate)"),
    (re.compile(r"\bstd::string\b"), "std::string construction"),
    (re.compile(r"\bSONG_LOG\b"), "logging"),
    (re.compile(r"\b(?:f|sn?)?printf\s*\("), "printf-family call"),
    (re.compile(r"\bstd::c(?:out|err)\b"), "iostream"),
]

# A raw-discard statement: `(void)foo(...);` or `(void)foo->bar(...);`.
# SONG_IGNORE_ERROR is the sanctioned form; `(void)variable;` (no call) is
# an ordinary unused-parameter silencer and stays legal.
VOID_DISCARD = re.compile(r"\(\s*void\s*\)\s*[\w:>\-.]+\s*\(")
# `x.status().ok();` as a whole statement: inspects and drops the error.
STATUS_OK_DROPPED = re.compile(r"^\s*[\w:>\-.()]*\.status\(\)\.ok\(\)\s*;")

SEQ_ACCESS = re.compile(r"\.\s*seq\s*\.\s*(load|store|fetch|exchange|compare)")
SEQ_FILES = ("flight_recorder.h", "flight_recorder.cc")

NODISCARD_STATUS_FILE = os.path.join("src", "core", "status.h")

# A best-first frontier: a min-heap of Neighbor (std::greater ordering).
MIN_HEAP_FRONTIER = re.compile(
    r"\bstd::priority_queue\s*<\s*Neighbor\b[^;]*\bstd::greater\b")
# The file holding the one best-first loop, whose definition must name the
# sorted candidate pool.
SEARCH_LOOP_FILE = os.path.join("src", "graph", "graph_search.h")
SEARCH_LOOP_DEF = re.compile(r"\bBestFirstSearch\s*\(")
CANDIDATE_POOL = re.compile(r"\b\w*CandidatePool\b")
# The file holding SongSearchCore, whose Stage 1/2/3 loop is instantiated
# once per frontier class (RunSearch<Frontier>); each of those classes must
# name the sorted candidate pool.
SONG_CORE_FILE = os.path.join("src", "song", "search_core.h")
FRONTIER_USE = re.compile(r"\bRunSearch\s*<\s*(?:internal::)?(\w+)")


@dataclass
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents from one line.

    Keeps lint markers out of scope (they are comments) and avoids false
    positives on e.g. "std::mutex" appearing in a doc string. Block
    comments spanning lines are handled coarsely by the caller.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            break
        if ch == '"' or ch == "'":
            quote = ch
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote + quote)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def iter_code_lines(text: str):
    """Yields (lineno, raw_line, code_line) with comments/strings stripped.

    Tracks /* ... */ block comments across lines.
    """
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield lineno, raw, ""
                continue
            line = line[end + 2:]
            in_block = False
        # Remove intra-line block comments; detect an unclosed one.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        yield lineno, raw, strip_comments_and_strings(line)


def collect_files(root: str, subdir: str = "src"):
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root), full


def lint_file(relpath: str, text: str, seen_hot_regions: set):
    """Lints one file."""
    violations = []
    in_hot = False
    hot_name = ""
    in_seq = False

    for lineno, raw, code in iter_code_lines(text):
        # Region tracking keys off the RAW line: markers are comments.
        begin_hot = BEGIN_HOT.search(raw)
        if begin_hot:
            if in_hot:
                violations.append(Violation(
                    "hot-path", relpath, lineno,
                    "nested begin-hot-path (missing end-hot-path above?)"))
            in_hot = True
            hot_name = begin_hot.group(1)
            seen_hot_regions.add(hot_name)
            continue
        if END_HOT.search(raw):
            if not in_hot:
                violations.append(Violation(
                    "hot-path", relpath, lineno,
                    "end-hot-path without a matching begin-hot-path"))
            in_hot = False
            continue
        begin_seq = BEGIN_SEQ.search(raw)
        if begin_seq:
            if in_seq:
                violations.append(Violation(
                    "seqlock-discipline", relpath, lineno,
                    "nested begin-seqlock (missing end-seqlock above?)"))
            in_seq = True
            continue
        if END_SEQ.search(raw):
            if not in_seq:
                violations.append(Violation(
                    "seqlock-discipline", relpath, lineno,
                    "end-seqlock without a matching begin-seqlock"))
            in_seq = False
            continue

        if not code.strip():
            continue

        # raw-sync: annotated wrappers only, outside core/sync.h.
        if relpath not in RAW_SYNC_ALLOWED:
            m = RAW_SYNC_PATTERN.search(code)
            if m:
                violations.append(Violation(
                    "raw-sync", relpath, lineno,
                    f"raw std::{m.group(1)} — use the annotated wrappers in "
                    "core/sync.h (song::Mutex, song::MutexLock, ...)"))

        # hot-path: no allocation/logging inside marked regions.
        if in_hot:
            for pattern, what in HOT_PATH_FORBIDDEN:
                if pattern.search(code):
                    violations.append(Violation(
                        "hot-path", relpath, lineno,
                        f"{what} inside hot-path region "
                        f"'{hot_name}'"))

        # status-discard: raw (void) call-discards, dropped .status().ok().
        if VOID_DISCARD.search(code):
            violations.append(Violation(
                "status-discard", relpath, lineno,
                "raw (void) discard of a call result — if the result is a "
                "Status, use SONG_IGNORE_ERROR(...) with a justification "
                "comment; otherwise assign it to a named local"))
        if STATUS_OK_DROPPED.search(code):
            violations.append(Violation(
                "status-discard", relpath, lineno,
                "'.status().ok();' computed and dropped — handle the error "
                "or use SONG_IGNORE_ERROR(...)"))

        # one-search-loop: no min-heap frontier anywhere.
        if MIN_HEAP_FRONTIER.search(code):
            violations.append(Violation(
                "one-search-loop", relpath, lineno,
                "min-heap best-first frontier — instantiate BestFirstSearch "
                "(graph/graph_search.h, on the sorted CandidatePool) "
                "instead of writing another Algorithm-1 loop"))

        # seqlock-discipline: Slot::seq only inside seqlock regions.
        if os.path.basename(relpath).endswith(SEQ_FILES) and not in_seq:
            if SEQ_ACCESS.search(code):
                violations.append(Violation(
                    "seqlock-discipline", relpath, lineno,
                    "direct seqlock field access outside a "
                    "begin-seqlock/end-seqlock region — go through "
                    "SeqWriteBegin/SeqWriteEnd/SeqReadBegin/SeqReadValidate"))

    if in_hot:
        violations.append(Violation(
            "hot-path", relpath, len(text.splitlines()),
            f"unterminated hot-path region '{hot_name}'"))
    if in_seq:
        violations.append(Violation(
            "seqlock-discipline", relpath, len(text.splitlines()),
            "unterminated seqlock region"))
    return violations


def block_end(code: str, start: int) -> int:
    """Index just past the brace block opening at code[start] == '{'."""
    depth = 0
    j = start
    while j < len(code):
        depth += {"{": 1, "}": -1}.get(code[j], 0)
        j += 1
        if depth == 0:
            break
    return j


def check_search_loop(relpath: str, text: str):
    """one-search-loop, tree level: `text` (graph/graph_search.h) must
    define BestFirstSearch, and its body must name the CandidatePool
    frontier."""
    code = "\n".join(c for _, _, c in iter_code_lines(text))
    for m in SEARCH_LOOP_DEF.finditer(code):
        # A definition: the parameter list is followed by a body, not `;`.
        depth = 0
        i = m.end() - 1
        while i < len(code):
            depth += {"(": 1, ")": -1}.get(code[i], 0)
            i += 1
            if depth == 0:
                break
        rest = code[i:].lstrip()
        if not rest.startswith("{"):
            continue
        start = i + (len(code[i:]) - len(rest))
        if CANDIDATE_POOL.search(code[start:block_end(code, start)]):
            return []
        return [Violation(
            "one-search-loop", relpath, code[:start].count("\n") + 1,
            "BestFirstSearch does not run on the CandidatePool frontier "
            "(core/candidate_pool.h)")]
    return [Violation("one-search-loop", relpath, 0,
                      "no BestFirstSearch definition found")]


def check_song_frontiers(relpath: str, text: str):
    """one-search-loop, tree level: every frontier class `text`
    (song/search_core.h) runs its Stage 1/2/3 loop with (RunSearch<F>) must
    be defined there, and its body must name the CandidatePool."""
    code = "\n".join(c for _, _, c in iter_code_lines(text))
    names = sorted({m.group(1) for m in FRONTIER_USE.finditer(code)})
    if not names:
        return [Violation("one-search-loop", relpath, 0,
                          "no RunSearch<Frontier> instantiation found")]
    violations = []
    for name in names:
        body = None
        for m in re.finditer(r"\bclass\s+" + name + r"\b[^;{]*\{", code):
            start = m.end() - 1
            body = (code[:m.start()].count("\n") + 1,
                    code[start:block_end(code, start)])
        if body is None:
            violations.append(Violation(
                "one-search-loop", relpath, 0,
                f"frontier {name} is not defined in {relpath}"))
        elif not CANDIDATE_POOL.search(body[1]):
            violations.append(Violation(
                "one-search-loop", relpath, body[0],
                f"SongSearchCore frontier {name} does not run on the "
                "CandidatePool (core/candidate_pool.h) — keep SONG's queue "
                "and top-K as partitions of the sorted pool instead of "
                "hand-written heaps"))
    return violations


def lint_tree(root: str):
    violations = []
    seen_hot_regions: set = set()

    for relpath, full in collect_files(root):
        try:
            with open(full, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as err:
            violations.append(Violation("io", relpath, 0, str(err)))
            continue
        violations.extend(lint_file(relpath, text, seen_hot_regions))

    # one-search-loop: BestFirstSearch runs on the CandidatePool.
    try:
        with open(os.path.join(root, SEARCH_LOOP_FILE), "r",
                  encoding="utf-8") as f:
            violations.extend(check_search_loop(SEARCH_LOOP_FILE, f.read()))
    except OSError:
        violations.append(Violation(
            "one-search-loop", SEARCH_LOOP_FILE, 0, "file missing"))
    # one-search-loop: SongSearchCore's frontiers run on the CandidatePool.
    try:
        with open(os.path.join(root, SONG_CORE_FILE), "r",
                  encoding="utf-8") as f:
            violations.extend(check_song_frontiers(SONG_CORE_FILE, f.read()))
    except OSError:
        violations.append(Violation(
            "one-search-loop", SONG_CORE_FILE, 0, "file missing"))

    # hot-path: the load-bearing regions must exist.
    for name in sorted(REQUIRED_HOT_REGIONS - seen_hot_regions):
        violations.append(Violation(
            "hot-path", "src", 0,
            f"required hot-path region '{name}' not found — the "
            "begin-hot-path marker (or the code it protects) was removed"))

    # nodiscard-status: the two class-level attributes must survive.
    status_h = os.path.join(root, NODISCARD_STATUS_FILE)
    try:
        with open(status_h, "r", encoding="utf-8") as f:
            status_text = f.read()
    except OSError:
        violations.append(Violation(
            "nodiscard-status", NODISCARD_STATUS_FILE, 0, "file missing"))
    else:
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+Status\b", status_text):
            violations.append(Violation(
                "nodiscard-status", NODISCARD_STATUS_FILE, 0,
                "Status lost its class-level [[nodiscard]]"))
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+StatusOr\b",
                         status_text):
            violations.append(Violation(
                "nodiscard-status", NODISCARD_STATUS_FILE, 0,
                "StatusOr lost its class-level [[nodiscard]]"))

    return violations


# --------------------------- self-test -----------------------------------

def self_test() -> int:
    """Runs the linter over tools/lint/fixtures/ and checks every planted
    violation is caught and every clean fixture passes."""
    here = os.path.dirname(os.path.abspath(__file__))
    fixtures = os.path.join(here, "fixtures")
    failures = []

    def run_one(name: str, expect_rules):
        path = os.path.join(fixtures, name)
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        seen: set = set()
        got = lint_file(os.path.join("src", "fixture", name), text, seen)
        got_rules = sorted({v.rule for v in got})
        want = sorted(set(expect_rules))
        if got_rules != want:
            failures.append(
                f"{name}: expected rules {want}, got {got_rules} "
                f"({[str(v) for v in got]})")

    run_one("bad_raw_sync.cc", ["raw-sync"])
    run_one("bad_hot_path.cc", ["hot-path"])
    run_one("bad_batch_form.cc", ["hot-path"])
    run_one("bad_status_discard.cc", ["status-discard"])
    run_one("bad_seqlock.flight_recorder.cc", ["seqlock-discipline"])
    run_one("bad_unterminated.cc", ["hot-path"])
    run_one("bad_search_loop.cc", ["one-search-loop"])
    run_one("bad_song_frontier.cc", [])
    run_one("good_clean.cc", [])

    # A heap-based BestFirstSearch must fail the tree-level check, and the
    # planted frontier must be the line flagged by lint_file above.
    with open(os.path.join(fixtures, "bad_search_loop.cc"), "r",
              encoding="utf-8") as f:
        got = check_search_loop("bad_search_loop.cc", f.read())
    if [v.rule for v in got] != ["one-search-loop"] or got[0].line == 0:
        failures.append(
            "bad_search_loop.cc: a BestFirstSearch without the "
            f"CandidatePool was not flagged ({[str(v) for v in got]})")

    # Of the two frontiers the planted SongSearchCore instantiates, the
    # heap-based one is flagged at its definition; the pool-based one, and
    # the CandidatePool named only in a comment and a string, are not.
    with open(os.path.join(fixtures, "bad_song_frontier.cc"), "r",
              encoding="utf-8") as f:
        got = check_song_frontiers("bad_song_frontier.cc", f.read())
    if (len(got) != 1 or got[0].line == 0
            or "HeapFrontier" not in got[0].message):
        failures.append(
            "bad_song_frontier.cc: expected exactly the heap-based "
            f"HeapFrontier flagged, got {[str(v) for v in got]}")

    # The real tree must carry the required hot-path regions.
    root = os.path.normpath(os.path.join(here, "..", ".."))
    tree = lint_tree(root)
    structural = [v for v in tree
                  if v.rule in ("hot-path", "one-search-loop")
                  and v.line == 0]
    if structural:
        failures.append(
            "required regions / search loop missing from the tree: "
            + "; ".join(str(v) for v in structural))

    if failures:
        print("song_lint self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("song_lint self-test passed "
          "(9 fixtures, required regions and pool-based search loops "
          "present).")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture self-test and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in ("raw-sync", "hot-path", "status-discard",
                     "seqlock-discipline", "nodiscard-status",
                     "one-search-loop"):
            print(rule)
        return 0

    if args.self_test:
        return self_test()

    root = args.root
    if root is None:
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.normpath(os.path.join(here, "..", ".."))

    violations = lint_tree(root)
    if violations:
        print(f"song_lint: {len(violations)} violation(s):")
        for v in violations:
            print("  " + str(v))
        return 1
    print("song_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
