#!/usr/bin/env python3
"""Project-invariant lint pass for lrpdb.

Enforces the repo-wide invariants that the compiler cannot (or that we do not
want to rely on every local compiler flag for):

  no-exceptions        No throw/try/catch in src/: this is a Status-based
                       codebase built with the expectation that a throw is a
                       process abort.
  throwing-stdlib      No std::sto* (stoi/stol/stoll/...) — they throw on
                       overflow; use lrpdb::ParseDecimalInt64.
  mutex-annotation     Every std::mutex / std::shared_mutex *member* must
                       guard something: LRPDB_GUARDED_BY(<name>) must appear
                       in the same file. (Function-local statics are exempt.)
  naked-new            No naked new/delete. `std::unique_ptr<T>(new T(...))`
                       on one line is allowed (pre-C++20 make_unique gaps);
                       `= delete` is not a delete-expression.
  check-in-status-fn   In hot-path files (src/gdb/*.cc, src/core/*.cc), no
                       LRPDB_CHECK* inside a function that returns Status or
                       StatusOr — return an error instead of aborting.
  wall-clock           No wall-clock / randomness outside src/obs (bench/ and
                       tests/ are outside the lint scope): the obs layer is
                       the only clock owner so LRPDB_NO_METRICS builds are
                       deterministic and clock-free.
  status-nodiscard     Every function declared to return Status/StatusOr
                       carries [[nodiscard]].
  status-discarded     A bare statement call of a function known (from the
                       scanned files) to return Status/StatusOr. The compiler
                       enforces this too (-Werror=unused-result); the lint
                       catches it without a build.
  raw-thread           No std::thread / std::jthread / std::async in src/
                       outside src/common/thread_pool.*: all parallelism
                       flows through ThreadPool::ParallelFor so ExecContext
                       propagation, cancellation, and the deterministic-merge
                       guarantees hold. (tests/ and bench/ are outside the
                       lint scope and may spawn threads freely.)

Suppression: append `// lint: allow(<rule-id>[, <rule-id>...])` to the
offending line, or put it alone on the line directly above. Suppressions are
expected to be rare and justified by a nearby comment (see DESIGN.md).

Engines: the default `lexical` engine is canonical — comment/string aware,
zero dependencies, and what CI runs. `--engine=libclang` additionally
cross-checks throw/new/delete against a real AST when python clang bindings
and a compile_commands.json are available; it degrades to lexical (with a
note) when they are not, unless --require-libclang is given.

File list: translation units come from compile_commands.json (repo root or
build/), filtered to src/; headers are discovered by walking src/. Without a
compile database the walker provides everything.

Self-test: `run_lint.py --self-test` lints ci/lint/testdata/ fixtures. Each
fixture declares its virtual path on line one (`// lint-fixture-path: ...`)
and marks every expected finding with `// expect-lint: <rule-id>` on the
offending line. Any mismatch (missed or extra finding) fails.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

RULE_IDS = [
    "no-exceptions",
    "throwing-stdlib",
    "mutex-annotation",
    "naked-new",
    "check-in-status-fn",
    "wall-clock",
    "status-nodiscard",
    "status-discarded",
    "raw-thread",
]

HOT_PATH_DIRS = ("src/gdb/", "src/core/", "src/storage/")
# Prefix-matched. src/common/exec_context is the governance layer: the
# deadline is *defined* in terms of the monotonic clock, so it joins src/obs
# as a legitimate clock owner.
CLOCK_EXEMPT_DIRS = ("src/obs/", "src/common/exec_context")
# The one place allowed to spawn threads (prefix covers .h and .cc).
THREAD_EXEMPT_PREFIXES = ("src/common/thread_pool.",)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path      # repo-relative (virtual for fixtures)
        self.line = line      # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Returns text with comments and string/char literal *contents* blanked,
    preserving every line break so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^(\s]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        out.append('"')
                        i += 1
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append(raw_delim)
                i += len(raw_delim)
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([^)]*)\)")


def allowed_rules(raw_lines, idx):
    """Rules suppressed for raw_lines[idx] (same line or the line above)."""
    rules = set()
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[j])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(?:shared_)?mutex\s+(\w+)\s*(?:LRPDB_\w+\([^)]*\)\s*)*;"
)
STATUS_SIG_RE = re.compile(
    r"^\s*(?:\[\[\s*nodiscard\s*\]\]\s*|(?:static|virtual|inline|constexpr|explicit|friend)\s+)*"
    r"(Status|StatusOr\s*<[^;=]*?>)\s+"
    r"((?:\w+\s*::\s*)*(?:\w+|operator[^\s(]+))\s*\("
)
NODISCARD_RE = re.compile(r"\[\[\s*nodiscard\s*\]\]")
CHECK_RE = re.compile(r"\bLRPDB_D?CHECK(?:_OK|_EQ|_NE|_GE|_GT|_LE|_LT)?\s*\(")
CLOCK_RE = re.compile(
    r"\b(?:std::chrono::)?(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(|\bstd::random_device\b"
    r"|\b(?:std::)?s?rand\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
THROWING_STDLIB_RE = re.compile(r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\b")
# Word-bounded, so `std::this_thread` (legitimate in yield/sleep helpers)
# never matches; the `(?!\s*::)` carve-out keeps nested-member uses such as
# `std::thread::id` / `std::thread::hardware_concurrency()` legal — they
# observe threads, they do not create them.
RAW_THREAD_RE = re.compile(r"\bstd::(thread|jthread)\b(?!\s*::)|\bstd::(async)\b")
EXCEPTION_RE = re.compile(r"\b(throw|try|catch)\b")
NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b(?:\s*\[\s*\])?")
CALL_STMT_RE = re.compile(r"^\s*(?:[\w:]+(?:\.|->|::))*(\w+)\s*\(")
# Rough non-Status signature matcher, used only to mark a function name as
# *ambiguous* (declared with some other return type somewhere) so that
# status-discarded stays silent on it — overload sets like TupleStore::Insert
# (StatusOr) vs GroundFactStore::Insert (bool) must not cross-contaminate.
GENERIC_SIG_RE = re.compile(
    r"^\s*(?:\[\[\s*nodiscard\s*\]\]\s*|(?:static|virtual|inline|constexpr|explicit|friend)\s+)*"
    r"([A-Za-z_][\w:<>,\s\*&]*?)\s+((?:\w+\s*::\s*)*\w+)\s*\("
)
NON_TYPE_KEYWORDS = {
    "return", "co_return", "else", "case", "goto", "new", "delete", "do",
    "throw", "if", "for", "while", "switch", "catch", "using", "typedef",
}


def in_dirs(path, dirs):
    return any(path.startswith(d) for d in dirs)


def scan_file(path, raw_text, status_fn_names=None):
    """Lints one file. `path` is the repo-relative (possibly virtual) path.
    Returns (findings, declared_status_fn_names)."""
    findings = []
    raw_lines = raw_text.split("\n")
    code_lines = strip_comments_and_strings(raw_text).split("\n")
    declared = set()
    nonstatus_declared = set()

    def report(idx, rule, message):
        if rule not in allowed_rules(raw_lines, idx):
            findings.append(Finding(path, idx + 1, rule, message))

    hot_path = in_dirs(path, HOT_PATH_DIRS) and path.endswith(".cc")
    clock_exempt = in_dirs(path, CLOCK_EXEMPT_DIRS)
    thread_exempt = (not path.startswith("src/")
                     or in_dirs(path, THREAD_EXEMPT_PREFIXES))
    is_annotations_header = path.endswith("src/common/thread_annotations.h")

    # Function tracking for check-in-status-fn: a Status/StatusOr signature
    # arms the tracker; the next `{` (at whatever namespace/class depth the
    # signature sits at) opens that function's body, and the body ends when
    # the depth drops back below it.
    depth = 0
    in_status_fn = False
    body_depth = 0
    pending_status_fn = False
    prev_code_end = ""  # Final character of the last non-blank code line.
    guarded = set(re.findall(r"LRPDB_(?:PT_)?GUARDED_BY\((\w+)\)", raw_text))

    for idx, line in enumerate(code_lines):
        # --- no-exceptions / throwing-stdlib ---
        m = EXCEPTION_RE.search(line)
        if m:
            report(idx, "no-exceptions",
                   f"'{m.group(1)}' is banned: lrpdb is exception-free; "
                   "return a Status instead")
        if THROWING_STDLIB_RE.search(line):
            report(idx, "throwing-stdlib",
                   "std::sto* throws on overflow; use "
                   "lrpdb::ParseDecimalInt64 (src/parser/lexer.h)")

        # --- mutex-annotation ---
        m = MUTEX_MEMBER_RE.match(line)
        if m and not is_annotations_header:
            name = m.group(1)
            if name not in guarded:
                report(idx, "mutex-annotation",
                       f"mutex member '{name}' guards nothing: annotate the "
                       f"fields it protects with LRPDB_GUARDED_BY({name})")

        # --- naked-new ---
        if NEW_RE.search(line):
            owned = re.search(r"std::(?:unique|shared)_ptr\s*<[^;]*>\s*\(\s*new\b", line) \
                or "make_unique" in line or "make_shared" in line \
                or "placement" in line or re.search(r"\bnew\s*\(", line)
            if not owned:
                report(idx, "naked-new",
                       "naked 'new': wrap in std::unique_ptr on the same "
                       "line (or use a factory)")
        m = DELETE_RE.search(line)
        if m:
            before = line[: m.start()].rstrip()
            if not before.endswith("="):  # `= delete;` / `= delete` are fine.
                report(idx, "naked-new",
                       "naked 'delete': owning pointers must be smart "
                       "pointers")

        # --- raw-thread ---
        if not thread_exempt:
            m = RAW_THREAD_RE.search(line)
            if m:
                report(idx, "raw-thread",
                       f"'std::{m.group(1) or m.group(2)}' outside "
                       "src/common/thread_pool: "
                       "route parallelism through ThreadPool::ParallelFor so "
                       "ExecContext propagation and deterministic merging "
                       "hold")

        # --- wall-clock ---
        if not clock_exempt and CLOCK_RE.search(line):
            report(idx, "wall-clock",
                   "clock/randomness outside src/obs: use obs::MonotonicNow "
                   "/ obs::UsSince so LRPDB_NO_METRICS builds stay "
                   "deterministic")

        # --- status signatures: nodiscard + declared-name collection ---
        m = STATUS_SIG_RE.match(line)
        is_signature = False
        if m:
            pre_paren = line[: line.find("(")]
            if "=" not in pre_paren and "return" not in pre_paren:
                is_signature = True
                fn = m.group(2).split("::")[-1].strip()
                declared.add(fn)
                has_nodiscard = NODISCARD_RE.search(line[: m.start(1)]) or (
                    idx > 0 and NODISCARD_RE.search(code_lines[idx - 1])
                )
                if not has_nodiscard:
                    report(idx, "status-nodiscard",
                           f"'{fn}' returns {m.group(1).strip()} but is not "
                           "[[nodiscard]]")
                pending_status_fn = True
        elif "(" in line:
            g = GENERIC_SIG_RE.match(line)
            if g and "=" not in line[: line.find("(")]:
                type_head = g.group(1).split()[0].rstrip("*&")
                name = g.group(2).split("::")[-1].strip()
                if type_head not in NON_TYPE_KEYWORDS and name not in NON_TYPE_KEYWORDS:
                    nonstatus_declared.add(name)

        # --- status-discarded ---
        # Only statement *openers* count: a line whose predecessor ended
        # mid-expression (`,`, `(`, `&&`, ...) is a continuation, e.g. the
        # second line of an LRPDB_ASSIGN_OR_RETURN, not a discarded call.
        if status_fn_names:
            m = CALL_STMT_RE.match(line)
            if (m and not is_signature and line.rstrip().endswith(";")
                    and prev_code_end in (";", "{", "}", ":", "")
                    and "=" not in line.split("(")[0]
                    and m.group(1) in status_fn_names
                    and not re.match(r"\s*(?:return|co_return)\b", line)):
                report(idx, "status-discarded",
                       f"result of Status-returning '{m.group(1)}' is "
                       "discarded")

        # --- check-in-status-fn (with brace tracking) ---
        if hot_path and in_status_fn and CHECK_RE.search(line):
            report(idx, "check-in-status-fn",
                   "LRPDB_CHECK* aborts the process inside a function that "
                   "can return Status: return an error instead")

        for ch in line:
            if ch == "{":
                depth += 1
                if pending_status_fn and not in_status_fn:
                    in_status_fn = True
                    body_depth = depth
                    pending_status_fn = False
            elif ch == "}":
                depth = max(0, depth - 1)
                if in_status_fn and depth < body_depth:
                    in_status_fn = False
        if pending_status_fn and line.rstrip().endswith(";"):
            pending_status_fn = False  # Declaration only, no body.
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            prev_code_end = stripped[-1]

    return findings, declared, nonstatus_declared


def collect_files(explicit):
    """Returns a list of (repo_relative_path, absolute_path)."""
    if explicit:
        out = []
        for p in explicit:
            ap = os.path.abspath(p)
            rp = os.path.relpath(ap, REPO_ROOT)
            out.append((rp.replace(os.sep, "/"), ap))
        return out
    files = {}
    for db in (os.path.join(REPO_ROOT, "compile_commands.json"),
               os.path.join(REPO_ROOT, "build", "compile_commands.json")):
        if os.path.exists(db):
            try:
                for entry in json.load(open(db)):
                    ap = os.path.normpath(os.path.join(entry.get("directory", ""), entry["file"]))
                    rp = os.path.relpath(ap, REPO_ROOT).replace(os.sep, "/")
                    if rp.startswith("src/") and os.path.exists(ap):
                        files[rp] = ap
            except (ValueError, KeyError) as e:
                print(f"note: ignoring unreadable {db}: {e}", file=sys.stderr)
            break
    # Headers (and, with no compile database, everything) by walking src/.
    for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith((".h", ".cc")):
                ap = os.path.join(dirpath, name)
                rp = os.path.relpath(ap, REPO_ROOT).replace(os.sep, "/")
                files.setdefault(rp, ap)
    return sorted(files.items())


def libclang_cross_check(files, findings):
    """Best-effort AST cross-check of throw/new/delete sites. Returns extra
    findings, or None when libclang is unavailable."""
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception as e:  # Missing libclang.so behind the bindings.
        print(f"note: clang bindings present but unusable ({e})", file=sys.stderr)
        return None
    extra = []
    kinds = cindex.CursorKind
    wanted = {
        kinds.CXX_THROW_EXPR: "no-exceptions",
        kinds.CXX_TRY_STMT: "no-exceptions",
        kinds.CXX_NEW_EXPR: "naked-new",
        kinds.CXX_DELETE_EXPR: "naked-new",
    }
    known = {(f.path, f.line, f.rule) for f in findings}
    for rp, ap in files:
        if not ap.endswith(".cc"):
            continue
        try:
            tu = index.parse(ap, args=["-std=c++20", "-I", REPO_ROOT])
        except Exception:
            continue
        for cursor in tu.cursor.walk_preorder():
            rule = wanted.get(cursor.kind)
            if not rule or not cursor.location.file:
                continue
            if os.path.normpath(cursor.location.file.name) != os.path.normpath(ap):
                continue
            key = (rp, cursor.location.line, rule)
            if key not in known:
                extra.append(Finding(rp, cursor.location.line, rule,
                                     f"(libclang) {cursor.kind.name.lower()} found in AST"))
    return extra


FIXTURE_PATH_RE = re.compile(r"//\s*lint-fixture-path:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([\w\-, ]+)")


def self_test():
    testdata = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")
    fixtures = sorted(
        os.path.join(testdata, f) for f in os.listdir(testdata)
        if f.endswith((".cc", ".h"))
    )
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for fixture in fixtures:
        raw = open(fixture).read()
        m = FIXTURE_PATH_RE.search(raw)
        if not m:
            print(f"self-test: {fixture} lacks a '// lint-fixture-path:' header")
            failures += 1
            continue
        virtual = m.group(1)
        # Fixtures may exercise status-discarded; seed the cross-file name
        # set from the fixture itself (first pass collects declarations).
        _, declared, nonstatus = scan_file(virtual, raw)
        findings, _, _ = scan_file(virtual, raw,
                                   status_fn_names=declared - nonstatus)
        actual = {}
        for f in findings:
            actual.setdefault(f.line, set()).add(f.rule)
        expected = {}
        for idx, line in enumerate(raw.split("\n")):
            m = EXPECT_RE.search(line)
            if m:
                expected[idx + 1] = {r.strip() for r in m.group(1).split(",") if r.strip()}
        ok = True
        for line_no in sorted(set(actual) | set(expected)):
            got = actual.get(line_no, set())
            want = expected.get(line_no, set())
            if got != want:
                ok = False
                print(f"self-test FAIL {os.path.basename(fixture)}:{line_no}: "
                      f"expected {sorted(want) or '[]'}, got {sorted(got) or '[]'}")
        status = "ok" if ok else "FAIL"
        print(f"self-test {status}: {os.path.basename(fixture)} "
              f"({sum(len(v) for v in expected.values())} expected findings)")
        failures += 0 if ok else 1
    if failures:
        print(f"self-test: {failures} fixture(s) failed")
        return 1
    print(f"self-test: all {len(fixtures)} fixtures passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="files to lint (default: src/ via compile_commands.json + walk)")
    ap.add_argument("--engine", choices=["lexical", "libclang"], default="lexical")
    ap.add_argument("--require-libclang", action="store_true",
                    help="with --engine=libclang, fail instead of degrading when bindings are absent")
    ap.add_argument("--self-test", action="store_true", help="lint the testdata fixtures and check expectations")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULE_IDS:
            print(r)
        return 0
    if args.self_test:
        return self_test()

    files = collect_files(args.files)
    if not files:
        print("error: no files to lint", file=sys.stderr)
        return 2

    # Pass 1: per-file rules + collect Status-returning function names
    # (minus names that also appear with non-Status return types somewhere:
    # the lexical engine cannot resolve overloads, so ambiguous names are
    # exempt from status-discarded).
    status_fn_names = set()
    ambiguous_names = set()
    contents = {}
    for rp, ap_ in files:
        try:
            contents[rp] = open(ap_, encoding="utf-8", errors="replace").read()
        except OSError as e:
            print(f"error: cannot read {rp}: {e}", file=sys.stderr)
            return 2
        _, declared, nonstatus = scan_file(rp, contents[rp])
        status_fn_names.update(declared)
        ambiguous_names.update(nonstatus)
    status_fn_names -= ambiguous_names

    # Pass 2: full scan with the cross-file name set.
    findings = []
    for rp, _ in files:
        fs, _, _ = scan_file(rp, contents[rp], status_fn_names=status_fn_names)
        findings.extend(fs)

    if args.engine == "libclang":
        extra = libclang_cross_check(files, findings)
        if extra is None:
            if args.require_libclang:
                print("error: --engine=libclang requested but python clang "
                      "bindings are unavailable", file=sys.stderr)
                return 2
            print("note: libclang unavailable; lexical engine results only",
                  file=sys.stderr)
        else:
            findings.extend(extra)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} lint finding(s) in {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint clean: {len(files)} file(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
