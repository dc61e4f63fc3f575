#!/usr/bin/env python3
"""Checks that the repository paths the top-level documents name exist.

Scans the backticked text of DESIGN.md, README.md and LANGUAGE.md
(inline code spans and fenced code blocks) for paths under src/, tests/, bench/, ci/, examples/ and
perfbench/, and fails on any that does not resolve. A path resolves when
it names a file or a directory, or when <path>.h or <path>.cc exists (the
docs name a module as `src/common/exec_context`). A brace group expands to
every alternative: `src/gdb/algebra.{h,cc}` names src/gdb/algebra.h and
src/gdb/algebra.cc, and both must exist. A `*` is a glob that must match
something. Trailing punctuation and a `:line` suffix are ignored.

ROADMAP.md and CHANGES.md are not checked: they record history, and may
name files that were deleted since.

Usage:
  python3 ci/check_doc_paths.py [--root DIR]   # the check
  python3 ci/check_doc_paths.py --self-test    # fixture test
"""

import argparse
import contextlib
import io
import itertools
import pathlib
import re
import sys
import tempfile

DOCS = ("DESIGN.md", "README.md", "LANGUAGE.md")
FENCED = re.compile(r"^```.*?^```", re.M | re.S)
INLINE = re.compile(r"`([^`\n]+)`")
# A path under one of the checked roots, not itself the tail of a longer
# path (`<build>/bench-reports`, `$DIR/src`). Brace groups keep their commas.
PATH = re.compile(
    r"(?<![\w./<>$-])(?:src|tests|bench|ci|examples|perfbench)/"
    r"(?:[\w./*-]|\{[^{}\s`]*\})*")
GROUP = re.compile(r"\{([^{}]*)\}")
LINE_SUFFIX = re.compile(r":\d+$")


def backticked(text):
    """Returns the backticked text of a Markdown document, one piece each."""
    blocks = FENCED.findall(text)
    return blocks + INLINE.findall(FENCED.sub("", text))


def doc_paths(text):
    """Returns the checked paths a document names, in order of appearance."""
    paths = []
    for piece in backticked(text):
        for match in PATH.finditer(piece):
            path = LINE_SUFFIX.sub("", match.group(0).rstrip(".,;:"))
            paths.append(path)
    return paths


def expand(path):
    """Expands every {a,b,...} group of `path` (cartesian product)."""
    parts = GROUP.split(path)
    literals, groups = parts[0::2], parts[1::2]
    choices = [[c.strip() for c in g.split(",")] for g in groups]
    out = []
    for picks in itertools.product(*choices):
        name = literals[0]
        for pick, literal in zip(picks, literals[1:]):
            name += pick + literal
        out.append(name)
    return out


def resolves(root, path):
    """True iff `path` (one brace alternative) names something under root."""
    if "*" in path:
        return any(root.glob(path.rstrip("/")))
    target = root / path
    return (target.exists() or target.with_name(target.name + ".h").exists()
            or target.with_name(target.name + ".cc").exists())


def unresolved(root, text):
    """Returns the named paths of `text` that do not resolve under root."""
    missing = []
    for path in doc_paths(text):
        if not all(resolves(root, p) for p in expand(path)):
            missing.append(path)
    return missing


def check(root):
    failures = 0
    checked = 0
    for doc in DOCS:
        text = (root / doc).read_text(encoding="utf-8")
        checked += len(doc_paths(text))
        for path in unresolved(root, text):
            print(f"{doc}: `{path}` does not exist")
            failures += 1
    print(f"{checked} documented paths checked, {failures} unresolved")
    return 1 if failures else 0


def self_test():
    assert expand("src/a.{h,cc}") == ["src/a.h", "src/a.cc"]
    assert expand("src/a.h") == ["src/a.h"]
    doc = """
# Title
Lives in `src/gdb/algebra.{h,cc}` and `src/common/exec_context`; run
`python3 perfbench/run.py --seconds 3` or `ci/check.sh --lint`.
See `src/core/evaluator.cc:577`, `src/core/`, `tests/*_test.cc` and
`<build>/bench-reports`; `BENCH_<id>.json` is no path.
```
src/storage     codec.{h,cc}
#include "src/core/gone.h"
```
Stale: `src/gdb/batch.{h,cc}`, `bench/nothing.cc`.
"""
    assert doc_paths(doc) == [
        "src/storage", "src/core/gone.h", "src/gdb/algebra.{h,cc}",
        "src/common/exec_context", "perfbench/run.py", "ci/check.sh",
        "src/core/evaluator.cc", "src/core/", "tests/*_test.cc",
        "src/gdb/batch.{h,cc}", "bench/nothing.cc"], doc_paths(doc)
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name in ("src/gdb/algebra.h", "src/gdb/algebra.cc",
                     "src/common/exec_context.h", "perfbench/run.py",
                     "ci/check.sh", "src/core/evaluator.cc",
                     "tests/a_test.cc", "src/storage/codec.h",
                     # Half of a brace pair is not enough.
                     "src/gdb/batch.h"):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text("")
        assert unresolved(root, doc) == [
            "src/core/gone.h", "src/gdb/batch.{h,cc}",
            "bench/nothing.cc"], unresolved(root, doc)
        for name in DOCS:
            (root / name).write_text("`src/core/evaluator.cc`\n")
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            assert check(root) == 0
            (root / "README.md").write_text("`src/gdb/batch.{h,cc}`\n")
            assert check(root) == 1
            (root / "README.md").write_text("`src/core/evaluator.cc`\n")
            (root / "LANGUAGE.md").write_text("`src/parser/gone.h`\n")
            assert check(root) == 1
        assert "README.md: `src/gdb/batch.{h,cc}` does not exist" in (
            report.getvalue()), report.getvalue()
        assert "LANGUAGE.md: `src/parser/gone.h` does not exist" in (
            report.getvalue()), report.getvalue()
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    return self_test() if args.self_test else check(args.root)


if __name__ == "__main__":
    sys.exit(main())
