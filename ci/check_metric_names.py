#!/usr/bin/env python3
"""Checks that every metric name emitted under src/ is documented.

Collects the name passed to each LRPDB_COUNTER_INC, LRPDB_COUNTER_ADD,
LRPDB_GAUGE_SET, LRPDB_HISTOGRAM_RECORD and LRPDB_SCOPED_TIMER_US call
under src/, and to each direct registry lookup (GetCounter, GetGauge,
GetHistogram) under src/ outside src/obs/ (the registry itself), and fails
if one is missing from DESIGN.md section 5 ("Observability"). Documented names are the backticked spans of that
section, with brace groups expanded: `store.wal.{appends,appended_bytes}`
documents store.wal.appends and store.wal.appended_bytes.

Usage:
  python3 ci/check_metric_names.py [--root DIR]   # the check
  python3 ci/check_metric_names.py --self-test    # extraction fixtures
"""

import argparse
import itertools
import pathlib
import re
import sys

MACROS = ("LRPDB_COUNTER_INC", "LRPDB_COUNTER_ADD", "LRPDB_GAUGE_SET",
          "LRPDB_HISTOGRAM_RECORD", "LRPDB_SCOPED_TIMER_US")
LOOKUPS = ("GetCounter", "GetGauge", "GetHistogram")
CALL = re.compile(r"\b(" + "|".join(MACROS) + r")\s*\(\s*(\"([^\"]*)\")?")
LOOKUP = re.compile(r"\b(" + "|".join(LOOKUPS) + r")\s*\(\s*(\"([^\"]*)\")?")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
# A macro definition plus its backslash-continued lines.
DEFINE = re.compile(r"^\s*#\s*define\b(?:[^\n]*\\\n)*[^\n]*", re.M)
SECTION = re.compile(r"^## 5\. Observability$(.*?)(?=^## )", re.M | re.S)
BACKTICKED = re.compile(r"`([^`\n]+)`")
GROUP = re.compile(r"\{([^{}]*)\}")


def emitted_names(source, lookups=True):
    """Returns ({name}, [non-literal call]) for one C++ source text.

    `lookups` also collects direct registry lookups; off for the registry's
    own sources, which look names up on the macros' behalf.
    """
    # Macro definitions are not call sites.
    text = DEFINE.sub("", COMMENT.sub("", source))
    names, dynamic = set(), []
    patterns = (CALL, LOOKUP) if lookups else (CALL,)
    for match in itertools.chain(*(p.finditer(text) for p in patterns)):
        if match.group(3) is None:
            dynamic.append(match.group(1))
        else:
            names.add(match.group(3))
    return names, dynamic


def expand(span):
    """Expands every {a,b,...} group of `span` (cartesian product)."""
    parts = GROUP.split(span)
    literals, groups = parts[0::2], parts[1::2]
    choices = [[c.strip() for c in g.split(",")] for g in groups]
    out = []
    for picks in itertools.product(*choices):
        name = literals[0]
        for pick, literal in zip(picks, literals[1:]):
            name += pick + literal
        out.append(name)
    return out


def documented_names(design):
    """Returns every name documented in DESIGN.md section 5."""
    section = SECTION.search(design)
    if section is None:
        raise SystemExit("DESIGN.md has no '## 5. Observability' section")
    names = set()
    for span in BACKTICKED.findall(section.group(1)):
        names.update(expand(span))
    return names


def check(root):
    emitted, dynamic = {}, []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root)
        names, calls = emitted_names(
            path.read_text(encoding="utf-8"),
            lookups=rel.parts[:2] != ("src", "obs"))
        for name in names:
            emitted.setdefault(name, rel)
        dynamic.extend(f"{rel}: {call}" for call in calls)
    documented = documented_names(
        (root / "DESIGN.md").read_text(encoding="utf-8"))
    missing = sorted(n for n in emitted if n not in documented)
    for name in missing:
        print(f"{emitted[name]}: metric '{name}' is not documented in "
              "DESIGN.md section 5")
    for call in dynamic:
        print(f"{call} takes a non-literal name; it cannot be checked")
    print(f"{len(emitted)} metric names emitted, {len(missing)} "
          f"undocumented, {len(dynamic)} non-literal")
    return 1 if missing or dynamic else 0


def self_test():
    source = '''
#define LRPDB_COUNTER_INC(name) LRPDB_COUNTER_ADD(name, 1)
#define LRPDB_GAUGE_SET(name, v) \\
  LRPDB_COUNTER_ADD(name, v)
// LRPDB_COUNTER_INC("commented.out");
void F() {
  LRPDB_COUNTER_INC("a.b");
  LRPDB_HISTOGRAM_RECORD(
      "a.c", 3);
  LRPDB_SCOPED_TIMER_US("a.d.duration_us");
}
void G(const char* n) { LRPDB_GAUGE_SET(n, 1); }
'''
    names, dynamic = emitted_names(source)
    assert names == {"a.b", "a.c", "a.d.duration_us"}, names
    assert dynamic == ["LRPDB_GAUGE_SET"], dynamic
    lookups = '''
// r.GetCounter("commented.out");
static Counter* c = r.GetCounter("l.a");
static Histogram* h = registry.GetHistogram(
    "l.b");
Gauge* G(const char* n) { return Global().GetGauge(n); }
LRPDB_COUNTER_INC("l.c");
'''
    names, dynamic = emitted_names(lookups)
    assert names == {"l.a", "l.b", "l.c"}, names
    assert dynamic == ["GetGauge"], dynamic
    names, dynamic = emitted_names(lookups, lookups=False)
    assert names == {"l.c"}, names
    assert dynamic == [], dynamic
    assert expand("x.y") == ["x.y"]
    assert expand("s.{a, b}") == ["s.a", "s.b"]
    assert expand("{p,q}.{1,2}") == ["p.1", "p.2", "q.1", "q.2"]
    design = ("## 5. Observability\n| `s.{a,b}` | `t.c` |\n"
              "## 6. Next\n`u.d`\n")
    assert documented_names(design) == {"s.a", "s.b", "t.c"}
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
