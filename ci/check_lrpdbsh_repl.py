#!/usr/bin/env python3
"""Smoke test of the lrpdbsh REPL: a retracted tuple is never explained.

Writes a two-fact program, pipes `:retract`, `explain why p`,
`explain why p#0` and `:quit` into `lrpdbsh <program> --repl`, and fails
unless, after the retraction:
  * the over-deleted tuple p#0 (24n+3, "a") appears nowhere in the output,
  * `explain why p#0` answers "entry 0 was retracted",
  * the surviving tuple p#1 (24n+6, "b") is still explained.

Usage:
  python3 ci/check_lrpdbsh_repl.py --lrpdbsh <path to the lrpdbsh binary>
"""

import argparse
import pathlib
import subprocess
import sys
import tempfile

PROGRAM = """\
.decl e(time, data)
.decl p(time, data)
.fact e(24n+2, "a").
.fact e(24n+5, "b").
p(t + 1, X) :- e(t, X).
"""

SESSION = """\
:retract e(24n+2, "a").
explain why p
explain why p#0
:quit
"""

RETRACTED = "24n+3"
SURVIVOR = "24n+6"


def problems(output):
    """Returns the failed expectations for one REPL transcript."""
    marker = "retracted 1 fact(s)"
    if marker not in output:
        return [f"the retraction did not report `{marker}`"]
    after = output.split(marker, 1)[1]
    found = []
    if RETRACTED in after:
        found.append(f"the retracted tuple ({RETRACTED}) was explained")
    if "entry 0 was retracted" not in after:
        found.append("`explain why p#0` did not say the entry was retracted")
    if SURVIVOR not in after:
        found.append(f"the live tuple ({SURVIVOR}) was not explained")
    return found


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--lrpdbsh", required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        program = pathlib.Path(tmp) / "retract.lrp"
        program.write_text(PROGRAM)
        run = subprocess.run([args.lrpdbsh, str(program), "--repl"],
                             input=SESSION, capture_output=True, text=True,
                             timeout=60, check=False)
    if run.returncode != 0:
        print(run.stdout + run.stderr)
        print(f"lrpdbsh exited with {run.returncode}")
        return 1
    found = problems(run.stdout)
    if found:
        print(run.stdout)
        for problem in found:
            print("FAIL: " + problem)
        return 1
    print("lrpdbsh REPL: retracted tuples are not explained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
