"""AST/CFG dataflow analyzer for lrpdb's project invariants.

The package turns C++ translation units into per-function summaries
(`cppmodel.FileModel`) and runs four project-invariant passes over them:

  nondeterministic-iteration   unordered-container / pointer-keyed iteration
                               whose loop body flows into output-affecting
                               state (tuple insertion, provenance records,
                               Explain/metrics emission, order-dependent
                               early returns).
  poll-reachability            every unbounded loop in governed engine code
                               provably reaches ExecContext::Poll on each
                               cyclic path, directly or via a one-level
                               polling callee (CFG path analysis, not a
                               lexical existence check).
  lock-order                   the lock-acquisition graph built from the
                               LRPDB_* thread-safety annotations plus the
                               acquisition sequences observed in function
                               bodies must be acyclic; cross-instance
                               acquisition of the same mutex member needs an
                               explicit justification.
  failpoint-coverage           every Status-producing engine function that
                               constructs a new error must have an
                               LRPDB_FAILPOINT within call-graph reach, so
                               fault-injection CI can exercise the path.

Engines: the builtin zero-dependency engine (tokenizer + structure scanner +
statement AST + structured CFG walk) always runs and is what local
developers get. When python clang bindings and a compile_commands.json are
available, the libclang engine is canonical: it re-derives the
type-sensitive facts (range-for range types resolved through aliases,
loop/goto structure) from the real AST and merges them into the builtin
model before the passes run. `--require-libclang` (CI) turns bindings
absence into a hard error instead of a degradation note.

Suppression: `// lint: allow(<pass-id>)` on the finding line or the line
directly above, with `det` accepted as shorthand for
nondeterministic-iteration. Every allow is expected to carry a justification
comment (DESIGN.md section 11).
"""

PASS_IDS = (
    "nondeterministic-iteration",
    "poll-reachability",
    "lock-order",
    "failpoint-coverage",
)

# `allow(det)` is the documented shorthand for the iteration pass.
ALLOW_ALIASES = {"det": "nondeterministic-iteration"}


class Finding:
    """One analyzer finding, formatted file:line: [pass] message."""

    def __init__(self, path, line, pass_id, message):
        self.path = path
        self.line = line
        self.pass_id = pass_id
        self.message = message

    def key(self):
        return (self.path, self.line, self.pass_id)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.pass_id}] {self.message}"
