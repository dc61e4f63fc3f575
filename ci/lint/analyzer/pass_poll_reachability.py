"""poll-reachability: every unbounded loop in governed engine code provably
reaches ExecContext::Poll on each cyclic path.

A CFG path analysis rather than a lexical check that some poll exists in
the loop body: a loop passes only when every fallthrough/continue path around
the cycle polls — directly (Poll*/CheckNow call), via a one-level
interprocedural summary (a callee whose own body polls), or behind a
null-guard on the execution context (`if (exec != nullptr) ... CheckNow()`
polls exactly when governance is attached). Loops whose bodies branch past
the enumeration cap fall back to the conservative existence check and say
so. A goto in governed code is its own finding: it escapes the structured
CFG model, so the invariant can no longer be proven.

Suppression: `// lint: allow(poll-reachability)` with a justification (for
loops that are provably bounded by construction but look unbounded).
"""

PASS_ID = "poll-reachability"
GOVERNED_DIRS = ("src/core/", "src/datalog1s/", "src/storage/")


def run(ctx):
    findings = []
    # One-level interprocedural summary: functions whose bodies poll
    # directly. Indexed by bare name — generous resolution is fine here
    # because crediting a non-callee never hides a real direct finding in
    # the callee itself (that function's own loops are still checked).
    polling_fns = set()
    for summary in ctx.summaries.values():
        for fn in summary["functions"]:
            if fn.get("direct_polls"):
                polling_fns.add(fn["name"])

    for path, summary in sorted(ctx.summaries.items()):
        if not (path.startswith(GOVERNED_DIRS) and path.endswith(".cc")):
            continue
        for fn in summary["functions"]:
            if fn.get("goto_line"):
                findings.append(ctx.finding(
                    path, fn["goto_line"], PASS_ID,
                    f"goto in governed function '{fn['qual_name']}' defeats "
                    "the CFG cycle analysis: restructure, or justify with "
                    "// lint: allow(poll-reachability)"))
            for loop in fn.get("unbounded_loops", []):
                if not loop.get("exact", True):
                    # Enumeration blow-up: conservative existence check.
                    polled = loop.get("has_poll_token") or any(
                        c in polling_fns for c in loop.get("callees", []))
                    if not polled:
                        findings.append(ctx.finding(
                            path, loop["line"], PASS_ID,
                            "unbounded loop (too branchy for path "
                            "enumeration) contains no poll and no polling "
                            "callee: call exec->Poll()/PollExec() in the "
                            "body"))
                    continue
                bad = [p for p in loop["paths"]
                       if not p["polled"] and
                       not any(c in polling_fns for c in p["callees"])]
                if bad:
                    callee_note = ""
                    callees = sorted({c for p in bad for c in p["callees"]})
                    if callees:
                        callee_note = (" (calls on the unpolled path: " +
                                       ", ".join(callees[:6]) + ")")
                    findings.append(ctx.finding(
                        path, loop["line"], PASS_ID,
                        f"{len(bad)} cyclic path(s) through this unbounded "
                        "loop never reach ExecContext::Poll — every "
                        "iteration must poll directly or via a polling "
                        f"callee{callee_note}"))
    return findings
