"""lock-order: the lock-acquisition graph must be acyclic.

Edges come from two sources and must agree:

  declared — LRPDB_ACQUIRED_AFTER/ACQUIRED_BEFORE annotations on mutex
             members (e.g. `std::mutex b_mu_ LRPDB_ACQUIRED_AFTER(a_mu_);`
             declares b_mu_ acquired after a_mu_);
  observed — AST acquisition sequences: every scoped guard
             (lock_guard/unique_lock/shared_lock/scoped_lock, honoring
             .unlock()/.lock() and defer_lock) acquired while another lock
             is held adds an edge held→acquired, and a call made under a
             held lock adds edges to every mutex the callee directly
             acquires (one-level summary, LRPDB_ACQUIRE and
             EXCLUSIVE_LOCKS_REQUIRED annotations included).

A cycle in the union graph is a potential deadlock and fails CI at the
first observed edge of the cycle. Acquiring the same mutex member on two
different instances (other.mu_ then mu_) is its own finding:
it deadlocks against the mirrored call unless callers serialize, so it
requires an explicit `// lint: allow(lock-order)` justification.
"""

PASS_ID = "lock-order"


def _split_expr(expr):
    """'other.mu_' -> ('other', 'mu_'); 'mu_' -> ('', 'mu_')."""
    expr = expr.lstrip("*&")
    for sep in ("->", "."):
        if sep in expr:
            head, _, tail = expr.rpartition(sep)
            return head, tail
    return "", expr


class _Resolver:
    def __init__(self, summaries):
        self.mutex_classes = {}   # member name -> [class]
        for summary in summaries.values():
            for cls, members in summary.get("members", {}).items():
                for name, info in members.items():
                    if info["kind"] == "mutex":
                        self.mutex_classes.setdefault(name, []).append(cls)

    def resolve(self, expr, fn, path):
        """(mutex_id, instance_tag) for a raw acquisition expression."""
        instance, member = _split_expr(expr)
        cls = fn.get("class_name", "")
        local = fn.get("local_containers", {})
        if not instance and member in local and \
                local[member]["kind"] == "mutex":
            return f"{path}::{fn['name']}::{member}", ""
        candidates = self.mutex_classes.get(member, [])
        if cls and cls in candidates:
            return f"{cls}::{member}", instance
        if len(candidates) == 1:
            return f"{candidates[0]}::{member}", instance
        # Unresolved: keep it distinct per member name so unrelated
        # unknowns never alias into a false cycle.
        return f"?::{member}", instance


def run(ctx):
    findings = []
    resolver = _Resolver(ctx.summaries)

    # One-level callee summaries: mutexes a function directly acquires.
    direct_acquires = {}   # fn name -> set of resolved mutex ids
    annots_by_key = {}
    for summary in ctx.summaries.values():
        annots_by_key.update(summary.get("decl_annotations", {}))
    for path, summary in ctx.summaries.items():
        for fn in summary["functions"]:
            acq = set()
            for ev in fn.get("lock_events", []):
                if ev["op"] == "acquire":
                    acq.add(resolver.resolve(ev["what"], fn, path)[0])
            keys = [fn["qual_name"], fn["name"]]
            if fn.get("class_name"):
                keys.append(f"{fn['class_name']}::{fn['name']}")
            for key in keys:
                for kind, args in annots_by_key.get(key, []):
                    if kind in ("ACQUIRE", "ACQUIRE_SHARED"):
                        for a in args.split(","):
                            if a.strip():
                                acq.add(resolver.resolve(a.strip(), fn,
                                                         path)[0])
            for kind, args in fn.get("sig_annotations", []):
                if kind in ("ACQUIRE", "ACQUIRE_SHARED"):
                    for a in args.split(","):
                        if a.strip():
                            acq.add(resolver.resolve(a.strip(), fn, path)[0])
            if acq:
                direct_acquires.setdefault(fn["name"], set()).update(acq)

    edges = {}   # (from_id, to_id) -> (path, line, note)

    def add_edge(frm, to, path, line, note):
        if frm == to:
            return
        edges.setdefault((frm, to), (path, line, note))

    # Declared edges.
    for summary in ctx.summaries.values():
        for cls, members in summary.get("members", {}).items():
            for name, info in members.items():
                if info["kind"] != "mutex":
                    continue
                me = f"{cls}::{name}"
                for other in info.get("acquired_after", []):
                    for part in other.split(","):
                        if part.strip():
                            oid = f"{cls}::{_split_expr(part.strip())[1]}"
                            add_edge(oid, me, summary["path"], info["line"],
                                     "declared LRPDB_ACQUIRED_AFTER")
                for other in info.get("acquired_before", []):
                    for part in other.split(","):
                        if part.strip():
                            oid = f"{cls}::{_split_expr(part.strip())[1]}"
                            add_edge(me, oid, summary["path"], info["line"],
                                     "declared LRPDB_ACQUIRED_BEFORE")

    # Observed edges + same-mutex double acquisition.
    for path, summary in sorted(ctx.summaries.items()):
        for fn in summary["functions"]:
            for ev in fn.get("lock_events", []):
                if ev["op"] == "acquire":
                    to_id, to_tag = resolver.resolve(ev["what"], fn, path)
                    for h in ev["held"]:
                        h_id, h_tag = resolver.resolve(h, fn, path)
                        if h_id == to_id:
                            kind = ("cross-instance" if h_tag != to_tag
                                    else "recursive")
                            findings.append(ctx.finding(
                                path, ev["line"], PASS_ID,
                                f"{kind} acquisition of {to_id} "
                                f"('{ev['what']}' while '{h}' is held): "
                                "deadlocks against the mirrored call order "
                                "unless callers serialize — justify with "
                                "// lint: allow(lock-order)"))
                        else:
                            add_edge(h_id, to_id, path, ev["line"],
                                     f"observed in {fn['qual_name']}")
                elif ev["op"] == "call":
                    callee_acq = direct_acquires.get(ev["what"], ())
                    for h in ev["held"]:
                        h_id, _ = resolver.resolve(h, fn, path)
                        for to_id in callee_acq:
                            add_edge(h_id, to_id, path, ev["line"],
                                     f"call to {ev['what']} under {h_id} "
                                     f"in {fn['qual_name']}")

    # Cycle detection over the union graph.
    graph = {}
    for (frm, to) in edges:
        graph.setdefault(frm, set()).add(to)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    stack = []
    cycles = []

    def dfs(node):
        color[node] = GREY
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            c = color.get(nxt, WHITE)
            if c == GREY:
                cycles.append(stack[stack.index(nxt):] + [nxt])
            elif c == WHITE:
                dfs(nxt)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color.get(node, WHITE) == WHITE:
            dfs(node)

    for cycle in cycles:
        # Anchor the finding at the first observed (non-declared) edge.
        anchor = None
        notes = []
        for frm, to in zip(cycle, cycle[1:]):
            path, line, note = edges[(frm, to)]
            notes.append(f"{frm} -> {to} ({note}, {path}:{line})")
            if anchor is None and not note.startswith("declared"):
                anchor = (path, line)
        if anchor is None:
            path, line, _ = edges[(cycle[0], cycle[1])]
            anchor = (path, line)
        findings.append(ctx.finding(
            anchor[0], anchor[1], PASS_ID,
            "lock-acquisition cycle: " + "; ".join(notes)))
    return findings
