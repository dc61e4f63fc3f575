// analyze-fixture-path: src/core/fixture_poll.cc
// Positive fixture for poll-reachability: unbounded governed loops with an
// unpolled cyclic path must be flagged; direct polls, polling callees, and
// null-guarded polls on every path must not.
#include "src/common/exec_context.h"
#include "src/common/status.h"

namespace lrpdb {

// No poll anywhere: flagged.
Status DrainForever(ExecContext* exec) {
  while (true) {  // expect-analyze: poll-reachability
    Step();
  }
}

// The empty-condition for-loop forms are unbounded too: flagged.
Status ForEverForm(ExecContext* exec) {
  for (;;) {  // expect-analyze: poll-reachability
    if (Step() == 0) break;
  }
  return OkStatus();
}

Status RoundForm(ExecContext* exec) {
  for (int round = 1;; ++round) {  // expect-analyze: poll-reachability
    if (Step() < round) break;
  }
  return OkStatus();
}

// A round loop that polls each iteration, and a plain bounded loop: clean.
Status RoundFormPolled(ExecContext* exec) {
  for (int round = 1;; ++round) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    if (Step() < round) break;
  }
  for (int i = 0; i < 10; ++i) Step();
  return OkStatus();
}

// Polls unconditionally on every iteration: clean.
Status DrainPolled(ExecContext* exec) {
  while (true) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    Step();
  }
}

// The continue path skips the poll: exactly one cyclic path is unpolled,
// which only path enumeration (not a lexical existence check) can see.
Status DrainSkippedPath(ExecContext* exec) {
  while (true) {  // expect-analyze: poll-reachability
    if (Ready()) {
      continue;
    }
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
  }
}

// Null-guarded poll: when exec is null there is no governance to poll, so
// the guarded branch counts as polled on both arms. Clean.
Status DrainNullGuarded(ExecContext* exec) {
  while (true) {
    if (exec != nullptr) {
      LRPDB_RETURN_IF_ERROR(exec->CheckNow());
    }
    Step();
  }
}

// Polls through a helper: the one-level interprocedural summary credits
// callees whose own bodies poll. Clean.
Status PollViaHelper(ExecContext* exec) {
  return PollExec(exec);
}

Status DrainViaHelper(ExecContext* exec) {
  while (true) {
    LRPDB_RETURN_IF_ERROR(PollViaHelper(exec));
    Step();
  }
}

// goto escapes the structured CFG model: its own finding.
Status DrainGoto(ExecContext* exec) {
top:
  Step();
  goto top;  // expect-analyze: poll-reachability
}

}  // namespace lrpdb
