// Failpoints: programmable fault injection, zero-cost when disarmed.
//
// Error paths are the least-executed code in the engine, so they are where
// bugs hide. A failpoint is a named site on such a path:
//
//   [[nodiscard]] StatusOr<InsertOutcome> TupleStore::Insert(...) {
//     LRPDB_FAILPOINT("tuple_store.insert");
//     ...
//   }
//
// Disarmed (the default), the macro costs one function-local static guard
// plus one relaxed atomic load and a predictable branch. Armed — from a
// test via failpoint::Arm(), or from the LRPDB_FAILPOINTS environment
// variable — the macro returns an injected error Status from the enclosing
// function, exercising the real unwind path. Every build compiles the
// sites in: the disarmed cost is what ships and what the benchmark
// measures.
//
// Naming convention (see DESIGN.md §7): "<component>.<operation>", e.g.
// "tuple_store.insert", "algebra.complement", "datalog1s.window". Sites
// register themselves on first execution; RegisteredNames() lets a test
// walk every site a workload reaches (run the workload once to prime, then
// iterate).
//
// Modes:
//   error-once     first armed hit returns an injected kInternal error,
//                  then the site disarms itself
//   error-every-N  every N-th armed hit errors ("error-every-3")
//   error          every armed hit errors
//   trip-budget    the hit trips the current ExecContext (if any) with
//                  kResourceExhausted, simulating a blown budget exactly at
//                  this site
//
// Environment syntax, applied to sites as they register:
//   LRPDB_FAILPOINTS="tuple_store.insert=error-once;algebra.complement=error-every-100"
#ifndef LRPDB_COMMON_FAILPOINT_H_
#define LRPDB_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace lrpdb {
namespace failpoint {

enum class Mode {
  kOff = 0,
  kErrorOnce,
  kErrorEveryN,
  kErrorAlways,
  kTripBudget,
};

// One registered site. Sites live forever once registered (interned in the
// process-wide registry); the macro caches the pointer in a function-local
// static so the registry lookup happens once per site per process.
struct Site {
  explicit Site(std::string site_name) : name(std::move(site_name)) {}

  const std::string name;
  // Fast-path gate: the macro only calls Hit() when this is true.
  std::atomic<bool> armed{false};
  std::atomic<int> mode{static_cast<int>(Mode::kOff)};
  std::atomic<int64_t> every_n{1};
  // Hits observed while armed (drives every-N) and errors injected.
  std::atomic<int64_t> armed_hits{0};
  std::atomic<int64_t> fires{0};
};

// Interns `name` in the registry and returns its site. If a pending spec
// (from LRPDB_FAILPOINTS or ArmFromSpec) names it, the site arms now.
Site* RegisterSite(const char* name);

// Evaluates an armed site: returns the injected error (or OK when the mode
// says this hit passes). Called by the macro only when `armed` is set.
[[nodiscard]] Status Hit(Site* site);

// Arms `name` (registering it if needed) with the given mode.
void Arm(const std::string& name, Mode mode, int64_t every_n = 1);
// Disarms `name` (no-op when unknown) / every site, and clears pending
// specs. Counters are reset on Arm, not on Disarm.
void Disarm(const std::string& name);
void DisarmAll();

// Parses "name=mode[;name=mode...]" (';' or ',' separated) and arms each
// entry. Unknown names become pending specs applied at registration.
[[nodiscard]] Status ArmFromSpec(const std::string& spec);

// Every site registered so far, sorted by name.
std::vector<std::string> RegisteredNames();
// Injected-error count for `name` (0 when unknown).
int64_t Fires(const std::string& name);

}  // namespace failpoint
}  // namespace lrpdb

// Injects an error return from the enclosing function when the named site
// is armed. Use only in functions returning Status or StatusOr<T>.
#define LRPDB_FAILPOINT(name_literal)                                        \
  do {                                                                       \
    static ::lrpdb::failpoint::Site* lrpdb_failpoint_site_ =                 \
        ::lrpdb::failpoint::RegisterSite(name_literal);                      \
    if (lrpdb_failpoint_site_->armed.load(std::memory_order_relaxed)) {      \
      ::lrpdb::Status lrpdb_failpoint_status_ =                              \
          ::lrpdb::failpoint::Hit(lrpdb_failpoint_site_);                    \
      if (!lrpdb_failpoint_status_.ok()) return lrpdb_failpoint_status_;     \
    }                                                                        \
  } while (false)

#endif  // LRPDB_COMMON_FAILPOINT_H_
