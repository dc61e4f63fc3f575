// Seeded workload generator: a synthetic university whose triples carry
// periodic validity, in the spirit of the tLUBM `add_timestamp` pass that
// attaches random validity intervals to LUBM triples.
//
// Every triple becomes one generalized fact with a weekly linear repeating
// point (time unit: one hour, period 168) and a validity window:
//
//   teaches(168n+slot, P, C)   course C's lecture hour, bounded semester
//   takes(168n+slot, S, C)     student S attends C's lecture, bounded
//                              registration; a share is renewed with a
//                              second, overlapping window
//   advises(168n+slot, P, S)   weekly meeting, open-ended (T1 >= lo); a
//                              share of students has a second meeting
//
// All times are >= 0 and every shift in kProgram is forward, so the ground
// model inside any window [0, hi) depends only on facts inside it: the
// bounded-window ground evaluation is an exact oracle there.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "src/constraints/dbm.h"
#include "src/gdb/database.h"
#include "src/gdb/generalized_tuple.h"
#include "src/storage/codec.h"

namespace perfbench {

// The evaluated program: a copy rule, a two-atom and a three-atom join on
// shared data variables, and the Example 4.1 shape (shift, then a recursive
// shift whose offsets cycle modulo the period until the closed form is
// reached).
extern const char kProgram[];

enum class Rel { kTeaches, kTakes, kAdvises };
const char* RelName(Rel rel);

// One generated fact. `hi < 0` means the window is open above.
struct Fact {
  Rel rel = Rel::kTeaches;
  int64_t slot = 0;  // lrp 168n + slot
  std::string a;     // first data column
  std::string b;     // second data column
  int64_t lo = 0;
  int64_t hi = -1;

  // ".fact rel(168n+slot, "a", "b") with T1 >= lo, T1 <= hi."
  std::string ToSurface() const;
  // lo <= T1 (<= hi) over the one temporal column.
  lrpdb::Dbm Constraint() const;
  // The tuple the parser builds for ToSurface(), interned through `db`.
  lrpdb::GeneralizedTuple ToTuple(lrpdb::Database* db) const;
  lrpdb::storage::BatchFact ToBatchFact() const;
};

constexpr int64_t kPeriod = 168;

// Input properties that drive evaluation cost.
struct InputProfile {
  int64_t facts = 0;
  int64_t teaches = 0;
  int64_t takes = 0;
  int64_t advises = 0;
  // Facts repeating an earlier fact's (relation, data): renewed
  // registrations and second advising meetings.
  int64_t repeats = 0;
  // Distinct free-extension signatures (relation, lrp, data) of the EDB.
  int64_t signatures = 0;

  std::string ToString() const;
};

InputProfile Profile(const std::vector<Fact>& facts);

class Generator {
 public:
  // Each department has 12 professors, 36 courses and `students` students;
  // a student brings about 6 facts.
  Generator(uint64_t seed, int departments, int students);

  // The initial extensional database, in generation order.
  const std::vector<Fact>& base() const { return base_; }

  // The next `n` facts of students who enrol after the base was emitted:
  // each new student takes courses of an existing department and gets an
  // existing professor as advisor, so every fresh fact joins. Facts are
  // pairwise distinct and distinct from every earlier fact.
  std::vector<Fact> Fresh(int n);

  // Point-query sources, drawn from the base.
  // An (advisor, student) pair of some advises fact.
  std::pair<std::string, std::string> AdvisedPair();
  // A time inside the populated range.
  int64_t TimePoint();

 private:
  struct Course {
    std::string name;
    std::string teacher;
    int64_t slot = 0;
    int64_t lo = 0;
    int64_t hi = 0;
  };
  struct Department {
    std::vector<std::string> professors;
    std::vector<Course> courses;
  };

  int64_t Uniform(int64_t lo, int64_t hi);  // inclusive
  int64_t LectureSlot();
  // Emits one student's facts: takes (plus renewals) and advises.
  void EmitStudent(int department, const std::string& student,
                   std::vector<Fact>* out);

  std::mt19937_64 rng_;
  std::vector<Department> departments_;
  std::vector<Fact> base_;
  std::vector<std::pair<std::string, std::string>> advised_;
  int64_t next_student_ = 0;
  std::deque<Fact> pending_;
};

// The program followed by the facts, as one parseable source.
std::string Source(const std::vector<Fact>& facts);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
