#include "perfbench/generator.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "src/lrp/lrp.h"

namespace perfbench {

const char kProgram[] = R"(
.decl teaches(time, data, data)
.decl takes(time, data, data)
.decl advises(time, data, data)
.decl lecture(time, data, data)
.decl attends(time, data, data)
.decl meets(time, data, data)
.decl consult(time, data, data)
lecture(t, P, C) :- teaches(t, P, C).
attends(t, S, P) :- takes(t, S, C), teaches(t, P, C).
meets(t, P, S) :- teaches(t, P, C), takes(t, S, C), advises(u, P, S), u <= t.
consult(t + 2, P, S) :- advises(t, P, S).
consult(t + 48, P, S) :- consult(t, P, S).
)";

namespace {

constexpr int kProfessorsPerDepartment = 12;
constexpr int kCoursesPerProfessor = 3;
constexpr int kCoursesPerStudent = 4;
// Share of takes facts, in percent, that get a renewed, overlapping window.
constexpr int kRenewPercent = 25;
// Share of students, in percent, with a second weekly advising meeting. Its
// hour is a multiple of 24 away from the first, which puts it on the orbit
// of the first meeting's consult recursion: when it starts later, its
// derivations are absorbed by the first chain's entries and must be
// re-derived when that chain goes; when it starts earlier, they extend
// them.
constexpr int kSecondMeetingPercent = 25;

}  // namespace

const char* RelName(Rel rel) {
  switch (rel) {
    case Rel::kTeaches:
      return "teaches";
    case Rel::kTakes:
      return "takes";
    case Rel::kAdvises:
      return "advises";
  }
  return "?";
}

std::string Fact::ToSurface() const {
  std::string s = ".fact ";
  s += RelName(rel);
  s += "(168n+" + std::to_string(slot) + ", \"" + a + "\", \"" + b +
       "\") with T1 >= " + std::to_string(lo);
  if (hi >= 0) s += ", T1 <= " + std::to_string(hi);
  s += ".\n";
  return s;
}

lrpdb::Dbm Fact::Constraint() const {
  lrpdb::Dbm constraint(1);
  constraint.AddLowerBound(1, lo);
  if (hi >= 0) constraint.AddUpperBound(1, hi);
  return constraint;
}

lrpdb::GeneralizedTuple Fact::ToTuple(lrpdb::Database* db) const {
  return lrpdb::GeneralizedTuple({lrpdb::Lrp(kPeriod, slot)},
                                 {db->Constant(a), db->Constant(b)},
                                 Constraint());
}

lrpdb::storage::BatchFact Fact::ToBatchFact() const {
  lrpdb::storage::BatchFact fact;
  fact.relation = RelName(rel);
  fact.lrps = {lrpdb::Lrp(kPeriod, slot)};
  fact.data = {a, b};
  fact.constraint = Constraint();
  return fact;
}

InputProfile Profile(const std::vector<Fact>& facts) {
  InputProfile p;
  std::set<std::tuple<int, int64_t, std::string, std::string>> signatures;
  std::set<std::tuple<int, std::string, std::string>> pairs;
  for (const Fact& f : facts) {
    ++p.facts;
    switch (f.rel) {
      case Rel::kTeaches:
        ++p.teaches;
        break;
      case Rel::kTakes:
        ++p.takes;
        break;
      case Rel::kAdvises:
        ++p.advises;
        break;
    }
    signatures.emplace(static_cast<int>(f.rel), f.slot, f.a, f.b);
    if (!pairs.emplace(static_cast<int>(f.rel), f.a, f.b).second) ++p.repeats;
  }
  p.signatures = static_cast<int64_t>(signatures.size());
  return p;
}

std::string InputProfile::ToString() const {
  return std::to_string(facts) + " facts (" + std::to_string(teaches) +
         " teaches, " + std::to_string(takes) + " takes, " +
         std::to_string(advises) + " advises; " + std::to_string(repeats) +
         " repeat an earlier pair), " + std::to_string(signatures) +
         " distinct free-extension signatures";
}

Generator::Generator(uint64_t seed, int departments, int students)
    : rng_(seed) {
  for (int d = 0; d < departments; ++d) {
    Department dept;
    const std::string tag = std::to_string(d);
    for (int i = 0; i < kProfessorsPerDepartment; ++i) {
      dept.professors.push_back("prof" + tag + "_" + std::to_string(i));
    }
    for (int i = 0; i < kProfessorsPerDepartment * kCoursesPerProfessor; ++i) {
      Course c;
      c.name = "course" + tag + "_" + std::to_string(i);
      c.teacher = dept.professors[i % kProfessorsPerDepartment];
      c.slot = LectureSlot();
      c.lo = Uniform(0, 2000);
      c.hi = c.lo + Uniform(1000, 3000);
      base_.push_back(Fact{Rel::kTeaches, c.slot, c.teacher, c.name, c.lo,
                           c.hi});
      dept.courses.push_back(std::move(c));
    }
    departments_.push_back(std::move(dept));
  }
  for (int d = 0; d < departments; ++d) {
    for (int s = 0; s < students; ++s) {
      EmitStudent(d, "stud" + std::to_string(next_student_++), &base_);
    }
  }
}

int64_t Generator::Uniform(int64_t lo, int64_t hi) {
  // Modulo reduction rather than std::uniform_int_distribution, whose
  // output is implementation-defined: the same seed must give the same
  // inputs with any standard library.
  return lo + static_cast<int64_t>(rng_() % static_cast<uint64_t>(hi - lo + 1));
}

int64_t Generator::LectureSlot() {
  // Monday..Friday, 08:00..17:00.
  return Uniform(0, 4) * 24 + Uniform(8, 17);
}

void Generator::EmitStudent(int department, const std::string& student,
                            std::vector<Fact>* out) {
  Department& dept = departments_[department];
  std::set<size_t> chosen;
  while (static_cast<int>(chosen.size()) < kCoursesPerStudent) {
    chosen.insert(static_cast<size_t>(
        Uniform(0, static_cast<int64_t>(dept.courses.size()) - 1)));
  }
  for (size_t index : chosen) {
    const Course& c = dept.courses[index];
    // Registration inside the semester; the course spans >= 1000 hours, so
    // the window keeps at least one lecture.
    int64_t lo = c.lo + Uniform(0, 200);
    int64_t hi = c.hi - Uniform(0, 200);
    out->push_back(Fact{Rel::kTakes, c.slot, student, c.name, lo, hi});
    if (Uniform(0, 99) < kRenewPercent) {
      int64_t renew_lo = hi - Uniform(0, 300);
      out->push_back(Fact{Rel::kTakes, c.slot, student, c.name, renew_lo,
                          hi + Uniform(500, 1500)});
    }
  }
  const std::string& advisor = dept.professors[static_cast<size_t>(
      Uniform(0, kProfessorsPerDepartment - 1))];
  const int64_t slot = Uniform(0, kPeriod - 1);
  const int64_t lo = Uniform(0, 2000);
  out->push_back(Fact{Rel::kAdvises, slot, advisor, student, lo, -1});
  if (Uniform(0, 99) < kSecondMeetingPercent) {
    out->push_back(Fact{Rel::kAdvises, (slot + 24 * Uniform(1, 6)) % kPeriod,
                        advisor, student,
                        std::max<int64_t>(0, lo + Uniform(-500, 500)), -1});
  }
  if (out == &base_) advised_.emplace_back(advisor, student);
}

std::vector<Fact> Generator::Fresh(int n) {
  while (static_cast<int>(pending_.size()) < n) {
    std::vector<Fact> facts;
    int department = static_cast<int>(
        Uniform(0, static_cast<int64_t>(departments_.size()) - 1));
    EmitStudent(department, "new" + std::to_string(next_student_++), &facts);
    pending_.insert(pending_.end(), facts.begin(), facts.end());
  }
  std::vector<Fact> out(pending_.begin(), pending_.begin() + n);
  pending_.erase(pending_.begin(), pending_.begin() + n);
  return out;
}

std::pair<std::string, std::string> Generator::AdvisedPair() {
  return advised_[static_cast<size_t>(
      Uniform(0, static_cast<int64_t>(advised_.size()) - 1))];
}

int64_t Generator::TimePoint() { return Uniform(0, 4000); }

std::string Source(const std::vector<Fact>& facts) {
  std::string source = kProgram;
  for (const Fact& f : facts) source += f.ToSurface();
  return source;
}

}  // namespace perfbench
