// Self-tests of the benchmark's own machinery: generator determinism per
// seed (and that every generated fact survives parsing unchanged, which
// exact-match retraction relies on), the percentile rule, and span
// self-time arithmetic. Run with `python3 perfbench/run.py --selftest`.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/generator.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "src/parser/parser.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAILED line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::string Render(const std::vector<perfbench::Fact>& facts) {
  std::string s;
  for (const perfbench::Fact& f : facts) s += f.ToSurface();
  return s;
}

void TestGeneratorDeterminism() {
  perfbench::Generator a(7, 2, 40);
  perfbench::Generator b(7, 2, 40);
  perfbench::Generator c(8, 2, 40);
  EXPECT(Render(a.base()) == Render(b.base()));
  EXPECT(Render(a.base()) != Render(c.base()));
  // The update stream and the query sources repeat too.
  for (int i = 0; i < 5; ++i) {
    EXPECT(Render(a.Fresh(64)) == Render(b.Fresh(64)));
    EXPECT(a.AdvisedPair() == b.AdvisedPair());
    EXPECT(a.TimePoint() == b.TimePoint());
  }
  // Fresh facts are new: none repeats a base fact or an earlier fresh one.
  std::vector<perfbench::Fact> all = a.base();
  for (int i = 0; i < 5; ++i) {
    std::vector<perfbench::Fact> fresh = a.Fresh(64);
    EXPECT(fresh.size() == 64);
    all.insert(all.end(), fresh.begin(), fresh.end());
  }
  std::vector<std::string> lines;
  for (const perfbench::Fact& f : all) lines.push_back(f.ToSurface());
  std::sort(lines.begin(), lines.end());
  EXPECT(std::adjacent_find(lines.begin(), lines.end()) == lines.end());
}

void TestFactsParseExactly() {
  perfbench::Generator gen(3, 1, 60);
  lrpdb::Database db;
  lrpdb::StatusOr<lrpdb::ParsedUnit> unit =
      lrpdb::Parse(perfbench::Source(gen.base()), &db);
  EXPECT(unit.ok());
  if (!unit.ok()) return;
  perfbench::InputProfile profile = perfbench::Profile(gen.base());
  int64_t stored = 0;
  for (const std::string& name : db.RelationNames()) {
    stored += static_cast<int64_t>((*db.Relation(name))->store().size());
  }
  // No fact is dropped or absorbed by another at load time.
  EXPECT(stored == profile.facts);
  EXPECT(profile.facts == profile.teaches + profile.takes + profile.advises);
  // The tuple a Fact builds is bit-identical to the one the parser stored,
  // so retracting by value finds it.
  for (const perfbench::Fact& f : gen.base()) {
    lrpdb::GeneralizedTuple t = f.ToTuple(&db);
    const lrpdb::TupleStore& store =
        (*db.Relation(perfbench::RelName(f.rel)))->store();
    bool found = false;
    for (size_t i = 0; i < store.size() && !found; ++i) {
      const lrpdb::GeneralizedTuple& s =
          store.tuple(static_cast<lrpdb::EntryId>(i));
      found = s.lrps() == t.lrps() && s.data() == t.data() &&
              s.constraint() == t.constraint();
    }
    EXPECT(found);
    if (!found) return;
  }
}

void TestPercentileRule() {
  using perfbench::MinSamplesFor;
  using perfbench::SamplesBeyond;
  EXPECT(SamplesBeyond(99, 1000) == 10);
  EXPECT(SamplesBeyond(99, 999) == 9);
  EXPECT(SamplesBeyond(90, 100) == 10);
  EXPECT(SamplesBeyond(90, 99) == 9);
  EXPECT(SamplesBeyond(50, 20) == 10);
  EXPECT(MinSamplesFor(99) == 1000);
  EXPECT(MinSamplesFor(90) == 100);
  EXPECT(MinSamplesFor(50) == 20);
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(1001 - i);  // unsorted
  EXPECT(perfbench::Percentile(samples, 99) == 990);
  EXPECT(perfbench::Percentile(samples, 90) == 900);
  EXPECT(perfbench::Percentile(samples, 50) == 500);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
}

void TestSelfTimes() {
  using perfbench::Span;
  // parent [0, 100) with overlapping children [10, 30) and [20, 50), a
  // disjoint one [60, 70), and one running past the parent's end [90, 120)
  // that is clipped; the grandchild [25, 28) belongs to its own parent.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},        {"c", 60, 70, 0, 1},
      {"d", 90, 120, 0, 1},       {"grandchild", 25, 28, 1, 1},
  };
  std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self[0] == 100 - (40 + 10 + 10));
  EXPECT(self[1] == 20 - 3);
  EXPECT(self[2] == 30);
  EXPECT(self[5] == 3);
  auto totals = perfbench::TotalsByName(spans);
  EXPECT(totals["parent"].count == 1);
  EXPECT(totals["parent"].total_ns == 100);
  EXPECT(totals["parent"].self_ns == 40);

  // Scopes nest: each span's parent is the innermost open one, and a
  // disabled recorder records nothing.
  perfbench::SpanRecorder recorder(true);
  recorder.set_op(9);
  {
    perfbench::Scope outer(&recorder, "outer");
    { perfbench::Scope inner(&recorder, "inner"); }
    { perfbench::Scope second(&recorder, "second"); }
  }
  EXPECT(recorder.spans().size() == 3);
  EXPECT(recorder.spans()[0].parent == -1);
  EXPECT(recorder.spans()[1].parent == 0);
  EXPECT(recorder.spans()[2].parent == 0);
  EXPECT(recorder.spans()[2].op == 9);
  for (int64_t s : perfbench::SelfTimesNs(recorder.spans())) EXPECT(s >= 0);
  perfbench::SpanRecorder off(false);
  { perfbench::Scope ignored(&off, "ignored"); }
  EXPECT(off.spans().empty());
}

}  // namespace

int main() {
  TestGeneratorDeterminism();
  TestFactsParseExactly();
  TestPercentileRule();
  TestSelfTimes();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
