// The ground-semantics oracle of the generalized engine's tests.
//
// The closed form is correct only if it denotes the ground least model
// (paper, Section 4.3). EvaluateGround computes that model on a bounded
// window with its own join kernel over ground facts, independent of the
// generalized engine's lrp unification, residue normalization and
// subsumption, so it is the one oracle the engine is judged against. A
// ground derivation may pass through times outside any fixed window, so
// the oracle runs on a wider window [ground_lo, ground_hi) and the
// comparison is restricted to an interior [lo, hi) whose derivations
// provably fit inside it.
#ifndef LRPDB_TESTS_GROUND_ORACLE_H_
#define LRPDB_TESTS_GROUND_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"

namespace lrpdb {

// The facts of `facts` whose every time lies in [lo, hi), sorted.
inline std::vector<GroundTuple> GroundFactsIn(const GroundFactStore& facts,
                                              int64_t lo, int64_t hi) {
  std::vector<GroundTuple> out;
  for (const GroundTuple& fact : facts) {
    if (std::all_of(fact.times.begin(), fact.times.end(),
                    [&](int64_t t) { return t >= lo && t < hi; })) {
      out.push_back(fact);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Asserts that every intensional relation of `model` denotes, inside
// [lo, hi), exactly the facts EvaluateGround derives on
// [ground_lo, ground_hi).
inline void ExpectMatchesGroundOracle(const Program& program,
                                      const Database& db,
                                      const EvaluationResult& model,
                                      int64_t lo, int64_t hi,
                                      int64_t ground_lo, int64_t ground_hi) {
  GroundEvaluationOptions options;
  options.window_lo = ground_lo;
  options.window_hi = ground_hi;
  auto ground = EvaluateGround(program, db, options);
  ASSERT_TRUE(ground.ok()) << ground.status();
  ASSERT_EQ(ground->idb.size(), model.idb.size());
  for (const auto& [name, relation] : model.idb) {
    auto it = ground->idb.find(name);
    ASSERT_NE(it, ground->idb.end()) << name;
    EXPECT_EQ(relation.EnumerateGround(lo, hi),
              GroundFactsIn(it->second, lo, hi))
        << "relation " << name << " differs from the ground oracle on ["
        << lo << ", " << hi << ")";
  }
}

}  // namespace lrpdb

#endif  // LRPDB_TESTS_GROUND_ORACLE_H_
