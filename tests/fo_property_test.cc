// Differential property tests for the FO evaluator: random formulas over
// random periodic databases, checked against a brute-force oracle that
// interprets the formula over a wide ground window.
//
// Soundness of the oracle: all EDB periods are <= 6 (so every subformula's
// truth value is periodic with period lcm <= 60 beyond the constraint
// offsets), quantifier nesting is <= 2, and all offsets are <= 5; hence the
// truth of the formula at free values in [-20, 20] only depends on facts
// and witnesses within [-150, 150], which the oracle covers. Data variables
// range over the active domain, as negation's complement does.
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fo/fo.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

constexpr int64_t kOracleLo = -150;
constexpr int64_t kOracleHi = 150;

// Brute-force interpretation of an FoFormula under a (temporal, data)
// variable assignment.
class Oracle {
 public:
  Oracle(const Database& db, std::vector<DataValue> domain)
      : db_(db), domain_(std::move(domain)) {}

  bool Holds(const FoFormula& formula,
             std::map<SymbolId, int64_t>& temporal,
             std::map<SymbolId, DataValue>& data,
             const FoQuery& query) const {
    switch (formula.kind) {
      case FoFormula::Kind::kAtom: {
        auto relation = db_.Relation(formula.atom.predicate);
        LRPDB_CHECK(relation.ok());
        std::vector<int64_t> times;
        for (const TemporalTerm& term : formula.atom.temporal_args) {
          times.push_back(term.is_constant()
                              ? term.offset
                              : temporal.at(term.variable) + term.offset);
        }
        std::vector<DataValue> values;
        for (const DataTerm& term : formula.atom.data_args) {
          values.push_back(term.is_constant() ? term.constant
                                              : data.at(term.variable));
        }
        return (*relation)->ContainsGround(times, values);
      }
      case FoFormula::Kind::kComparison: {
        auto value = [&](const TemporalTerm& term) {
          return term.is_constant() ? term.offset
                                    : temporal.at(term.variable) +
                                          term.offset;
        };
        int64_t l = value(formula.comparison.lhs);
        int64_t r = value(formula.comparison.rhs);
        switch (formula.comparison.op) {
          case ComparisonOp::kLess:
            return l < r;
          case ComparisonOp::kLessEqual:
            return l <= r;
          case ComparisonOp::kEqual:
            return l == r;
          case ComparisonOp::kGreaterEqual:
            return l >= r;
          case ComparisonOp::kGreater:
            return l > r;
        }
        return false;
      }
      case FoFormula::Kind::kAnd:
        return Holds(*formula.left, temporal, data, query) &&
               Holds(*formula.right, temporal, data, query);
      case FoFormula::Kind::kOr:
        return Holds(*formula.left, temporal, data, query) ||
               Holds(*formula.right, temporal, data, query);
      case FoFormula::Kind::kNot:
        return !Holds(*formula.left, temporal, data, query);
      case FoFormula::Kind::kExists: {
        return ExistsHolds(formula, 0, temporal, data, query);
      }
    }
    return false;
  }

 private:
  bool ExistsHolds(const FoFormula& formula, size_t index,
                   std::map<SymbolId, int64_t>& temporal,
                   std::map<SymbolId, DataValue>& data,
                   const FoQuery& query) const {
    if (index == formula.bound.size()) {
      return Holds(*formula.left, temporal, data, query);
    }
    SymbolId var = formula.bound[index];
    auto kind = query.is_temporal.find(var);
    if (kind == query.is_temporal.end()) {
      // Vacuous quantifier.
      return ExistsHolds(formula, index + 1, temporal, data, query);
    }
    if (kind->second) {
      return Witness(formula, index, var, temporal, data, query, temporal,
                     [](int64_t value) { return value; });
    }
    return Witness(formula, index, var, temporal, data, query, data,
                   [this](int64_t i) { return domain_[i]; });
  }

  // Tries each value of the quantified `var` (the window's, or the
  // domain's) in `binding`, restoring the binding of an outer variable of
  // the same name afterwards.
  template <typename Value, typename ValueAt>
  bool Witness(const FoFormula& formula, size_t index, SymbolId var,
               std::map<SymbolId, int64_t>& temporal,
               std::map<SymbolId, DataValue>& data, const FoQuery& query,
               std::map<SymbolId, Value>& binding, ValueAt value_at) const {
    std::optional<Value> outer;
    if (auto it = binding.find(var); it != binding.end()) outer = it->second;
    const bool is_temporal = query.is_temporal.at(var);
    const int64_t lo = is_temporal ? kOracleLo : 0;
    const int64_t hi =
        is_temporal ? kOracleHi : static_cast<int64_t>(domain_.size());
    bool found = false;
    for (int64_t i = lo; i < hi && !found; ++i) {
      binding[var] = static_cast<Value>(value_at(i));
      found = ExistsHolds(formula, index + 1, temporal, data, query);
    }
    if (outer.has_value()) {
      binding[var] = *outer;
    } else {
      binding.erase(var);
    }
    return found;
  }

  const Database& db_;
  std::vector<DataValue> domain_;
};

// Random formula sources over the fixed schema
//   a(time), b(time), c(time, data), m(time, time, time).
std::string RandomFormula(std::mt19937& rng, int depth,
                          const std::vector<std::string>& free_vars) {
  auto var = [&]() { return free_vars[rng() % free_vars.size()]; };
  auto offset = [&]() {
    int64_t k = static_cast<int64_t>(rng() % 11) - 5;
    if (k == 0) return std::string();
    return (k > 0 ? " + " : " - ") + std::to_string(k > 0 ? k : -k);
  };
  auto term = [&]() { return var() + offset(); };
  int choice = static_cast<int>(rng() % (depth > 0 ? 10 : 5));
  switch (choice) {
    case 0:
      return "a(" + term() + ")";
    case 1:
      return "b(" + term() + ")";
    case 2: {
      static const char* kOps[] = {"<", "<=", "=", ">=", ">"};
      return term() + " " + kOps[rng() % 5] + " " + term();
    }
    case 3: {
      static const char* kData[] = {"D", "E", "\"u\""};
      return "c(" + term() + ", " + kData[rng() % 3] + ")";
    }
    case 4:
      return "m(" + term() + ", " + term() + ", " + term() + ")";
    case 5:
      return "(" + RandomFormula(rng, depth - 1, free_vars) + " & " +
             RandomFormula(rng, depth - 1, free_vars) + ")";
    case 6:
      return "(" + RandomFormula(rng, depth - 1, free_vars) + " | " +
             RandomFormula(rng, depth - 1, free_vars) + ")";
    case 7:
      return "~(" + RandomFormula(rng, depth - 1, free_vars) + ")";
    case 8:
      // A disjunction whose sides have different data variables: each side
      // is extended over the other's through the active domain.
      return "((c(" + term() + ", D) & " +
             RandomFormula(rng, depth - 1, free_vars) + ") | c(" + term() +
             ", E))";
    default: {
      // exists over a fresh variable, usable inside the child; half the
      // time over a negation.
      std::string fresh = "q" + std::to_string(rng() % 2 + 1);
      std::vector<std::string> extended = free_vars;
      extended.push_back(fresh);
      std::string child = RandomFormula(rng, depth - 1, extended);
      if (rng() % 2 == 0) child = "~(" + child + ")";
      return "exists " + fresh + " (" + child + ")";
    }
  }
}

// The data constants of the formula's atoms.
void CollectConstants(const FoFormula& formula, std::set<DataValue>* out) {
  if (formula.kind == FoFormula::Kind::kAtom) {
    for (const DataTerm& d : formula.atom.data_args) {
      if (d.is_constant()) out->insert(d.constant);
    }
  }
  if (formula.left != nullptr) CollectConstants(*formula.left, out);
  if (formula.right != nullptr) CollectConstants(*formula.right, out);
}

class FoDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FoDifferentialTest, MatchesBruteForceOracle) {
  std::mt19937 rng(GetParam() * 31 + 7);
  for (int iter = 0; iter < 5; ++iter) {
    // Random database with small periods; m's one tuple mixes periods 2, 3
    // and 5.
    Database db;
    std::string schema = R"(
      .decl a(time)
      .decl b(time)
      .decl c(time, data)
      .decl m(time, time, time)
    )";
    auto lrp = [&rng]() {
      int64_t period = 2 + rng() % 5;  // 2..6
      return std::to_string(period) + "n+" + std::to_string(rng() % period);
    };
    auto facts = [&](const std::string& name) {
      std::string s;
      int n = 1 + static_cast<int>(rng() % 2);
      for (int i = 0; i < n; ++i) s += ".fact " + name + "(" + lrp() + ").\n";
      return s;
    };
    std::string source = schema + facts("a") + facts("b");
    for (int i = 0, n = 1 + static_cast<int>(rng() % 2); i < n; ++i) {
      source += ".fact c(" + lrp() + ", " + (rng() % 2 ? "\"u\"" : "\"v\"") +
                ").\n";
    }
    source += ".fact m(2n+" + std::to_string(rng() % 2) + ", 3n+" +
              std::to_string(rng() % 3) + ", 5n+" + std::to_string(rng() % 5) +
              ")" + (rng() % 2 ? " with T1 <= T2" : "") + ".\n";
    auto unit = Parse(source, &db);
    ASSERT_TRUE(unit.ok()) << unit.status() << "\n" << source;

    std::string formula_source = RandomFormula(rng, 2, {"x"});
    SCOPED_TRACE(source + "\nformula: " + formula_source);
    auto query = ParseFoQuery(formula_source, &db);
    ASSERT_TRUE(query.ok()) << query.status();
    auto result = EvaluateFoQuery(*query, db);
    ASSERT_TRUE(result.ok()) << result.status();

    // The active domain: the stored constants and the query's.
    std::set<DataValue> constants;
    const GeneralizedRelation& c = **db.Relation("c");
    for (EntryId id : c.live_ids()) constants.insert(c.tuple(id).data()[0]);
    CollectConstants(*query->formula, &constants);
    const std::vector<DataValue> domain(constants.begin(), constants.end());
    Oracle oracle(db, domain);

    // The free variable x may not occur (constant formulas); the free data
    // variables range over the domain, the first one varying slowest.
    ASSERT_LE(result->temporal_vars.size(), 1u);
    if (!result->temporal_vars.empty()) {
      ASSERT_EQ(result->temporal_vars, (std::vector<std::string>{"x"}));
    }
    const SymbolId x = query->variables.Find("x");
    std::vector<SymbolId> data_vars;
    for (const std::string& name : result->data_vars) {
      data_vars.push_back(query->variables.Find(name));
    }
    size_t rows = 1;
    for (size_t i = 0; i < data_vars.size(); ++i) rows *= domain.size();
    for (size_t row = 0; row < rows; ++row) {
      std::map<SymbolId, DataValue> data;
      std::vector<DataValue> values(data_vars.size());
      for (size_t i = data_vars.size(), rest = row; i-- > 0;
           rest /= domain.size()) {
        values[i] = domain[rest % domain.size()];
        data[data_vars[i]] = values[i];
      }
      if (result->temporal_vars.empty()) {
        std::map<SymbolId, int64_t> temporal;
        ASSERT_EQ(result->relation.ContainsGround({}, values),
                  oracle.Holds(*query->formula, temporal, data, *query))
            << "row " << row;
        continue;
      }
      for (int64_t t = -20; t <= 20; ++t) {
        std::map<SymbolId, int64_t> temporal{{x, t}};
        ASSERT_EQ(result->relation.ContainsGround({t}, values),
                  oracle.Holds(*query->formula, temporal, data, *query))
            << "t=" << t << " row " << row;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoDifferentialTest, ::testing::Range(1, 41));

}  // namespace
}  // namespace lrpdb
