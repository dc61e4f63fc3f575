// The first-order query language of [KSW90] over generalized databases
// (paper, Sections 2.1 and 3.2).
//
// Queries are first-order formulas whose predicates take temporal parameters
// (interpreted over Z) and uninterpreted data parameters. The language has
// negation but no recursion; restricted to one temporal parameter over the
// naturals, its query expressiveness is the star-free omega-regular
// languages (Section 3.2).
//
// Evaluation is algebraic and exact on the generalized representation:
//   atoms         -> selection/shift/projection of stored relations,
//   conjunction   -> join on shared variables,
//   disjunction   -> union after extending both sides to the same columns,
//   negation      -> complement (all of Z^m for temporal columns, the
//                    active domain for data columns),
//   exists        -> projection.
// Answers are generalized relations, so infinite answers have finite
// representations (closed form), exactly as [KSW90] promises.
//
// Surface syntax (Parse):
//   train(t1, t2, "liege", B) & ~(exists t3 (meeting(t3) & t1 < t3))
// Operators: ~ binds tightest, then &, then |. `exists v1 v2 (phi)` binds
// variables of either kind; `forall v (phi)` abbreviates ~exists v ~(phi).
// Argument kinds come from the relation schemas; data arguments follow the
// Capitalized-variable convention.
#ifndef LRPDB_FO_FO_H_
#define LRPDB_FO_FO_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/statusor.h"
#include "src/gdb/algebra.h"
#include "src/gdb/database.h"

namespace lrpdb {

struct FoFormula;
using FoFormulaPtr = std::unique_ptr<FoFormula>;

// An atomic formula over a stored relation.
struct FoAtom {
  std::string predicate;
  std::vector<TemporalTerm> temporal_args;
  std::vector<DataTerm> data_args;
};

struct FoFormula {
  enum class Kind { kAtom, kComparison, kAnd, kOr, kNot, kExists };
  Kind kind = Kind::kAtom;

  FoAtom atom;                    // kAtom.
  ConstraintAtom comparison;      // kComparison.
  FoFormulaPtr left;              // kAnd/kOr; also the child of kNot/kExists.
  FoFormulaPtr right;             // kAnd/kOr.
  std::vector<SymbolId> bound;    // kExists: the quantified variables.
};

// A parsed query: the formula plus the variable interner giving names to
// SymbolIds and the inferred kind of each variable.
struct FoQuery {
  FoFormulaPtr formula;
  Interner variables;
  // variable -> true when temporal, false when data (inferred from the
  // positions the variable occurs in; mixed use is a parse error).
  std::map<SymbolId, bool> is_temporal;
};

// The result of evaluating a formula: a generalized relation whose temporal
// columns correspond (in order) to `temporal_vars` and data columns to
// `data_vars` -- the formula's free variables.
struct FoResult {
  std::vector<std::string> temporal_vars;
  std::vector<std::string> data_vars;
  GeneralizedRelation relation{RelationSchema{0, 0}};
};

// Parses an FO query against the schemas declared in `db`, plus (when
// given) `extra_schemas` -- typically the intensional predicates of an
// EvaluationResult, so FO queries can range over derived relations.
[[nodiscard]] StatusOr<FoQuery> ParseFoQuery(
    std::string_view source, Database* db,
    const std::map<std::string, RelationSchema>* extra_schemas = nullptr);

struct FoOptions {
  // Extra constants to include in the data active domain (the domain always
  // includes every constant stored in the database or written in the query).
  std::vector<DataValue> extra_constants;
  // Additional relations by name, consulted before the database -- pass
  // &EvaluationResult::idb to query a computed model. Not owned.
  const std::map<std::string, GeneralizedRelation>* extra_relations = nullptr;
};

// Evaluates `query` over `db`. Negation complements data columns over the
// active domain and temporal columns over all of Z. The algebra operators
// poll and charge whatever ExecContext is current
// (ExecContext::Current()); there is no governance option of its own, and
// with no context installed the query runs ungoverned.
[[nodiscard]] StatusOr<FoResult> EvaluateFoQuery(const FoQuery& query, const Database& db,
                                   const FoOptions& options = FoOptions());

}  // namespace lrpdb

#endif  // LRPDB_FO_FO_H_
