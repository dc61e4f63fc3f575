// Normalization of deductive programs into "generalized programs"
// (paper, Section 4.3).
//
// Following the paper's simplifying (but not restrictive) assumptions:
//   * integer constants are eliminated: a constant c in a temporal position
//     becomes a fresh variable v with the constraint v = c;
//   * clause heads get distinct temporal variables: a head p(x+2, x+2)
//     becomes p(h1, h2) with body constraints h1 = x + 2, h2 = x + 2;
//   * constraint atoms are folded into one difference-bound matrix per
//     clause (they are conjunctive within a body).
// The result is a NormalizedClause that the generalized-tuple evaluator
// (evaluator.h) can apply directly with join/project operations.
#ifndef LRPDB_CORE_NORMALIZER_H_
#define LRPDB_CORE_NORMALIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/statusor.h"
#include "src/constraints/dbm.h"

namespace lrpdb {

// A data argument of a normalized body atom: a dense clause data-variable
// index, or a constant.
struct NormalizedDataArg {
  int variable = -1;       // Dense index into the clause's data variables.
  DataValue constant = -1;  // Used when variable == -1.
  bool is_constant() const { return variable < 0; }
};

// A body predicate atom after normalization. Each temporal argument is
// (dense clause temporal variable, offset): the column value equals
// var + offset.
struct NormalizedBodyAtom {
  SymbolId predicate = -1;
  bool is_intensional = false;
  // Stratified negation: the engine resolves a negated atom to the
  // complement relation of its (lower-stratum) predicate and then unifies
  // positively against it.
  bool negated = false;
  std::vector<std::pair<int, int64_t>> temporal_args;
  std::vector<NormalizedDataArg> data_args;
};

// One clause of a generalized program.
struct NormalizedClause {
  SymbolId head_predicate = -1;
  // Dense temporal variables 0..num_temporal_vars-1; head columns reference
  // distinct variables.
  int num_temporal_vars = 0;
  int num_data_vars = 0;
  std::vector<int> head_temporal_vars;       // One distinct var per column.
  std::vector<NormalizedDataArg> head_data;  // Var or constant per column.
  std::vector<NormalizedBodyAtom> body;
  // Conjunction of all constraint atoms plus the equalities introduced by
  // head/constant elimination, over the dense temporal variables (DBM
  // variable i+1 is clause variable i).
  Dbm constraint{0};
  // Original-program variable names for the dense ids (for diagnostics).
  std::vector<std::string> temporal_var_names;
  std::vector<std::string> data_var_names;
  // True when the constraint conjunction is unsatisfiable (the clause can
  // never fire, e.g. it contains `5 < 3`); the evaluator skips it.
  bool always_false = false;

  // Number of body atoms over intensional predicates.
  int NumIntensionalAtoms() const {
    int n = 0;
    for (const NormalizedBodyAtom& a : body) n += a.is_intensional ? 1 : 0;
    return n;
  }
};

// Assembles one NormalizedClause from source atoms: dense ids for the
// source variables (in order of first use), temporal constants eliminated,
// constraint atoms lowered to difference bounds. Normalize builds every
// program clause through it; QueryAtom and the FO evaluator (src/fo) build
// their one-shot clauses with it too. The caller fills the clause head.
class ClauseBuilder {
 public:
  // `variables` names the source variables.
  explicit ClauseBuilder(const Interner& variables) : variables_(variables) {}

  // The dense id of source variable `var`, assigned at its first use.
  int TemporalVar(SymbolId var);
  int DataVar(SymbolId var);
  // A fresh temporal variable that no source variable names.
  int FreshTemporalVar(const std::string& name);
  NormalizedDataArg DataArg(const DataTerm& term);

  // Appends a body atom. A temporal constant c becomes a fresh variable
  // pinned to c.
  void AddAtom(SymbolId predicate, bool is_intensional, bool negated,
               const std::vector<TemporalTerm>& temporal_args,
               const std::vector<DataTerm>& data_args);
  // Conjoins `lhs op rhs` as difference bounds. A bound between two
  // occurrences of one term is decided at once; a false one makes the
  // clause always false.
  void AddComparison(const ConstraintAtom& comparison);
  // Conjoins variable == value.
  void AddEquality(int variable, int64_t value);
  // Conjoins lhs - rhs <= c (-1 names the zero variable).
  void AddBound(int lhs, int rhs, int64_t c);

  // The clause under construction: the caller sets its head fields.
  NormalizedClause& clause() { return clause_; }
  // Fills the variable counts, names and constraint (equalities first,
  // then bounds, each in the order added) and returns the clause.
  NormalizedClause Finish();

 private:
  struct PendingEquality {
    int variable;
    int64_t value;
  };
  struct PendingBound {
    int lhs;  // -1 for the zero variable.
    int rhs;
    int64_t c;
  };

  const Interner& variables_;
  NormalizedClause clause_;
  std::map<SymbolId, int> temporal_ids_;
  std::map<SymbolId, int> data_ids_;
  std::vector<std::string> temporal_names_;
  std::vector<std::string> data_names_;
  std::vector<PendingEquality> equalities_;
  std::vector<PendingBound> bounds_;
};

// A generalized program: the normalized clauses of `program`.
struct NormalizedProgram {
  std::vector<NormalizedClause> clauses;
};

// Normalizes every clause. Fails on arity mismatches (validated first) or on
// clauses whose head predicate is also used extensionally.
[[nodiscard]] StatusOr<NormalizedProgram> Normalize(const Program& program);

}  // namespace lrpdb

#endif  // LRPDB_CORE_NORMALIZER_H_
