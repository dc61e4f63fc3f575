#include "src/core/normalizer.h"

namespace lrpdb {

int ClauseBuilder::TemporalVar(SymbolId var) {
  auto [it, inserted] =
      temporal_ids_.emplace(var, clause_.num_temporal_vars);
  if (inserted) {
    ++clause_.num_temporal_vars;
    temporal_names_.push_back(variables_.NameOf(var));
  }
  return it->second;
}

int ClauseBuilder::DataVar(SymbolId var) {
  auto [it, inserted] = data_ids_.emplace(var, clause_.num_data_vars);
  if (inserted) {
    ++clause_.num_data_vars;
    data_names_.push_back(variables_.NameOf(var));
  }
  return it->second;
}

int ClauseBuilder::FreshTemporalVar(const std::string& name) {
  temporal_names_.push_back(name);
  return clause_.num_temporal_vars++;
}

NormalizedDataArg ClauseBuilder::DataArg(const DataTerm& term) {
  if (term.is_constant()) return {.variable = -1, .constant = term.constant};
  return {.variable = DataVar(term.variable), .constant = -1};
}

void ClauseBuilder::AddAtom(SymbolId predicate, bool is_intensional,
                            bool negated,
                            const std::vector<TemporalTerm>& temporal_args,
                            const std::vector<DataTerm>& data_args) {
  NormalizedBodyAtom atom;
  atom.predicate = predicate;
  atom.is_intensional = is_intensional;
  atom.negated = negated;
  for (const TemporalTerm& t : temporal_args) {
    if (t.is_constant()) {
      // Constant elimination: fresh var pinned to the constant.
      int v = FreshTemporalVar("$c" + std::to_string(t.offset));
      AddEquality(v, t.offset);
      atom.temporal_args.emplace_back(v, 0);
    } else {
      atom.temporal_args.emplace_back(TemporalVar(t.variable), t.offset);
    }
  }
  for (const DataTerm& d : data_args) atom.data_args.push_back(DataArg(d));
  clause_.body.push_back(std::move(atom));
}

void ClauseBuilder::AddComparison(const ConstraintAtom& c) {
  int lv = c.lhs.is_constant() ? -1 : TemporalVar(c.lhs.variable);
  int rv = c.rhs.is_constant() ? -1 : TemporalVar(c.rhs.variable);
  int64_t lo = c.lhs.offset;
  int64_t ro = c.rhs.offset;
  // lhs OP rhs where lhs = lv + lo (lv = 0 if constant), etc.
  // lv - rv <= k  with k depending on OP. Constraints between two
  // occurrences of the same term (or two constants) are decided
  // immediately.
  auto add_le = [&](int a, int b, int64_t k) {
    if (a == b) {
      if (k < 0) clause_.always_false = true;
      return;
    }
    AddBound(a, b, k);
  };
  switch (c.op) {
    case ComparisonOp::kLess:
      add_le(lv, rv, ro - lo - 1);
      break;
    case ComparisonOp::kLessEqual:
      add_le(lv, rv, ro - lo);
      break;
    case ComparisonOp::kEqual:
      add_le(lv, rv, ro - lo);
      add_le(rv, lv, lo - ro);
      break;
    case ComparisonOp::kGreaterEqual:
      add_le(rv, lv, lo - ro);
      break;
    case ComparisonOp::kGreater:
      add_le(rv, lv, lo - ro - 1);
      break;
  }
}

void ClauseBuilder::AddEquality(int variable, int64_t value) {
  equalities_.push_back({variable, value});
}

void ClauseBuilder::AddBound(int lhs, int rhs, int64_t c) {
  bounds_.push_back({lhs, rhs, c});
}

NormalizedClause ClauseBuilder::Finish() {
  // Exact-size copies: the builder's vectors die with it.
  clause_.temporal_var_names = temporal_names_;
  clause_.data_var_names = data_names_;
  clause_.constraint = Dbm(clause_.num_temporal_vars);
  for (const PendingEquality& eq : equalities_) {
    clause_.constraint.AddEquality(eq.variable + 1, eq.value);
  }
  for (const PendingBound& b : bounds_) {
    clause_.constraint.AddDifferenceUpperBound(
        b.lhs < 0 ? 0 : b.lhs + 1, b.rhs < 0 ? 0 : b.rhs + 1, b.c);
  }
  if (!clause_.constraint.IsSatisfiable()) clause_.always_false = true;
  return std::move(clause_);
}

[[nodiscard]] StatusOr<NormalizedProgram> Normalize(const Program& program) {
  LRPDB_RETURN_IF_ERROR(program.Validate());
  NormalizedProgram result;
  for (const Clause& clause : program.clauses()) {
    ClauseBuilder builder(program.variables());
    NormalizedClause& out = builder.clause();
    out.head_predicate = clause.head.predicate;

    // Body first, so source variable names keep their identity; head
    // freshening below refers back to these ids.
    for (const BodyAtom& atom : clause.body) {
      if (const auto* pred = std::get_if<PredicateAtom>(&atom)) {
        builder.AddAtom(pred->predicate,
                        program.IsIntensional(pred->predicate),
                        pred->negated, pred->temporal_args, pred->data_args);
      } else {
        builder.AddComparison(std::get<ConstraintAtom>(atom));
      }
    }

    // Head: one distinct fresh variable per temporal column, bound to the
    // source term by an equality (paper: "the generalized clauses must be
    // transformed in such a way that their heads are generalized atoms with
    // all their temporal parameters being distinct temporal variables").
    for (size_t col = 0; col < clause.head.temporal_args.size(); ++col) {
      const TemporalTerm& t = clause.head.temporal_args[col];
      int h = builder.FreshTemporalVar("$h" + std::to_string(col + 1));
      out.head_temporal_vars.push_back(h);
      if (t.is_constant()) {
        builder.AddEquality(h, t.offset);
      } else {
        int v = builder.TemporalVar(t.variable);
        // h = v + offset  <=>  h - v <= offset and v - h <= -offset.
        builder.AddBound(h, v, t.offset);
        builder.AddBound(v, h, -t.offset);
      }
    }
    for (const DataTerm& d : clause.head.data_args) {
      out.head_data.push_back(builder.DataArg(d));
    }
    result.clauses.push_back(builder.Finish());
  }
  return result;
}

}  // namespace lrpdb
