#include "src/ast/ast.h"

namespace lrpdb {

[[nodiscard]] Status Program::Declare(const std::string& name, RelationSchema schema) {
  SymbolId id = predicates_.Intern(name);
  auto [it, inserted] = declarations_.emplace(id, schema);
  if (!inserted && !(it->second == schema)) {
    return InvalidArgumentError("predicate '" + name +
                                "' re-declared with a different schema");
  }
  return OkStatus();
}

std::optional<RelationSchema> Program::SchemaOf(SymbolId predicate) const {
  auto it = declarations_.find(predicate);
  if (it == declarations_.end()) return std::nullopt;
  return it->second;
}

[[nodiscard]] Status Program::AddClause(Clause clause) {
  idb_.insert(clause.head.predicate);
  clauses_.push_back(std::move(clause));
  return OkStatus();
}

namespace {

[[nodiscard]] Status CheckAtomArity(const Program& program, const PredicateAtom& atom) {
  std::optional<RelationSchema> schema = program.SchemaOf(atom.predicate);
  if (!schema.has_value()) {
    return NotFoundError("predicate '" +
                         program.predicates().NameOf(atom.predicate) +
                         "' used but never declared");
  }
  if (static_cast<int>(atom.temporal_args.size()) != schema->temporal_arity ||
      static_cast<int>(atom.data_args.size()) != schema->data_arity) {
    return InvalidArgumentError(
        "atom " + program.AtomToString(atom) +
        " does not match the declared arity of '" +
        program.predicates().NameOf(atom.predicate) + "'");
  }
  return OkStatus();
}

}  // namespace

[[nodiscard]] Status Program::Validate() const {
  for (const Clause& clause : clauses_) {
    LRPDB_RETURN_IF_ERROR(CheckAtomArity(*this, clause.head));
    if (clause.head.negated) {
      return InvalidArgumentError("clause heads cannot be negated");
    }
    for (const BodyAtom& atom : clause.body) {
      if (const auto* pred = std::get_if<PredicateAtom>(&atom)) {
        LRPDB_RETURN_IF_ERROR(CheckAtomArity(*this, *pred));
      }
    }
    // Safety of negation: every variable (temporal or data) of a negated
    // body atom must occur in some positive body predicate atom.
    auto occurs_positively = [&](SymbolId var, bool temporal) {
      for (const BodyAtom& atom : clause.body) {
        const auto* pred = std::get_if<PredicateAtom>(&atom);
        if (pred == nullptr || pred->negated) continue;
        if (temporal) {
          for (const TemporalTerm& t : pred->temporal_args) {
            if (!t.is_constant() && t.variable == var) return true;
          }
        } else {
          for (const DataTerm& d : pred->data_args) {
            if (!d.is_constant() && d.variable == var) return true;
          }
        }
      }
      return false;
    };
    for (const BodyAtom& atom : clause.body) {
      const auto* pred = std::get_if<PredicateAtom>(&atom);
      if (pred == nullptr || !pred->negated) continue;
      for (const TemporalTerm& t : pred->temporal_args) {
        if (!t.is_constant() && !occurs_positively(t.variable, true)) {
          return InvalidArgumentError(
              "temporal variable '" + variables_.NameOf(t.variable) +
              "' of a negated atom does not occur in any positive body "
              "atom");
        }
      }
      for (const DataTerm& d : pred->data_args) {
        if (!d.is_constant() && !occurs_positively(d.variable, false)) {
          return InvalidArgumentError(
              "data variable '" + variables_.NameOf(d.variable) +
              "' of a negated atom does not occur in any positive body "
              "atom");
        }
      }
    }
    // Every head data variable must occur in some body predicate atom
    // (range restriction for data arguments; temporal variables may instead
    // be pinned by constraint atoms, which the normalizer checks).
    for (const DataTerm& d : clause.head.data_args) {
      if (d.is_constant()) continue;
      bool bound = false;
      for (const BodyAtom& atom : clause.body) {
        const auto* pred = std::get_if<PredicateAtom>(&atom);
        if (pred == nullptr) continue;
        for (const DataTerm& b : pred->data_args) {
          if (!b.is_constant() && b.variable == d.variable) {
            bound = true;
            break;
          }
        }
        if (bound) break;
      }
      if (!bound) {
        return InvalidArgumentError(
            "head data variable '" + variables_.NameOf(d.variable) +
            "' is not bound by any body predicate atom");
      }
    }
  }
  return OkStatus();
}

[[nodiscard]] StatusOr<std::map<SymbolId, int>> Program::Stratify() const {
  std::map<SymbolId, int> strata;
  for (const auto& [predicate, unused] : declarations_) strata[predicate] = 0;
  // Relax constraints until stable; more than |predicates| full passes that
  // still change something means a cycle through negation.
  size_t max_passes = declarations_.size() + 2;
  for (size_t pass = 0; pass <= max_passes; ++pass) {
    bool changed = false;
    for (const Clause& clause : clauses_) {
      int& head = strata[clause.head.predicate];
      for (const BodyAtom& atom : clause.body) {
        const auto* pred = std::get_if<PredicateAtom>(&atom);
        if (pred == nullptr) continue;
        // Extensional predicates stay at stratum 0 and never move.
        int body_stratum = strata[pred->predicate];
        int required = body_stratum + (pred->negated ? 1 : 0);
        if (IsIntensional(pred->predicate) || pred->negated) {
          if (head < required) {
            head = required;
            changed = true;
          }
        }
      }
    }
    if (!changed) return strata;
  }
  return InvalidArgumentError(
      "program is not stratified (recursion through negation)");
}

std::string Program::TermToString(const TemporalTerm& term) const {
  if (term.is_constant()) return std::to_string(term.offset);
  std::string s = variables_.NameOf(term.variable);
  if (term.offset > 0) {
    s += '+';
    s += std::to_string(term.offset);
  } else if (term.offset < 0) {
    s += std::to_string(term.offset);
  }
  return s;
}

std::string Program::AtomToString(const PredicateAtom& atom) const {
  std::string s = predicates_.NameOf(atom.predicate) + "(";
  bool first = true;
  for (const TemporalTerm& t : atom.temporal_args) {
    if (!first) s += ", ";
    first = false;
    s += TermToString(t);
  }
  for (const DataTerm& d : atom.data_args) {
    if (!first) s += ", ";
    first = false;
    if (d.is_constant()) {
      s += data_interner_->NameOf(d.constant);
    } else {
      s += variables_.NameOf(d.variable);
    }
  }
  s += ")";
  return s;
}

std::string Program::AtomToString(const ConstraintAtom& atom) const {
  const char* op = "=";
  switch (atom.op) {
    case ComparisonOp::kLess:
      op = "<";
      break;
    case ComparisonOp::kLessEqual:
      op = "<=";
      break;
    case ComparisonOp::kEqual:
      op = "=";
      break;
    case ComparisonOp::kGreaterEqual:
      op = ">=";
      break;
    case ComparisonOp::kGreater:
      op = ">";
      break;
  }
  return TermToString(atom.lhs) + " " + op + " " + TermToString(atom.rhs);
}

std::string Program::ToString() const {
  std::string s;
  for (const Clause& clause : clauses_) {
    s += AtomToString(clause.head);
    if (!clause.body.empty()) {
      s += " :- ";
      bool first = true;
      for (const BodyAtom& atom : clause.body) {
        if (!first) s += ", ";
        first = false;
        if (const auto* pred = std::get_if<PredicateAtom>(&atom)) {
          s += AtomToString(*pred);
        } else {
          s += AtomToString(std::get<ConstraintAtom>(atom));
        }
      }
    }
    s += ".\n";
  }
  return s;
}

}  // namespace lrpdb
