#include "src/parser/parser.h"

#include <map>
#include <optional>
#include <utility>

#include "src/parser/lexer.h"

namespace lrpdb {
namespace {

// Recursive-descent parser over the source's token stream.
class Parser : private TokenStream {
 public:
  Parser(std::string_view source, Database* db, ParsedUnit* unit)
      : TokenStream(source), db_(db), unit_(unit) {}

  [[nodiscard]] Status Run() { return Finish(ParseStatements()); }

 private:
  [[nodiscard]] Status ParseStatements() {
    while (!AtEnd()) {
      LRPDB_RETURN_IF_ERROR(ParseStatement());
    }
    return OkStatus();
  }

  [[nodiscard]] Status ParseStatement() {
    if (Peek().kind == TokenKind::kDirective) {
      std::string_view directive = Advance().text;
      if (directive == "decl") return ParseDecl();
      if (directive == "fact") return ParseFact();
      return Error("unknown directive '." + std::string(directive) + "'");
    }
    if (Match(TokenKind::kQuery)) {
      PredicateAtom atom;
      LRPDB_RETURN_IF_ERROR(ParsePredicateAtom(&atom, /*clause_vars=*/nullptr));
      unit_->queries.push_back(std::move(atom));
      return Expect(TokenKind::kPeriod, "'.' after query");
    }
    return ParseRule();
  }

  // .decl name(time, time, data)
  [[nodiscard]] Status ParseDecl() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected predicate name after .decl");
    }
    std::string name(Advance().text);
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kLeftParen, "'('"));
    RelationSchema schema;
    bool seen_data = false;
    if (!Match(TokenKind::kRightParen)) {
      while (true) {
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected 'time' or 'data'");
        }
        std::string_view kind = Advance().text;
        if (kind == "time") {
          if (seen_data) {
            return Error("temporal columns must precede data columns");
          }
          ++schema.temporal_arity;
        } else if (kind == "data") {
          seen_data = true;
          ++schema.data_arity;
        } else {
          return Error("expected 'time' or 'data', got '" + std::string(kind) +
                       "'");
        }
        if (Match(TokenKind::kRightParen)) break;
        LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      }
    }
    Match(TokenKind::kPeriod);  // Optional trailing '.'.
    return unit_->program.Declare(name, schema);
  }

  // The schema and relation a .fact adds to, resolved on the relation's
  // first fact and kept for the rest of the parse.
  struct FactTarget {
    RelationSchema schema;
    GeneralizedRelation* relation = nullptr;
  };

  [[nodiscard]] Status ResolveFactTarget(std::string_view name,
                                         const FactTarget** target) {
    const SymbolId id = unit_->program.predicates().Find(name);
    if (id >= 0 && static_cast<size_t>(id) < fact_targets_.size() &&
        fact_targets_[id].relation != nullptr) {
      *target = &fact_targets_[id];
      return OkStatus();
    }
    LRPDB_ASSIGN_OR_RETURN(RelationSchema schema, SchemaOf(name));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation * relation,
                           db_->DeclareRelation(name, schema));
    // SchemaOf succeeded, so the predicate is interned and `id` valid.
    if (fact_targets_.size() <= static_cast<size_t>(id)) {
      fact_targets_.resize(id + 1);
    }
    fact_targets_[id] = FactTarget{schema, relation};
    *target = &fact_targets_[id];
    return OkStatus();
  }

  // The schema of the predicate named by the current token.
  [[nodiscard]] StatusOr<RelationSchema> SchemaOf(std::string_view name) {
    SymbolId id = unit_->program.predicates().Find(name);
    std::optional<RelationSchema> schema;
    if (id >= 0) schema = unit_->program.SchemaOf(id);
    if (!schema.has_value()) {
      return Error("predicate '" + std::string(name) + "' used before .decl");
    }
    return *schema;
  }

  // An lrp or integer constant in fact argument `column`. An integer c
  // becomes the lrp n, pinned by adding Tcolumn = c to `constraint`.
  [[nodiscard]] Status ParseFactTemporalArg(int column, Dbm* constraint,
                                            Lrp* lrp) {
    // Forms: [INT] n [± INT]  |  ±INT.
    const bool negative = Match(TokenKind::kMinus);
    int64_t coefficient = 1;
    if (Peek().kind == TokenKind::kNumber) {
      coefficient = negative ? -Advance().number : Advance().number;
      // "168n": 'n' glued to the number.
      if (!(Peek().kind == TokenKind::kIdentifier && Peek().text == "n" &&
            Peek().glued_to_previous)) {
        constraint->AddEquality(column, coefficient);
        *lrp = Lrp(1, 0);
        return OkStatus();
      }
    }
    if (Peek().kind == TokenKind::kIdentifier && Peek().text == "n") {
      Advance();
      if (coefficient == 0) {
        return Error(
            "lrp period must be non-zero; write the constant c directly "
            "instead of 0n+c");
      }
      int64_t offset = 0;
      LRPDB_RETURN_IF_ERROR(Offset(&offset));
      *lrp = Lrp(coefficient, offset);
      return OkStatus();
    }
    return Error("expected lrp (e.g. 168n+8) or integer");
  }

  // .fact name(args) [with constraints] .
  [[nodiscard]] Status ParseFact() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected predicate name after .fact");
    }
    const FactTarget* target = nullptr;
    LRPDB_RETURN_IF_ERROR(ResolveFactTarget(Peek().text, &target));
    Advance();
    const RelationSchema schema = target->schema;
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kLeftParen, "'('"));

    // The fact is built in the scratch buffers, which keep their capacity
    // from one fact to the next.
    Dbm& constraint = scratch_constraint_;
    constraint.Reset(schema.temporal_arity);
    std::vector<Lrp>& lrps = scratch_lrps_;
    lrps.clear();
    std::vector<DataValue>& data = scratch_data_;
    data.clear();
    for (int col = 0; col < schema.temporal_arity; ++col) {
      if (col > 0) LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      LRPDB_RETURN_IF_ERROR(
          ParseFactTemporalArg(col + 1, &constraint, &lrps.emplace_back()));
    }
    for (int col = 0; col < schema.data_arity; ++col) {
      if (col > 0 || schema.temporal_arity > 0) {
        LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      }
      if (Peek().kind == TokenKind::kString ||
          Peek().kind == TokenKind::kIdentifier) {
        data.push_back(db_->Constant(Advance().text));
      } else {
        return Error("expected data constant");
      }
    }
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));

    if (Peek().kind == TokenKind::kIdentifier && Peek().text == "with") {
      Advance();
      while (true) {
        LRPDB_RETURN_IF_ERROR(
            ParseColumnConstraint(schema.temporal_arity, &constraint));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.' after fact"));
    target->relation->InsertUnlessEmpty(lrps, data, constraint);
    return OkStatus();
  }

  // One side of a fact constraint: Tk [± INT] or a signed integer. Sets
  // the column index (0 for the zero variable) and the offset.
  [[nodiscard]] Status ParseConstraintSide(int temporal_arity, int* column,
                                           int64_t* offset) {
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string_view text = Peek().text;
      if (text.size() >= 2 && text[0] == 'T') {
        bool digits = true;
        for (size_t k = 1; k < text.size(); ++k) {
          digits = digits && text[k] >= '0' && text[k] <= '9';
        }
        if (digits) {
          // Overflow-safe: "T99999999999999999999" must be a parse error,
          // not a std::out_of_range crash from std::stoi.
          StatusOr<int64_t> parsed = ParseDecimalInt64(text.substr(1));
          if (!parsed.ok()) return Error(parsed.status().message());
          if (*parsed < 1 || *parsed > temporal_arity) {
            return Error("constraint references column " + std::string(text) +
                         " outside the temporal arity");
          }
          Advance();
          *column = static_cast<int>(*parsed);
          return Offset(offset);
        }
      }
      return Error("expected T<k> or integer in fact constraint");
    }
    *column = 0;
    return SignedNumber(offset);
  }

  [[nodiscard]] Status ParseColumnConstraint(int temporal_arity, Dbm* constraint) {
    int li = 0, ri = 0;
    int64_t lo = 0, ro = 0;
    LRPDB_RETURN_IF_ERROR(ParseConstraintSide(temporal_arity, &li, &lo));
    TokenKind op = Peek().kind;
    if (op != TokenKind::kLess && op != TokenKind::kLessEqual &&
        op != TokenKind::kEqual && op != TokenKind::kGreaterEqual &&
        op != TokenKind::kGreater) {
      return Error("expected comparison operator");
    }
    Advance();
    LRPDB_RETURN_IF_ERROR(ParseConstraintSide(temporal_arity, &ri, &ro));
    if (li == ri) return Error("constraint relates a column to itself");
    // (x_li + lo) OP (x_ri + ro) is x_li - x_ri OP ro - lo. Mirroring > and
    // >= into < and <= makes it an upper bound on x_li - x_ri in every case;
    // a strict comparison tightens the bound by one.
    if (op == TokenKind::kGreater || op == TokenKind::kGreaterEqual) {
      std::swap(li, ri);
      std::swap(lo, ro);
    }
    const bool strict = op == TokenKind::kLess || op == TokenKind::kGreater;
    int64_t bound = 0;
    // Extreme literals can leave int64; an equality also negates the bound.
    if (__builtin_sub_overflow(ro, lo, &bound) ||
        (strict && __builtin_sub_overflow(bound, 1, &bound)) ||
        (op == TokenKind::kEqual && bound == INT64_MIN)) {
      return Error("constraint bound overflows int64");
    }
    if (op == TokenKind::kEqual) {
      constraint->AddDifferenceEquality(li, ri, bound);
    } else {
      constraint->AddDifferenceUpperBound(li, ri, bound);
    }
    return OkStatus();
  }

  // Tracks how each rule variable is used, to reject mixed usage.
  enum class VarKind { kTemporal, kData };
  using ClauseVars = std::map<std::string, VarKind>;

  [[nodiscard]] Status NoteVar(ClauseVars* vars, std::string_view name,
                               VarKind kind) {
    if (vars == nullptr) return OkStatus();
    auto [it, inserted] = vars->try_emplace(std::string(name), kind);
    if (!inserted && it->second != kind) {
      return Error("variable '" + std::string(name) +
                   "' used in both temporal and data positions");
    }
    return OkStatus();
  }

  // Temporal term in a rule: IDENT [± INT] or signed INT.
  [[nodiscard]] StatusOr<TemporalTerm> ParseTemporalTerm(ClauseVars* vars) {
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string_view name = Advance().text;
      LRPDB_RETURN_IF_ERROR(NoteVar(vars, name, VarKind::kTemporal));
      int64_t offset = 0;
      LRPDB_RETURN_IF_ERROR(Offset(&offset));
      return TemporalTerm::Variable(unit_->program.variables().Intern(name),
                                    offset);
    }
    int64_t value = 0;
    if (!SignedNumber(&value).ok()) return Error("expected temporal term");
    return TemporalTerm::Constant(value);
  }

  [[nodiscard]] StatusOr<DataTerm> ParseDataTerm(ClauseVars* vars) {
    if (Peek().kind == TokenKind::kString) {
      return DataTerm::Constant(db_->Constant(Advance().text));
    }
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string_view name = Advance().text;
      if (IsDataVariableName(name)) {
        LRPDB_RETURN_IF_ERROR(NoteVar(vars, name, VarKind::kData));
        return DataTerm::Variable(unit_->program.variables().Intern(name));
      }
      return DataTerm::Constant(db_->Constant(name));
    }
    return Error("expected data term");
  }

  [[nodiscard]] Status ParsePredicateAtom(PredicateAtom* atom, ClauseVars* vars) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected predicate name");
    }
    std::string_view name = Peek().text;
    LRPDB_ASSIGN_OR_RETURN(RelationSchema schema, SchemaOf(name));
    Advance();
    atom->predicate = unit_->program.predicates().Intern(name);
    if (schema.temporal_arity + schema.data_arity == 0) {
      if (Match(TokenKind::kLeftParen)) {
        LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));
      }
      return OkStatus();
    }
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kLeftParen, "'('"));
    for (int col = 0; col < schema.temporal_arity; ++col) {
      if (col > 0) LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      LRPDB_ASSIGN_OR_RETURN(TemporalTerm term, ParseTemporalTerm(vars));
      atom->temporal_args.push_back(term);
    }
    for (int col = 0; col < schema.data_arity; ++col) {
      if (col > 0 || schema.temporal_arity > 0) {
        LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      }
      LRPDB_ASSIGN_OR_RETURN(DataTerm term, ParseDataTerm(vars));
      atom->data_args.push_back(term);
    }
    return Expect(TokenKind::kRightParen, "')'");
  }

  [[nodiscard]] StatusOr<ConstraintAtom> ParseConstraintAtom(ClauseVars* vars) {
    ConstraintAtom atom;
    LRPDB_ASSIGN_OR_RETURN(atom.lhs, ParseTemporalTerm(vars));
    switch (Peek().kind) {
      case TokenKind::kLess:
        atom.op = ComparisonOp::kLess;
        break;
      case TokenKind::kLessEqual:
        atom.op = ComparisonOp::kLessEqual;
        break;
      case TokenKind::kEqual:
        atom.op = ComparisonOp::kEqual;
        break;
      case TokenKind::kGreaterEqual:
        atom.op = ComparisonOp::kGreaterEqual;
        break;
      case TokenKind::kGreater:
        atom.op = ComparisonOp::kGreater;
        break;
      default:
        return Error("expected comparison operator");
    }
    Advance();
    LRPDB_ASSIGN_OR_RETURN(atom.rhs, ParseTemporalTerm(vars));
    return atom;
  }

  [[nodiscard]] Status ParseRule() {
    Clause clause;
    ClauseVars vars;
    LRPDB_RETURN_IF_ERROR(ParsePredicateAtom(&clause.head, &vars));
    if (Match(TokenKind::kImplies)) {
      while (true) {
        // Optional '!' marks a negated body literal (stratified negation).
        bool negated = Match(TokenKind::kBang);
        // Lookahead: predicate atom iff IDENT followed by '(' (or a declared
        // 0-ary predicate name).
        bool is_predicate = negated;
        if (!is_predicate && Peek().kind == TokenKind::kIdentifier) {
          if (Peek(1).kind == TokenKind::kLeftParen) {
            is_predicate = true;
          } else {
            is_predicate =
                unit_->program.predicates().Find(Peek().text) >= 0 &&
                Peek(1).kind != TokenKind::kPlus &&
                Peek(1).kind != TokenKind::kMinus &&
                Peek(1).kind != TokenKind::kLess &&
                Peek(1).kind != TokenKind::kLessEqual &&
                Peek(1).kind != TokenKind::kEqual &&
                Peek(1).kind != TokenKind::kGreaterEqual &&
                Peek(1).kind != TokenKind::kGreater;
          }
        }
        if (is_predicate) {
          PredicateAtom atom;
          LRPDB_RETURN_IF_ERROR(ParsePredicateAtom(&atom, &vars));
          atom.negated = negated;
          clause.body.emplace_back(std::move(atom));
        } else {
          LRPDB_ASSIGN_OR_RETURN(ConstraintAtom atom,
                                 ParseConstraintAtom(&vars));
          clause.body.emplace_back(atom);
        }
        if (!Match(TokenKind::kComma)) break;
      }
    }
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.' after rule"));
    return unit_->program.AddClause(std::move(clause));
  }

  Database* db_;
  ParsedUnit* unit_;
  // Indexed by predicate id; relation is null until the first fact.
  std::vector<FactTarget> fact_targets_;
  std::vector<Lrp> scratch_lrps_;
  std::vector<DataValue> scratch_data_;
  Dbm scratch_constraint_{0};
};

}  // namespace

[[nodiscard]] StatusOr<ParsedUnit> Parse(std::string_view source, Database* db) {
  ParsedUnit unit(&db->interner());
  Parser parser(source, db, &unit);
  LRPDB_RETURN_IF_ERROR(parser.Run());
  // A declared predicate no clause defines is extensional even before its
  // first fact: declare it, so queries and rules read it as empty.
  for (const auto& [predicate, schema] : unit.program.declarations()) {
    if (unit.program.IsIntensional(predicate)) continue;
    LRPDB_RETURN_IF_ERROR(
        db->Declare(unit.program.predicates().NameOf(predicate), schema));
  }
  return unit;
}

}  // namespace lrpdb
