#include "src/parser/parser.h"

#include <cctype>
#include <map>
#include <optional>
#include <utility>

#include "src/parser/lexer.h"

namespace lrpdb {
namespace {

// Recursive-descent parser that pulls tokens from a Lexer as it goes, so it
// holds a few tokens at a time rather than the whole source's.
class Parser {
 public:
  Parser(std::string_view source, Database* db, ParsedUnit* unit)
      : lexer_(source), db_(db), unit_(unit) {}

  [[nodiscard]] Status Run() {
    Status parsed = ParseStatements();
    // A lexical error anywhere in the source wins over a parse error before
    // it, as when the whole source was lexed before parsing began.
    while (!parsed.ok() && lex_error_.ok() && !lexed_end_) Lex();
    return lex_error_.ok() ? parsed : lex_error_;
  }

 private:
  // Ring slots: the token Advance() last returned, Peek(0) and Peek(1), so
  // a consumed token stays readable while the parser looks one ahead.
  static constexpr size_t kRingSize = 3;

  [[nodiscard]] Status ParseStatements() {
    while (!AtEnd()) {
      LRPDB_RETURN_IF_ERROR(ParseStatement());
    }
    return OkStatus();
  }

  // Lexes one more token into the ring. A lexical error ends the stream:
  // the parser sees kEnd there, and Run() reports the error.
  void Lex() {
    Token& slot = ring_[lexed_++ % kRingSize];
    Status status = lexer_.Next(&slot);
    if (!status.ok()) {
      lex_error_ = std::move(status);
      slot = Token();
    }
    lexed_end_ = slot.kind == TokenKind::kEnd;
  }
  const Token& Peek(size_t ahead = 0) {
    while (lexed_ <= next_ + ahead) Lex();
    return ring_[(next_ + ahead) % kRingSize];
  }
  const Token& Advance() {
    const Token& token = Peek();
    ++next_;
    return token;
  }
  bool AtEnd() { return Peek().kind == TokenKind::kEnd; }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++next_;
    return true;
  }
  [[nodiscard]] Status Error(const std::string& message) {
    const Token& t = Peek();
    return ParseError(
        "line " + std::to_string(t.line) + ":" + std::to_string(t.column) +
        ": " + message +
        (t.text.empty() ? "" : " (at '" + std::string(t.text) + "')"));
  }
  [[nodiscard]] Status Expect(TokenKind kind, const std::string& what) {
    if (Match(kind)) return OkStatus();
    return Error("expected " + what);
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

  [[nodiscard]] StatusOr<RelationSchema> SchemaOf(std::string_view name) {
    SymbolId id = unit_->program.predicates().Find(name);
    std::optional<RelationSchema> schema;
    if (id >= 0) schema = unit_->program.SchemaOf(id);
    if (!schema.has_value()) {
      return Status(StatusCode::kParseError,
                    "predicate '" + std::string(name) + "' used before .decl");
    }
    return *schema;
  }

  // A signed integer literal.
  [[nodiscard]] StatusOr<int64_t> ParseSignedNumber() {
    bool negative = Match(TokenKind::kMinus);
    if (Peek().kind != TokenKind::kNumber) {
      return Status(StatusCode::kParseError, "expected integer");
    }
    int64_t v = Advance().number;
    return negative ? -v : v;
  }

  // An lrp or integer constant in fact argument `column`. An integer c
  // becomes the lrp n, pinned by adding Tcolumn = c to `constraint`.
  [[nodiscard]] StatusOr<Lrp> ParseFactTemporalArg(int column,
                                                   Dbm* constraint) {
    // Forms: [INT] n [± INT]  |  ±INT.
    bool negative = Match(TokenKind::kMinus);
    std::optional<int64_t> coefficient;
    if (Peek().kind == TokenKind::kNumber) {
      coefficient = Advance().number;
      if (negative) coefficient = -*coefficient;
      // "168n": 'n' glued to the number.
      if (!(Peek().kind == TokenKind::kIdentifier && Peek().text == "n" &&
            Peek().glued_to_previous)) {
        constraint->AddEquality(column, *coefficient);
        return Lrp(1, 0);
      }
    }
    if (Peek().kind == TokenKind::kIdentifier && Peek().text == "n") {
      Advance();
      int64_t period = coefficient.value_or(1);
      if (period == 0) {
        return Status(StatusCode::kParseError,
                      "lrp period must be non-zero; write the constant c "
                      "directly instead of 0n+c");
      }
      int64_t offset = 0;
      if (Match(TokenKind::kPlus)) {
        LRPDB_ASSIGN_OR_RETURN(offset, ParseSignedNumber());
      } else if (Match(TokenKind::kMinus)) {
        LRPDB_ASSIGN_OR_RETURN(offset, ParseSignedNumber());
        offset = -offset;
      }
      return Lrp(period, offset);
    }
    return Status(StatusCode::kParseError,
                  "expected lrp (e.g. 168n+8) or integer");
  }

  // .fact name(args) [with constraints] .
  [[nodiscard]] Status ParseFact() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected predicate name after .fact");
    }
    std::string_view name = Advance().text;
    LRPDB_ASSIGN_OR_RETURN(RelationSchema schema, SchemaOf(name));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation * relation,
                           db_->DeclareRelation(name, schema));
    LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kLeftParen, "'('"));

    Dbm constraint(schema.temporal_arity);
    std::vector<Lrp> lrps;
    lrps.reserve(schema.temporal_arity);
    std::vector<DataValue> data;
    data.reserve(schema.data_arity);
    for (int col = 0; col < schema.temporal_arity; ++col) {
      if (col > 0) LRPDB_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      auto lrp = ParseFactTemporalArg(col + 1, &constraint);
      if (!lrp.ok()) return Error(lrp.status().message());
      lrps.push_back(*lrp);
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
    return relation
        ->InsertUnlessEmpty(GeneralizedTuple(
            std::move(lrps), std::move(data), std::move(constraint)))
        .status();
  }

  // One side of a fact constraint: Tk [± INT] or a signed integer.
  // Returns (column index or 0 for the zero variable, offset).
  [[nodiscard]] StatusOr<std::pair<int, int64_t>> ParseConstraintSide(int temporal_arity) {
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string_view text = Peek().text;
      if (text.size() >= 2 && text[0] == 'T') {
        bool digits = true;
        for (size_t k = 1; k < text.size(); ++k) {
          digits = digits && std::isdigit(static_cast<unsigned char>(text[k]));
        }
        if (digits) {
          // Overflow-safe: "T99999999999999999999" must be a parse error,
          // not a std::out_of_range crash from std::stoi.
          StatusOr<int64_t> parsed = ParseDecimalInt64(text.substr(1));
          if (!parsed.ok()) return parsed.status();
          int64_t column = *parsed;
          if (column < 1 || column > temporal_arity) {
            return Status(StatusCode::kParseError,
                          "constraint references column " +
                              std::string(text) +
                              " outside the temporal arity");
          }
          Advance();
          int64_t offset = 0;
          if (Match(TokenKind::kPlus)) {
            LRPDB_ASSIGN_OR_RETURN(offset, ParseSignedNumber());
          } else if (Match(TokenKind::kMinus)) {
            LRPDB_ASSIGN_OR_RETURN(offset, ParseSignedNumber());
            offset = -offset;
          }
          return std::make_pair(static_cast<int>(column), offset);
        }
      }
      return Status(StatusCode::kParseError,
                    "expected T<k> or integer in fact constraint");
    }
    LRPDB_ASSIGN_OR_RETURN(int64_t value, ParseSignedNumber());
    return std::make_pair(0, value);
  }

  [[nodiscard]] Status ParseColumnConstraint(int temporal_arity, Dbm* constraint) {
    auto lhs = ParseConstraintSide(temporal_arity);
    if (!lhs.ok()) return Error(lhs.status().message());
    TokenKind op = Peek().kind;
    if (op != TokenKind::kLess && op != TokenKind::kLessEqual &&
        op != TokenKind::kEqual && op != TokenKind::kGreaterEqual &&
        op != TokenKind::kGreater) {
      return Error("expected comparison operator");
    }
    Advance();
    auto rhs = ParseConstraintSide(temporal_arity);
    if (!rhs.ok()) return Error(rhs.status().message());
    auto [li, lo] = *lhs;
    auto [ri, ro] = *rhs;
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
      if (Match(TokenKind::kPlus)) {
        LRPDB_ASSIGN_OR_RETURN(offset, ParseSignedNumber());
      } else if (Match(TokenKind::kMinus)) {
        LRPDB_ASSIGN_OR_RETURN(offset, ParseSignedNumber());
        offset = -offset;
      }
      return TemporalTerm::Variable(unit_->program.variables().Intern(name),
                                    offset);
    }
    auto value = ParseSignedNumber();
    if (!value.ok()) return Error("expected temporal term");
    return TemporalTerm::Constant(*value);
  }

  [[nodiscard]] StatusOr<DataTerm> ParseDataTerm(ClauseVars* vars) {
    if (Peek().kind == TokenKind::kString) {
      return DataTerm::Constant(db_->Constant(Advance().text));
    }
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string_view name = Advance().text;
      bool is_variable = std::isupper(static_cast<unsigned char>(name[0])) ||
                         name[0] == '_';
      if (is_variable) {
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
    std::string_view name = Advance().text;
    LRPDB_ASSIGN_OR_RETURN(RelationSchema schema, SchemaOf(name));
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

  Lexer lexer_;
  Token ring_[kRingSize];
  size_t next_ = 0;   // Sequence number of Peek(0).
  size_t lexed_ = 0;  // Tokens lexed so far.
  bool lexed_end_ = false;
  Status lex_error_;
  Database* db_;
  ParsedUnit* unit_;
};

}  // namespace

[[nodiscard]] StatusOr<ParsedUnit> Parse(std::string_view source, Database* db) {
  ParsedUnit unit(&db->interner());
  Parser parser(source, db, &unit);
  LRPDB_RETURN_IF_ERROR(parser.Run());
  return unit;
}

}  // namespace lrpdb
