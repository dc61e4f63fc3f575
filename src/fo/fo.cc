#include "src/fo/fo.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>

#include "src/core/clause_plan.h"
#include "src/parser/lexer.h"

namespace lrpdb {
namespace {

// --- Parsing ---

class FoParser : private TokenStream {
 public:
  FoParser(std::string_view source, Database* db,
           const std::map<std::string, RelationSchema>* extra_schemas,
           FoQuery* query)
      : TokenStream(source),
        db_(db),
        extra_schemas_(extra_schemas),
        query_(query) {}

  [[nodiscard]] Status Run() { return Finish(ParseQuery()); }

 private:
  [[nodiscard]] Status ParseQuery() {
    LRPDB_ASSIGN_OR_RETURN(query_->formula, ParseOr());
    if (!AtEnd()) return Error("trailing input");
    return OkStatus();
  }

  [[nodiscard]] StatusOr<SymbolId> NoteVariable(const std::string& name, bool temporal) {
    SymbolId id = query_->variables.Intern(name);
    auto [it, inserted] = query_->is_temporal.emplace(id, temporal);
    if (!inserted && it->second != temporal) {
      return Error("variable '" + name +
                   "' used in both temporal and data positions");
    }
    return id;
  }

  [[nodiscard]] StatusOr<TemporalTerm> ParseTemporalTerm() {
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string name(Advance().text);
      LRPDB_ASSIGN_OR_RETURN(SymbolId id, NoteVariable(name, true));
      int64_t offset = 0;
      LRPDB_RETURN_IF_ERROR(Offset(&offset));
      return TemporalTerm::Variable(id, offset);
    }
    int64_t value = 0;
    LRPDB_RETURN_IF_ERROR(SignedNumber(&value));
    return TemporalTerm::Constant(value);
  }

  [[nodiscard]] StatusOr<FoFormulaPtr> ParseOr() {
    LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr left, ParseAnd());
    while (Match(TokenKind::kPipe)) {
      LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr right, ParseAnd());
      auto node = std::make_unique<FoFormula>();
      node->kind = FoFormula::Kind::kOr;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  [[nodiscard]] StatusOr<FoFormulaPtr> ParseAnd() {
    LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr left, ParseUnary());
    while (Match(TokenKind::kAmp)) {
      LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr right, ParseUnary());
      auto node = std::make_unique<FoFormula>();
      node->kind = FoFormula::Kind::kAnd;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  [[nodiscard]] StatusOr<FoFormulaPtr> ParseUnary() {
    if (Match(TokenKind::kTilde)) {
      LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr child, ParseUnary());
      auto node = std::make_unique<FoFormula>();
      node->kind = FoFormula::Kind::kNot;
      node->left = std::move(child);
      return node;
    }
    if (Peek().kind == TokenKind::kIdentifier &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      bool universal = Advance().text == "forall";
      // The quantified body is always parenthesized, so every identifier up
      // to the '(' is a bound variable.
      std::vector<std::string> names;
      while (Peek().kind == TokenKind::kIdentifier) {
        names.emplace_back(Advance().text);
      }
      if (names.empty()) return Error("expected quantified variables");
      if (!Match(TokenKind::kLeftParen)) return Error("expected '('");
      LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr child, ParseOr());
      if (!Match(TokenKind::kRightParen)) return Error("expected ')'");
      auto node = std::make_unique<FoFormula>();
      node->kind = FoFormula::Kind::kExists;
      for (const std::string& name : names) {
        // Kind is resolved lazily: the variable must occur in the child, so
        // it is already noted; unknown-here means it never occurs (allowed,
        // vacuous).
        node->bound.push_back(query_->variables.Intern(name));
      }
      if (universal) {
        // forall v phi == ~ exists v ~ phi.
        auto inner_not = std::make_unique<FoFormula>();
        inner_not->kind = FoFormula::Kind::kNot;
        inner_not->left = std::move(child);
        node->left = std::move(inner_not);
        auto outer_not = std::make_unique<FoFormula>();
        outer_not->kind = FoFormula::Kind::kNot;
        outer_not->left = std::move(node);
        return outer_not;
      }
      node->left = std::move(child);
      return node;
    }
    if (Match(TokenKind::kLeftParen)) {
      LRPDB_ASSIGN_OR_RETURN(FoFormulaPtr child, ParseOr());
      if (!Match(TokenKind::kRightParen)) return Error("expected ')'");
      return child;
    }
    // Atom (IDENT '(') or comparison.
    if (Peek().kind == TokenKind::kIdentifier &&
        Peek(1).kind == TokenKind::kLeftParen &&
        IsRelation(std::string(Peek().text))) {
      return ParseAtom();
    }
    return ParseComparison();
  }

  bool IsRelation(const std::string& name) const {
    if (db_->IsDeclared(name)) return true;
    return extra_schemas_ != nullptr && extra_schemas_->count(name) > 0;
  }

  [[nodiscard]] StatusOr<RelationSchema> SchemaOf(const std::string& name) const {
    if (extra_schemas_ != nullptr) {
      auto it = extra_schemas_->find(name);
      if (it != extra_schemas_->end()) return it->second;
    }
    return db_->SchemaOf(name);
  }

  [[nodiscard]] StatusOr<FoFormulaPtr> ParseAtom() {
    std::string name(Advance().text);
    auto schema = SchemaOf(name);
    if (!schema.ok()) return schema.status();
    if (!Match(TokenKind::kLeftParen)) return Error("expected '('");
    auto node = std::make_unique<FoFormula>();
    node->kind = FoFormula::Kind::kAtom;
    node->atom.predicate = name;
    for (int col = 0; col < schema->temporal_arity; ++col) {
      if (col > 0 && !Match(TokenKind::kComma)) return Error("expected ','");
      LRPDB_ASSIGN_OR_RETURN(TemporalTerm term, ParseTemporalTerm());
      node->atom.temporal_args.push_back(term);
    }
    for (int col = 0; col < schema->data_arity; ++col) {
      if ((col > 0 || schema->temporal_arity > 0) &&
          !Match(TokenKind::kComma)) {
        return Error("expected ','");
      }
      if (Peek().kind == TokenKind::kString) {
        node->atom.data_args.push_back(
            DataTerm::Constant(db_->Constant(Advance().text)));
      } else if (Peek().kind == TokenKind::kIdentifier) {
        std::string arg(Advance().text);
        if (IsDataVariableName(arg)) {
          LRPDB_ASSIGN_OR_RETURN(SymbolId id, NoteVariable(arg, false));
          node->atom.data_args.push_back(DataTerm::Variable(id));
        } else {
          node->atom.data_args.push_back(
              DataTerm::Constant(db_->Constant(arg)));
        }
      } else {
        return Error("expected data term");
      }
    }
    if (!Match(TokenKind::kRightParen)) return Error("expected ')'");
    return node;
  }

  [[nodiscard]] StatusOr<FoFormulaPtr> ParseComparison() {
    auto node = std::make_unique<FoFormula>();
    node->kind = FoFormula::Kind::kComparison;
    LRPDB_ASSIGN_OR_RETURN(node->comparison.lhs, ParseTemporalTerm());
    switch (Peek().kind) {
      case TokenKind::kLess:
        node->comparison.op = ComparisonOp::kLess;
        break;
      case TokenKind::kLessEqual:
        node->comparison.op = ComparisonOp::kLessEqual;
        break;
      case TokenKind::kEqual:
        node->comparison.op = ComparisonOp::kEqual;
        break;
      case TokenKind::kGreaterEqual:
        node->comparison.op = ComparisonOp::kGreaterEqual;
        break;
      case TokenKind::kGreater:
        node->comparison.op = ComparisonOp::kGreater;
        break;
      default:
        return Error("expected comparison operator");
    }
    Advance();
    LRPDB_ASSIGN_OR_RETURN(node->comparison.rhs, ParseTemporalTerm());
    return node;
  }

  Database* db_;
  const std::map<std::string, RelationSchema>* extra_schemas_;
  FoQuery* query_;
};

// --- Evaluation ---

// Appends `var` to `vars` unless it is there already.
void Note(const std::string& var, std::vector<std::string>* vars) {
  if (std::find(vars->begin(), vars->end(), var) == vars->end()) {
    vars->push_back(var);
  }
}

// The conjuncts of `formula`, left to right.
void Flatten(const FoFormula& formula,
             std::vector<const FoFormula*>* conjuncts) {
  if (formula.kind != FoFormula::Kind::kAnd) {
    conjuncts->push_back(&formula);
    return;
  }
  Flatten(*formula.left, conjuncts);
  Flatten(*formula.right, conjuncts);
}

class FoEvaluator {
 public:
  FoEvaluator(const FoQuery& query, const Database& db,
              const FoOptions& options)
      : query_(query), db_(db), options_(options) {
    // Active data domain: every constant in the database plus query/extra
    // constants.
    std::set<DataValue> constants(options.extra_constants.begin(),
                                  options.extra_constants.end());
    CollectConstants(*query.formula, &constants);
    active_domain_ =
        ActiveDomain(db, std::move(constants), options.extra_relations);
  }

  [[nodiscard]] StatusOr<FoResult> Evaluate(const FoFormula& formula) {
    switch (formula.kind) {
      case FoFormula::Kind::kOr:
        return EvaluateOr(formula);
      case FoFormula::Kind::kNot:
        return EvaluateNot(formula);
      default:
        return EvaluateConjunction(formula);
    }
  }

 private:
  static void CollectConstants(const FoFormula& formula,
                               std::set<DataValue>* domain) {
    if (formula.kind == FoFormula::Kind::kAtom) {
      for (const DataTerm& d : formula.atom.data_args) {
        if (d.is_constant()) domain->insert(d.constant);
      }
    }
    if (formula.left != nullptr) CollectConstants(*formula.left, domain);
    if (formula.right != nullptr) CollectConstants(*formula.right, domain);
  }

  std::string Name(SymbolId var) const { return query_.variables.NameOf(var); }
  SymbolId Id(const std::string& var) const {
    return query_.variables.Find(var);
  }

  [[nodiscard]] StatusOr<const GeneralizedRelation*> ResolveRelation(
      const std::string& name) const {
    if (options_.extra_relations != nullptr) {
      auto it = options_.extra_relations->find(name);
      if (it != options_.extra_relations->end()) return &it->second;
    }
    return db_.Relation(name);
  }

  // The one-column relation of the active domain, built on first use.
  const GeneralizedRelation& DomainRelation() {
    if (!domain_relation_.has_value()) {
      domain_relation_.emplace(RelationSchema{0, 1});
      for (DataValue d : active_domain_) {
        domain_relation_->InsertUnlessEmpty(
            GeneralizedTuple::Unconstrained({}, {d}));
      }
    }
    return *domain_relation_;
  }

  // Reads `answer` as a body atom over its free variables.
  void AddAnswerAtom(const FoResult& answer, ClauseBuilder* builder,
                     std::vector<const GeneralizedRelation*>* relations) const {
    std::vector<TemporalTerm> temporal_args;
    for (const std::string& v : answer.temporal_vars) {
      temporal_args.push_back(TemporalTerm::Variable(Id(v)));
    }
    std::vector<DataTerm> data_args;
    for (const std::string& v : answer.data_vars) {
      data_args.push_back(DataTerm::Variable(Id(v)));
    }
    builder->AddAtom(-1, /*is_intensional=*/false, /*negated=*/false,
                     temporal_args, data_args);
    relations->push_back(&answer.relation);
  }

  // Heads the clause with `answer`'s variables and runs it over
  // `relations` into answer->relation. A head temporal variable no atom
  // binds ranges over all of Z.
  [[nodiscard]] Status RunClause(
      ClauseBuilder* builder,
      const std::vector<const GeneralizedRelation*>& relations,
      FoResult* answer) const {
    NormalizedClause& clause = builder->clause();
    for (const std::string& v : answer->temporal_vars) {
      clause.head_temporal_vars.push_back(builder->TemporalVar(Id(v)));
    }
    for (const std::string& v : answer->data_vars) {
      clause.head_data.push_back(
          {.variable = builder->DataVar(Id(v)), .constant = -1});
    }
    LRPDB_ASSIGN_OR_RETURN(answer->relation,
                           ApplyClauseOnce(builder->Finish(), relations));
    return OkStatus();
  }

  // A maximal conjunction, under the `exists` directly around it, as one
  // clause: atoms and the answers of the other conjuncts (|, ~, inner
  // exists) are its body atoms, comparisons its constraint, and the free
  // variables its head.
  [[nodiscard]] StatusOr<FoResult> EvaluateConjunction(
      const FoFormula& formula) {
    std::set<std::string> bound;
    const FoFormula* body = &formula;
    while (body->kind == FoFormula::Kind::kExists) {
      for (SymbolId v : body->bound) bound.insert(Name(v));
      body = body->left.get();
    }
    std::vector<const FoFormula*> conjuncts;
    Flatten(*body, &conjuncts);
    ClauseBuilder builder(query_.variables);
    std::vector<const GeneralizedRelation*> relations;
    std::deque<FoResult> children;  // Stable addresses for `relations`.
    FoResult answer;
    for (const FoFormula* conjunct : conjuncts) {
      if (conjunct->kind == FoFormula::Kind::kAtom) {
        const FoAtom& atom = conjunct->atom;
        LRPDB_ASSIGN_OR_RETURN(const GeneralizedRelation* relation,
                               ResolveRelation(atom.predicate));
        builder.AddAtom(-1, /*is_intensional=*/false, /*negated=*/false,
                        atom.temporal_args, atom.data_args);
        relations.push_back(relation);
        for (const TemporalTerm& t : atom.temporal_args) {
          if (!t.is_constant()) Note(Name(t.variable), &answer.temporal_vars);
        }
        for (const DataTerm& d : atom.data_args) {
          if (!d.is_constant()) Note(Name(d.variable), &answer.data_vars);
        }
      } else if (conjunct->kind == FoFormula::Kind::kComparison) {
        const ConstraintAtom& comparison = conjunct->comparison;
        builder.AddComparison(comparison);
        for (const TemporalTerm& t : {comparison.lhs, comparison.rhs}) {
          if (!t.is_constant()) Note(Name(t.variable), &answer.temporal_vars);
        }
      } else {
        LRPDB_ASSIGN_OR_RETURN(FoResult child, Evaluate(*conjunct));
        children.push_back(std::move(child));
        AddAnswerAtom(children.back(), &builder, &relations);
        for (const std::string& v : children.back().temporal_vars) {
          Note(v, &answer.temporal_vars);
        }
        for (const std::string& v : children.back().data_vars) {
          Note(v, &answer.data_vars);
        }
      }
    }
    auto is_bound = [&bound](const std::string& v) {
      return bound.count(v) > 0;
    };
    std::erase_if(answer.temporal_vars, is_bound);
    std::erase_if(answer.data_vars, is_bound);
    LRPDB_RETURN_IF_ERROR(RunClause(&builder, relations, &answer));
    return answer;
  }

  // `side` over the columns of `target`: a missing temporal variable
  // ranges over Z, a missing data variable over the active domain.
  [[nodiscard]] StatusOr<FoResult> ExtendTo(FoResult side,
                                            const FoResult& target) {
    if (side.temporal_vars == target.temporal_vars &&
        side.data_vars == target.data_vars) {
      return side;
    }
    ClauseBuilder builder(query_.variables);
    std::vector<const GeneralizedRelation*> relations;
    AddAnswerAtom(side, &builder, &relations);
    for (const std::string& v : target.data_vars) {
      if (std::find(side.data_vars.begin(), side.data_vars.end(), v) !=
          side.data_vars.end()) {
        continue;
      }
      builder.AddAtom(-1, /*is_intensional=*/false, /*negated=*/false, {},
                      {DataTerm::Variable(Id(v))});
      relations.push_back(&DomainRelation());
    }
    FoResult extended;
    extended.temporal_vars = target.temporal_vars;
    extended.data_vars = target.data_vars;
    LRPDB_RETURN_IF_ERROR(RunClause(&builder, relations, &extended));
    return extended;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateOr(const FoFormula& formula) {
    LRPDB_ASSIGN_OR_RETURN(FoResult left, Evaluate(*formula.left));
    LRPDB_ASSIGN_OR_RETURN(FoResult right, Evaluate(*formula.right));
    FoResult result;
    result.temporal_vars = left.temporal_vars;
    result.data_vars = left.data_vars;
    for (const std::string& v : right.temporal_vars) {
      Note(v, &result.temporal_vars);
    }
    for (const std::string& v : right.data_vars) Note(v, &result.data_vars);
    LRPDB_ASSIGN_OR_RETURN(left, ExtendTo(std::move(left), result));
    LRPDB_ASSIGN_OR_RETURN(right, ExtendTo(std::move(right), result));
    LRPDB_ASSIGN_OR_RETURN(result.relation,
                           Union(left.relation, right.relation));
    return result;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateNot(const FoFormula& formula) {
    LRPDB_ASSIGN_OR_RETURN(FoResult child, Evaluate(*formula.left));
    // Complement within (Z^m) x (active domain ^ l).
    LRPDB_ASSIGN_OR_RETURN(
        std::vector<std::vector<DataValue>> data_universe,
        DataUniverse(active_domain_,
                     static_cast<int>(child.data_vars.size())));
    LRPDB_ASSIGN_OR_RETURN(child.relation,
                           Complement(child.relation, data_universe));
    return child;
  }

  const FoQuery& query_;
  const Database& db_;
  const FoOptions& options_;
  std::vector<DataValue> active_domain_;
  std::optional<GeneralizedRelation> domain_relation_;
};

}  // namespace

[[nodiscard]] StatusOr<FoQuery> ParseFoQuery(
    std::string_view source, Database* db,
    const std::map<std::string, RelationSchema>* extra_schemas) {
  FoQuery query;
  FoParser parser(source, db, extra_schemas, &query);
  LRPDB_RETURN_IF_ERROR(parser.Run());
  return query;
}

[[nodiscard]] StatusOr<FoResult> EvaluateFoQuery(const FoQuery& query, const Database& db,
                                   const FoOptions& options) {
  if (query.formula == nullptr) {
    return InvalidArgumentError("empty query");
  }
  FoEvaluator evaluator(query, db, options);
  return evaluator.Evaluate(*query.formula);
}

}  // namespace lrpdb
