#include "src/fo/fo.h"

#include <algorithm>
#include <set>

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

class FoEvaluator {
 public:
  FoEvaluator(const FoQuery& query, const Database& db,
              const FoOptions& options)
      : query_(query), db_(db), options_(options) {
    // Active data domain: every constant in the database plus query/extra
    // constants.
    std::set<DataValue> domain;
    for (const std::string& name : db.RelationNames()) {
      auto relation = db.Relation(name);
      for (EntryId id : (*relation)->live_ids()) {
        for (DataValue d : (*relation)->tuple(id).data()) domain.insert(d);
      }
    }
    CollectConstants(*query.formula, &domain);
    for (DataValue d : options.extra_constants) domain.insert(d);
    if (options.extra_relations != nullptr) {
      for (const auto& [name, relation] : *options.extra_relations) {
        for (EntryId id : relation.live_ids()) {
          for (DataValue d : relation.tuple(id).data()) domain.insert(d);
        }
      }
    }
    active_domain_.assign(domain.begin(), domain.end());
  }

  [[nodiscard]] StatusOr<FoResult> Evaluate(const FoFormula& formula) {
    switch (formula.kind) {
      case FoFormula::Kind::kAtom:
        return EvaluateAtom(formula.atom);
      case FoFormula::Kind::kComparison:
        return EvaluateComparison(formula.comparison);
      case FoFormula::Kind::kAnd:
        return EvaluateAnd(formula);
      case FoFormula::Kind::kOr:
        return EvaluateOr(formula);
      case FoFormula::Kind::kNot:
        return EvaluateNot(formula);
      case FoFormula::Kind::kExists:
        return EvaluateExists(formula);
    }
    return InternalError("unhandled formula kind");
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

  std::string NameOf(SymbolId var) const {
    return query_.variables.NameOf(var);
  }

  [[nodiscard]] StatusOr<const GeneralizedRelation*> ResolveRelation(
      const std::string& name) const {
    if (options_.extra_relations != nullptr) {
      auto it = options_.extra_relations->find(name);
      if (it != options_.extra_relations->end()) return &it->second;
    }
    return db_.Relation(name);
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateAtom(const FoAtom& atom) {
    LRPDB_ASSIGN_OR_RETURN(const GeneralizedRelation* stored,
                           ResolveRelation(atom.predicate));
    int m = stored->schema().temporal_arity;
    // Selection DBM over the stored columns: constants and repeated
    // variables.
    Dbm selection(m);
    std::vector<SymbolId> temporal_vars;       // First-occurrence order.
    std::vector<int> var_first_column;
    std::vector<int64_t> var_first_offset;
    for (int col = 0; col < m; ++col) {
      const TemporalTerm& term = atom.temporal_args[col];
      if (term.is_constant()) {
        selection.AddEquality(col + 1, term.offset);
        continue;
      }
      auto it = std::find(temporal_vars.begin(), temporal_vars.end(),
                          term.variable);
      if (it == temporal_vars.end()) {
        temporal_vars.push_back(term.variable);
        var_first_column.push_back(col);
        var_first_offset.push_back(term.offset);
      } else {
        size_t k = it - temporal_vars.begin();
        // column - offset == first_column - first_offset.
        selection.AddDifferenceEquality(col + 1, var_first_column[k] + 1,
                                        term.offset - var_first_offset[k]);
      }
    }
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation selected,
                           SelectConstraint(*stored, selection));
    // Shift first-occurrence columns so they carry the variable's value.
    GeneralizedRelation shifted = std::move(selected);
    for (size_t k = 0; k < temporal_vars.size(); ++k) {
      if (var_first_offset[k] == 0) continue;
      LRPDB_ASSIGN_OR_RETURN(shifted,
                             ShiftColumn(shifted, var_first_column[k],
                                         -var_first_offset[k]));
    }
    // Data columns: constants and repeated variables, then projection.
    GeneralizedRelation filtered = std::move(shifted);
    std::vector<SymbolId> data_vars;
    std::vector<int> data_first_column;
    for (size_t col = 0; col < atom.data_args.size(); ++col) {
      const DataTerm& term = atom.data_args[col];
      if (term.is_constant()) {
        LRPDB_ASSIGN_OR_RETURN(
            filtered, SelectDataEquals(filtered, static_cast<int>(col),
                                       term.constant));
        continue;
      }
      auto it = std::find(data_vars.begin(), data_vars.end(), term.variable);
      if (it == data_vars.end()) {
        data_vars.push_back(term.variable);
        data_first_column.push_back(static_cast<int>(col));
      } else {
        LRPDB_ASSIGN_OR_RETURN(
            filtered,
            SelectDataColumnsEqual(filtered,
                                   data_first_column[it - data_vars.begin()],
                                   static_cast<int>(col)));
      }
    }
    LRPDB_ASSIGN_OR_RETURN(
        GeneralizedRelation projected,
        Project(filtered, var_first_column, data_first_column));
    FoResult result;
    for (SymbolId v : temporal_vars) result.temporal_vars.push_back(NameOf(v));
    for (SymbolId v : data_vars) result.data_vars.push_back(NameOf(v));
    result.relation = std::move(projected);
    return result;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateComparison(const ConstraintAtom& comparison) {
    // Relation over the comparison's variables (0, 1 or 2 of them).
    std::vector<SymbolId> vars;
    auto note = [&](const TemporalTerm& term) {
      if (!term.is_constant() &&
          std::find(vars.begin(), vars.end(), term.variable) == vars.end()) {
        vars.push_back(term.variable);
      }
    };
    note(comparison.lhs);
    note(comparison.rhs);
    int m = static_cast<int>(vars.size());
    Dbm constraint(m);
    auto side = [&](const TemporalTerm& term) -> std::pair<int, int64_t> {
      if (term.is_constant()) return {0, term.offset};
      int index =
          static_cast<int>(std::find(vars.begin(), vars.end(), term.variable) -
                           vars.begin()) +
          1;
      return {index, term.offset};
    };
    auto [li, lo] = side(comparison.lhs);
    auto [ri, ro] = side(comparison.rhs);
    // Bounds between two occurrences of the same term are decided
    // immediately; a violated one (k < 0) falsifies the whole conjunction
    // of bounds this comparison expands to.
    bool trivially_false = false;
    auto add_le = [&](int a, int b, int64_t k) {
      if (a == b) {
        if (k < 0) trivially_false = true;
        return;
      }
      constraint.AddDifferenceUpperBound(a, b, k);
    };
    switch (comparison.op) {
      case ComparisonOp::kLess:
        add_le(li, ri, ro - lo - 1);
        break;
      case ComparisonOp::kLessEqual:
        add_le(li, ri, ro - lo);
        break;
      case ComparisonOp::kEqual:
        add_le(li, ri, ro - lo);
        add_le(ri, li, lo - ro);
        break;
      case ComparisonOp::kGreaterEqual:
        add_le(ri, li, lo - ro);
        break;
      case ComparisonOp::kGreater:
        add_le(ri, li, lo - ro - 1);
        break;
    }
    FoResult result;
    for (SymbolId v : vars) result.temporal_vars.push_back(NameOf(v));
    result.relation = GeneralizedRelation(RelationSchema{m, 0});
    if (!trivially_false) {
      std::vector<Lrp> lrps(m, Lrp());
      result.relation.InsertUnlessEmpty(
          GeneralizedTuple(std::move(lrps), {}, std::move(constraint)));
    }
    return result;
  }

  // Extends `r` with universe columns for the missing variables and reorders
  // to exactly (temporal_vars, data_vars).
  [[nodiscard]] StatusOr<FoResult> ExtendTo(FoResult r,
                              const std::vector<std::string>& temporal_vars,
                              const std::vector<std::string>& data_vars) {
    // Append missing temporal columns.
    for (const std::string& var : temporal_vars) {
      if (std::find(r.temporal_vars.begin(), r.temporal_vars.end(), var) !=
          r.temporal_vars.end()) {
        continue;
      }
      GeneralizedRelation universe(RelationSchema{1, 0});
      universe.InsertUnlessEmpty(GeneralizedTuple::Unconstrained({Lrp()}, {}));
      LRPDB_ASSIGN_OR_RETURN(
          r.relation, CartesianProduct(r.relation, universe));
      // CartesianProduct appends temporal columns of the right operand after
      // the left's, but data columns also concatenate (right has none).
      r.temporal_vars.push_back(var);
    }
    for (const std::string& var : data_vars) {
      if (std::find(r.data_vars.begin(), r.data_vars.end(), var) !=
          r.data_vars.end()) {
        continue;
      }
      GeneralizedRelation domain(RelationSchema{0, 1});
      for (DataValue d : active_domain_) {
        domain.InsertUnlessEmpty(GeneralizedTuple::Unconstrained({}, {d}));
      }
      LRPDB_ASSIGN_OR_RETURN(
          r.relation, CartesianProduct(r.relation, domain));
      r.data_vars.push_back(var);
    }
    // Reorder to the target order (CartesianProduct concatenates temporal
    // and data column blocks separately, matching the bookkeeping above).
    std::vector<int> temporal_order;
    for (const std::string& var : temporal_vars) {
      auto it = std::find(r.temporal_vars.begin(), r.temporal_vars.end(), var);
      LRPDB_CHECK(it != r.temporal_vars.end());
      temporal_order.push_back(
          static_cast<int>(it - r.temporal_vars.begin()));
    }
    std::vector<int> data_order;
    for (const std::string& var : data_vars) {
      auto it = std::find(r.data_vars.begin(), r.data_vars.end(), var);
      LRPDB_CHECK(it != r.data_vars.end());
      data_order.push_back(static_cast<int>(it - r.data_vars.begin()));
    }
    FoResult out;
    out.temporal_vars = temporal_vars;
    out.data_vars = data_vars;
    LRPDB_ASSIGN_OR_RETURN(
        out.relation,
        Project(r.relation, temporal_order, data_order));
    return out;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateAnd(const FoFormula& formula) {
    LRPDB_ASSIGN_OR_RETURN(FoResult left, Evaluate(*formula.left));
    LRPDB_ASSIGN_OR_RETURN(FoResult right, Evaluate(*formula.right));
    // Join on shared variables.
    std::vector<TemporalEquality> temporal_eqs;
    for (size_t i = 0; i < left.temporal_vars.size(); ++i) {
      auto it = std::find(right.temporal_vars.begin(),
                          right.temporal_vars.end(), left.temporal_vars[i]);
      if (it != right.temporal_vars.end()) {
        temporal_eqs.push_back(
            {static_cast<int>(i),
             static_cast<int>(it - right.temporal_vars.begin()), 0});
      }
    }
    std::vector<std::pair<int, int>> data_eqs;
    for (size_t i = 0; i < left.data_vars.size(); ++i) {
      auto it = std::find(right.data_vars.begin(), right.data_vars.end(),
                          left.data_vars[i]);
      if (it != right.data_vars.end()) {
        data_eqs.emplace_back(
            static_cast<int>(i),
            static_cast<int>(it - right.data_vars.begin()));
      }
    }
    LRPDB_ASSIGN_OR_RETURN(
        GeneralizedRelation joined,
        JoinOnEqualities(left.relation, right.relation, temporal_eqs,
                         data_eqs));
    // Project to the union of variables (left's columns, then right's new
    // ones).
    FoResult result;
    std::vector<int> temporal_keep;
    std::vector<int> data_keep;
    for (size_t i = 0; i < left.temporal_vars.size(); ++i) {
      result.temporal_vars.push_back(left.temporal_vars[i]);
      temporal_keep.push_back(static_cast<int>(i));
    }
    for (size_t i = 0; i < right.temporal_vars.size(); ++i) {
      if (std::find(left.temporal_vars.begin(), left.temporal_vars.end(),
                    right.temporal_vars[i]) != left.temporal_vars.end()) {
        continue;
      }
      result.temporal_vars.push_back(right.temporal_vars[i]);
      temporal_keep.push_back(
          static_cast<int>(left.temporal_vars.size() + i));
    }
    for (size_t i = 0; i < left.data_vars.size(); ++i) {
      result.data_vars.push_back(left.data_vars[i]);
      data_keep.push_back(static_cast<int>(i));
    }
    for (size_t i = 0; i < right.data_vars.size(); ++i) {
      if (std::find(left.data_vars.begin(), left.data_vars.end(),
                    right.data_vars[i]) != left.data_vars.end()) {
        continue;
      }
      result.data_vars.push_back(right.data_vars[i]);
      data_keep.push_back(static_cast<int>(left.data_vars.size() + i));
    }
    LRPDB_ASSIGN_OR_RETURN(
        result.relation,
        Project(joined, temporal_keep, data_keep));
    return result;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateOr(const FoFormula& formula) {
    LRPDB_ASSIGN_OR_RETURN(FoResult left, Evaluate(*formula.left));
    LRPDB_ASSIGN_OR_RETURN(FoResult right, Evaluate(*formula.right));
    std::vector<std::string> temporal_vars = left.temporal_vars;
    for (const std::string& var : right.temporal_vars) {
      if (std::find(temporal_vars.begin(), temporal_vars.end(), var) ==
          temporal_vars.end()) {
        temporal_vars.push_back(var);
      }
    }
    std::vector<std::string> data_vars = left.data_vars;
    for (const std::string& var : right.data_vars) {
      if (std::find(data_vars.begin(), data_vars.end(), var) ==
          data_vars.end()) {
        data_vars.push_back(var);
      }
    }
    LRPDB_ASSIGN_OR_RETURN(FoResult a,
                           ExtendTo(std::move(left), temporal_vars, data_vars));
    LRPDB_ASSIGN_OR_RETURN(
        FoResult b, ExtendTo(std::move(right), temporal_vars, data_vars));
    FoResult result;
    result.temporal_vars = std::move(temporal_vars);
    result.data_vars = std::move(data_vars);
    LRPDB_ASSIGN_OR_RETURN(result.relation,
                           Union(a.relation, b.relation));
    return result;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateNot(const FoFormula& formula) {
    LRPDB_ASSIGN_OR_RETURN(FoResult child, Evaluate(*formula.left));
    // Complement within (Z^m) x (active domain ^ l).
    LRPDB_ASSIGN_OR_RETURN(
        std::vector<std::vector<DataValue>> data_universe,
        DataUniverse(active_domain_,
                     static_cast<int>(child.data_vars.size())));
    FoResult result;
    result.temporal_vars = child.temporal_vars;
    result.data_vars = child.data_vars;
    LRPDB_ASSIGN_OR_RETURN(
        result.relation,
        Complement(child.relation, data_universe));
    return result;
  }

  [[nodiscard]] StatusOr<FoResult> EvaluateExists(const FoFormula& formula) {
    LRPDB_ASSIGN_OR_RETURN(FoResult child, Evaluate(*formula.left));
    std::set<std::string> bound;
    for (SymbolId var : formula.bound) bound.insert(NameOf(var));
    FoResult result;
    std::vector<int> temporal_keep;
    std::vector<int> data_keep;
    for (size_t i = 0; i < child.temporal_vars.size(); ++i) {
      if (bound.count(child.temporal_vars[i]) > 0) continue;
      result.temporal_vars.push_back(child.temporal_vars[i]);
      temporal_keep.push_back(static_cast<int>(i));
    }
    for (size_t i = 0; i < child.data_vars.size(); ++i) {
      if (bound.count(child.data_vars[i]) > 0) continue;
      result.data_vars.push_back(child.data_vars[i]);
      data_keep.push_back(static_cast<int>(i));
    }
    LRPDB_ASSIGN_OR_RETURN(
        result.relation,
        Project(child.relation, temporal_keep, data_keep));
    return result;
  }

  const FoQuery& query_;
  const Database& db_;
  const FoOptions& options_;
  std::vector<DataValue> active_domain_;
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
