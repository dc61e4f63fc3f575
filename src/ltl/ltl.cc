#include "src/ltl/ltl.h"

#include <map>

#include "src/common/logging.h"
#include "src/parser/lexer.h"

namespace lrpdb {

LtlFormulaPtr Prop(int bit) {
  auto f = std::make_unique<LtlFormula>();
  f->kind = LtlFormula::Kind::kProposition;
  f->proposition = bit;
  return f;
}
LtlFormulaPtr True() {
  auto f = std::make_unique<LtlFormula>();
  f->kind = LtlFormula::Kind::kTrue;
  return f;
}
namespace {
LtlFormulaPtr Unary(LtlFormula::Kind kind, LtlFormulaPtr child) {
  auto f = std::make_unique<LtlFormula>();
  f->kind = kind;
  f->left = std::move(child);
  return f;
}
LtlFormulaPtr Binary(LtlFormula::Kind kind, LtlFormulaPtr a,
                     LtlFormulaPtr b) {
  auto f = std::make_unique<LtlFormula>();
  f->kind = kind;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}
}  // namespace
LtlFormulaPtr Not(LtlFormulaPtr f) {
  return Unary(LtlFormula::Kind::kNot, std::move(f));
}
LtlFormulaPtr And(LtlFormulaPtr a, LtlFormulaPtr b) {
  return Binary(LtlFormula::Kind::kAnd, std::move(a), std::move(b));
}
LtlFormulaPtr Or(LtlFormulaPtr a, LtlFormulaPtr b) {
  return Binary(LtlFormula::Kind::kOr, std::move(a), std::move(b));
}
LtlFormulaPtr Next(LtlFormulaPtr f) {
  return Unary(LtlFormula::Kind::kNext, std::move(f));
}
LtlFormulaPtr Eventually(LtlFormulaPtr f) {
  return Unary(LtlFormula::Kind::kEventually, std::move(f));
}
LtlFormulaPtr Always(LtlFormulaPtr f) {
  return Unary(LtlFormula::Kind::kAlways, std::move(f));
}
LtlFormulaPtr Until(LtlFormulaPtr a, LtlFormulaPtr b) {
  return Binary(LtlFormula::Kind::kUntil, std::move(a), std::move(b));
}

namespace {

// --- Parsing ---

class LtlParser {
 public:
  LtlParser(std::vector<Token> tokens, LtlQuery* query)
      : tokens_(std::move(tokens)), query_(query) {}

  [[nodiscard]] Status Run() {
    auto formula = ParseImplies();
    if (!formula.ok()) return formula.status();
    if (Peek().kind != TokenKind::kEnd) return Error("trailing input");
    query_->formula = std::move(*formula);
    return OkStatus();
  }

 private:
  const Token& Peek() const {
    return pos_ < tokens_.size() ? tokens_[pos_] : tokens_.back();
  }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }
  bool MatchWord(const char* word) {
    if (Peek().kind == TokenKind::kIdentifier && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[nodiscard]] Status Error(const std::string& message) const {
    const Token& t = Peek();
    return ParseError("line " + std::to_string(t.line) + ":" +
                      std::to_string(t.column) + ": " + message);
  }

  // implies := or ('->' or)*, right associative. '->' arrives from the
  // lexer as kMinus kGreater.
  [[nodiscard]] StatusOr<LtlFormulaPtr> ParseImplies() {
    LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr left, ParseOr());
    if (Peek().kind == TokenKind::kMinus &&
        pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].kind == TokenKind::kGreater) {
      pos_ += 2;
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr right, ParseImplies());
      return Or(Not(std::move(left)), std::move(right));
    }
    return left;
  }

  [[nodiscard]] StatusOr<LtlFormulaPtr> ParseOr() {
    LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr left, ParseAnd());
    while (Match(TokenKind::kPipe)) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr right, ParseAnd());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  [[nodiscard]] StatusOr<LtlFormulaPtr> ParseAnd() {
    LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr left, ParseUntil());
    while (Match(TokenKind::kAmp)) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr right, ParseUntil());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  [[nodiscard]] StatusOr<LtlFormulaPtr> ParseUntil() {
    LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr left, ParseUnary());
    if (MatchWord("U")) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr right, ParseUntil());
      return Until(std::move(left), std::move(right));
    }
    return left;
  }

  [[nodiscard]] StatusOr<LtlFormulaPtr> ParseUnary() {
    if (Match(TokenKind::kTilde)) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr child, ParseUnary());
      return Not(std::move(child));
    }
    if (MatchWord("X")) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr child, ParseUnary());
      return Next(std::move(child));
    }
    if (MatchWord("F")) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr child, ParseUnary());
      return Eventually(std::move(child));
    }
    if (MatchWord("G")) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr child, ParseUnary());
      return Always(std::move(child));
    }
    if (Match(TokenKind::kLeftParen)) {
      LRPDB_ASSIGN_OR_RETURN(LtlFormulaPtr child, ParseImplies());
      if (!Match(TokenKind::kRightParen)) return Error("expected ')'");
      return child;
    }
    if (Peek().kind == TokenKind::kIdentifier) {
      std::string name(tokens_[pos_++].text);
      if (name == "true") return True();
      if (name == "false") return Not(True());
      return Prop(query_->propositions.Intern(name));
    }
    return Error("expected LTL formula");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  LtlQuery* query_;
};

// --- Evaluation ---

// Positions 0 .. prefix+loop-1 represent the whole word; the successor of
// the last position wraps to the loop start.
class LassoEvaluator {
 public:
  explicit LassoEvaluator(const PeriodicWord& word) : word_(word) {
    total_ = static_cast<int64_t>(word.prefix().size() + word.loop().size());
  }

  int64_t total() const { return total_; }
  int64_t Successor(int64_t i) const {
    return i + 1 < total_ ? i + 1
                          : static_cast<int64_t>(word_.prefix().size());
  }

  // Truth of `formula` at every representative position.
  std::vector<bool> Evaluate(const LtlFormula& formula) {
    switch (formula.kind) {
      case LtlFormula::Kind::kProposition: {
        std::vector<bool> out(total_);
        for (int64_t i = 0; i < total_; ++i) {
          out[i] = (word_.At(i) >> formula.proposition) & 1;
        }
        return out;
      }
      case LtlFormula::Kind::kTrue:
        return std::vector<bool>(total_, true);
      case LtlFormula::Kind::kNot: {
        std::vector<bool> out = Evaluate(*formula.left);
        out.flip();
        return out;
      }
      case LtlFormula::Kind::kAnd: {
        std::vector<bool> l = Evaluate(*formula.left);
        std::vector<bool> r = Evaluate(*formula.right);
        for (int64_t i = 0; i < total_; ++i) l[i] = l[i] && r[i];
        return l;
      }
      case LtlFormula::Kind::kOr: {
        std::vector<bool> l = Evaluate(*formula.left);
        std::vector<bool> r = Evaluate(*formula.right);
        for (int64_t i = 0; i < total_; ++i) l[i] = l[i] || r[i];
        return l;
      }
      case LtlFormula::Kind::kNext: {
        std::vector<bool> child = Evaluate(*formula.left);
        std::vector<bool> out(total_);
        for (int64_t i = 0; i < total_; ++i) out[i] = child[Successor(i)];
        return out;
      }
      case LtlFormula::Kind::kEventually: {
        std::vector<bool> child = Evaluate(*formula.left);
        return LeastFixpointUntil(std::vector<bool>(total_, true), child);
      }
      case LtlFormula::Kind::kAlways: {
        // [] phi == ~(true U ~phi).
        std::vector<bool> child = Evaluate(*formula.left);
        child.flip();
        std::vector<bool> f =
            LeastFixpointUntil(std::vector<bool>(total_, true), child);
        f.flip();
        return f;
      }
      case LtlFormula::Kind::kUntil:
        return LeastFixpointUntil(Evaluate(*formula.left),
                                  Evaluate(*formula.right));
    }
    return std::vector<bool>(total_, false);
  }

 private:
  // Least fixpoint of value(i) = psi(i) || (phi(i) && value(succ(i))) on
  // the lasso: monotone relaxation sweeps until stable (at most total_+1
  // sweeps; in practice two).
  std::vector<bool> LeastFixpointUntil(std::vector<bool> phi,
                                       std::vector<bool> psi) {
    std::vector<bool> value = psi;
    bool changed = true;
    while (changed) {
      changed = false;
      for (int64_t i = total_ - 1; i >= 0; --i) {
        bool next = psi[i] || (phi[i] && value[Successor(i)]);
        if (next != value[i]) {
          value[i] = next;
          changed = true;
        }
      }
    }
    return value;
  }

  const PeriodicWord& word_;
  int64_t total_ = 0;
};

}  // namespace

[[nodiscard]] StatusOr<LtlQuery> ParseLtl(std::string_view source) {
  LRPDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  LtlQuery query;
  LtlParser parser(std::move(tokens), &query);
  LRPDB_RETURN_IF_ERROR(parser.Run());
  return query;
}

bool EvaluateLtl(const LtlFormula& formula, const PeriodicWord& word,
                 int64_t position) {
  LRPDB_CHECK_GE(position, 0);
  LassoEvaluator evaluator(word);
  std::vector<bool> values = evaluator.Evaluate(formula);
  int64_t prefix = static_cast<int64_t>(word.prefix().size());
  int64_t loop = static_cast<int64_t>(word.loop().size());
  int64_t index = position < prefix
                      ? position
                      : prefix + (position - prefix) % loop;
  return values[index];
}

EventuallyPeriodicSet SatisfactionSet(const LtlFormula& formula,
                                      const PeriodicWord& word) {
  LassoEvaluator evaluator(word);
  std::vector<bool> values = evaluator.Evaluate(formula);
  int64_t prefix = static_cast<int64_t>(word.prefix().size());
  std::vector<bool> head(values.begin(), values.begin() + prefix);
  std::vector<bool> tail(values.begin() + prefix, values.end());
  auto set = EventuallyPeriodicSet::Create(std::move(head), std::move(tail));
  LRPDB_CHECK(set.ok());
  return std::move(set).value();
}

}  // namespace lrpdb
