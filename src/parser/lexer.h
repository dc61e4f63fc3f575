// Lexer for the lrpdb surface syntax (see parser.h for the grammar).
#ifndef LRPDB_PARSER_LEXER_H_
#define LRPDB_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/statusor.h"

namespace lrpdb {

enum class TokenKind {
  kIdentifier,   // course, t1, N, n
  kNumber,       // 168
  kString,       // "database"
  kDirective,    // .decl or .fact (text carries the name without the dot)
  kLeftParen,
  kRightParen,
  kComma,
  kPeriod,       // end of statement
  kImplies,      // :-
  kQuery,        // ?-
  kPlus,
  kMinus,
  kCaret,  // ^ (used by the Templog syntax: next^5)
  kAmp,    // &  (FO conjunction)
  kPipe,   // |  (FO disjunction)
  kTilde,  // ~  (FO negation)
  kBang,   // !  (negated body literal, stratified negation)
  kLess,
  kLessEqual,
  kEqual,
  kGreaterEqual,
  kGreater,
  kEnd,
};

// A token's text is a view into the lexed input (for a string literal,
// the bytes between the quotes), so the input must outlive its tokens.
// line:column is the position just past the token's last character.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int64_t number = 0;
  int line = 0;
  int column = 0;
  // True when this token directly abuts the previous one (no whitespace in
  // between); used to recognize "168n" as an lrp rather than two terms.
  bool glued_to_previous = false;
};

// Lexes `input` one token per Next() call, so a caller holds only the
// tokens it is looking at. Comments run from "//" or "%" to end of line.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  // Stores the next token in `*token`. At the end of the input every call
  // yields a kEnd token. A lexical error is a kParseError carrying its
  // line:column, and every later call returns it again.
  [[nodiscard]] Status Next(Token* token);

 private:
  [[nodiscard]] Status Error(std::string_view message);
  // The 1-based column of the current position, counted from the start of
  // its line (no token spans a newline).
  int column() const { return static_cast<int>(pos_ - line_start_) + 1; }
  void Emit(TokenKind kind, std::string_view text, Token* token,
            int64_t number = 0);

  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // Offset of the current line's first character.
  bool previous_was_space_ = true;
  Status error_;
};

// The naming rule every surface language shares: an identifier that starts
// with an uppercase letter or '_' is a data variable; any other identifier
// in a data position is a constant.
inline bool IsDataVariableName(std::string_view name) {
  return !name.empty() &&
         ((name[0] >= 'A' && name[0] <= 'Z') || name[0] == '_');
}

// The cursor every surface parser reads through: it pulls tokens from a
// Lexer into a 4-slot lookahead ring, so a parser holds a few tokens at a
// time rather than the whole source's. A parser derives from it privately.
// A lexical error ends the stream: the parser sees kEnd there, and Finish()
// reports the error.
class TokenStream {
 public:
  explicit TokenStream(std::string_view source) : lexer_(source) {}

  // The token `ahead` (at most 1) places past the cursor.
  const Token& Peek(size_t ahead = 0) {
    while (lexed_ <= next_ + ahead) Lex();
    return ring_[(next_ + ahead) % kRingSize];
  }
  // Consumes the current token, which stays readable until the next
  // Advance() or Match().
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
  // Consumes the identifier `word`, as a keyword.
  bool MatchWord(std::string_view word) {
    if (Peek().kind != TokenKind::kIdentifier || Peek().text != word) {
      return false;
    }
    ++next_;
    return true;
  }
  // `what` is spelled out only when the token is missing.
  [[nodiscard]] Status Expect(TokenKind kind, const char* what) {
    if (Match(kind)) return OkStatus();
    return Error(std::string("expected ") + what);
  }
  // A kParseError at the current token:
  // "line L:C: message (at 'token text')", without the "(at ...)" at the
  // end of the input.
  [[nodiscard]] Status Error(std::string_view message);

  // A signed integer literal.
  [[nodiscard]] Status SignedNumber(int64_t* value) {
    const bool negative = Match(TokenKind::kMinus);
    if (Peek().kind != TokenKind::kNumber) return Error("expected integer");
    const int64_t v = Advance().number;
    *value = negative ? -v : v;
    return OkStatus();
  }
  // The optional "+ INT" / "- INT" after a term; 0 when there is none.
  [[nodiscard]] Status Offset(int64_t* offset) {
    *offset = 0;
    if (Match(TokenKind::kPlus)) return SignedNumber(offset);
    if (!Match(TokenKind::kMinus)) return OkStatus();
    LRPDB_RETURN_IF_ERROR(SignedNumber(offset));
    *offset = -*offset;
    return OkStatus();
  }

  // The outcome of a parse that returned `parsed`: a lexical error anywhere
  // in the source wins over a parse error before it (the rest of the
  // source is lexed to find one), as if the whole source were lexed before
  // parsing began.
  [[nodiscard]] Status Finish(Status parsed);

 private:
  // Ring slots for the token Advance() last returned, Peek(0) and Peek(1);
  // a power of two, so finding a slot is a mask.
  static constexpr size_t kRingSize = 4;

  // Lexes one more token into the ring.
  void Lex() {
    Token& slot = ring_[lexed_++ % kRingSize];
    Status status = lexer_.Next(&slot);
    if (!status.ok()) {
      lex_error_ = std::move(status);
      slot = Token();
    }
    lexed_end_ = slot.kind == TokenKind::kEnd;
  }

  Lexer lexer_;
  Token ring_[kRingSize];
  size_t next_ = 0;   // Sequence number of Peek(0).
  size_t lexed_ = 0;  // Tokens lexed so far.
  bool lexed_end_ = false;
  Status lex_error_;
};

// Parses a run of decimal digits into an int64, rejecting overflow with
// kParseError. The std::stoll family throws on overflow, which in this
// exception-free codebase means malformed input could terminate the
// process; every digit run that could overflow goes through here instead
// (the lexer converts runs of at most 18 digits, which cannot, inline;
// regression: parser_test.cc OverlongLiterals).
[[nodiscard]] StatusOr<int64_t> ParseDecimalInt64(std::string_view digits);

}  // namespace lrpdb

#endif  // LRPDB_PARSER_LEXER_H_
