// Lexer for the lrpdb surface syntax (see parser.h for the grammar).
#ifndef LRPDB_PARSER_LEXER_H_
#define LRPDB_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

// "line L:C: message": the position prefix of every error reported against
// this lexer's input (the lexer's own, and those of the parsers built on
// it), for a token's line:column or the lexer's.
std::string PositionedMessage(int line, int column, std::string_view message);

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

// Lexes all of `input`, ending with its kEnd token. For short inputs such as
// a single query formula; Parse() pulls tokens from a Lexer instead.
[[nodiscard]] StatusOr<std::vector<Token>> Tokenize(std::string_view input);

// Parses a run of decimal digits into an int64, rejecting overflow with
// kParseError. The std::stoll family throws on overflow, which in this
// exception-free codebase means malformed input could terminate the
// process; every digit run that could overflow goes through here instead
// (the lexer converts runs of at most 18 digits, which cannot, inline;
// regression: parser_test.cc OverlongLiterals).
[[nodiscard]] StatusOr<int64_t> ParseDecimalInt64(std::string_view digits);

}  // namespace lrpdb

#endif  // LRPDB_PARSER_LEXER_H_
