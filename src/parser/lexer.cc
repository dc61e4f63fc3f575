#include "src/parser/lexer.h"

#include <array>
#include <string>

namespace lrpdb {
namespace {

// Plain ASCII character classes, the same sets the "C" locale's std::is*
// functions accept, read from one table instead of a per-call locale
// lookup.
enum CharClass : uint8_t {
  kDigitClass = 1,       // 0-9
  kLetterClass = 2,      // a-z A-Z _
  kSpaceClass = 4,       // space \t \n \v \f \r
};
constexpr std::array<uint8_t, 256> kCharClasses = [] {
  std::array<uint8_t, 256> classes{};
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigitClass;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kLetterClass;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kLetterClass;
  classes['_'] = kLetterClass;
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[static_cast<unsigned char>(c)] = kSpaceClass;
  }
  return classes;
}();
bool Is(char c, uint8_t classes) {
  return (kCharClasses[static_cast<unsigned char>(c)] & classes) != 0;
}
bool IsDigit(char c) { return Is(c, kDigitClass); }
bool IsSpace(char c) { return Is(c, kSpaceClass); }
bool IsIdentifierStart(char c) { return Is(c, kLetterClass); }
bool IsIdentifierChar(char c) { return Is(c, kLetterClass | kDigitClass); }

// Digit runs this long cannot overflow int64, so they skip the checked
// conversion.
constexpr size_t kUncheckedDigits = 18;

// "line L:C: message": the position prefix of every error reported against
// the lexer's input, by the lexer itself or by a TokenStream's parser.
std::string PositionedMessage(int line, int column, std::string_view message) {
  std::string s = "line ";
  s += std::to_string(line);
  s += ':';
  s += std::to_string(column);
  s += ": ";
  s += message;
  return s;
}

}  // namespace

[[nodiscard]] StatusOr<int64_t> ParseDecimalInt64(std::string_view digits) {
  if (digits.empty()) return ParseError("expected digits");
  int64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return ParseError("expected digit in integer literal");
    }
    int d = c - '0';
    if (value > (INT64_MAX - d) / 10) {
      return ParseError("integer literal '" + std::string(digits) +
                        "' overflows int64");
    }
    value = value * 10 + d;
  }
  return value;
}

[[nodiscard]] Status Lexer::Error(std::string_view message) {
  error_ = lrpdb::ParseError(PositionedMessage(line_, column(), message));
  return error_;
}

void Lexer::Emit(TokenKind kind, std::string_view text, Token* token,
                 int64_t number) {
  token->kind = kind;
  token->text = text;
  token->number = number;
  token->line = line_;
  token->column = column();
  token->glued_to_previous = !previous_was_space_;
  previous_was_space_ = false;
}

[[nodiscard]] Status Lexer::Next(Token* token) {
  if (!error_.ok()) return error_;
  auto followed_by = [&](char next) {
    return pos_ + 1 < input_.size() && input_[pos_ + 1] == next;
  };
  // Skip whitespace and comments. No token spans a newline, so this is the
  // only place the line number advances.
  while (pos_ < input_.size()) {
    char c = input_[pos_];
    if (IsSpace(c)) {
      previous_was_space_ = true;
      ++pos_;
      if (c == '\n') {
        ++line_;
        line_start_ = pos_;
      }
    } else if (c == '%' || (c == '/' && followed_by('/'))) {
      size_t end = input_.find('\n', pos_);
      pos_ = end == std::string_view::npos ? input_.size() : end;
      previous_was_space_ = true;
    } else {
      break;
    }
  }
  if (pos_ >= input_.size()) {
    *token = Token();
    token->line = line_;
    token->column = column();
    return OkStatus();
  }

  const size_t start = pos_;
  const char c = input_[pos_];
  if (IsIdentifierStart(c)) {
    while (pos_ < input_.size() && IsIdentifierChar(input_[pos_])) ++pos_;
    Emit(TokenKind::kIdentifier, input_.substr(start, pos_ - start), token);
    return OkStatus();
  }
  if (IsDigit(c)) {
    uint64_t value = 0;  // Unsigned: wraps harmlessly past 18 digits.
    while (pos_ < input_.size() && IsDigit(input_[pos_])) {
      value = value * 10 + static_cast<uint64_t>(input_[pos_] - '0');
      ++pos_;
    }
    std::string_view text = input_.substr(start, pos_ - start);
    if (text.size() > kUncheckedDigits) {
      StatusOr<int64_t> number = ParseDecimalInt64(text);
      if (!number.ok()) return Error(number.status().message());
      value = static_cast<uint64_t>(*number);
    }
    Emit(TokenKind::kNumber, text, token, static_cast<int64_t>(value));
    return OkStatus();
  }
  TokenKind kind;
  size_t length = 1;
  switch (c) {
    case '"': {
      ++pos_;
      while (pos_ < input_.size() && input_[pos_] != '"' &&
             input_[pos_] != '\n') {
        ++pos_;
      }
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Error("unterminated string literal");
      }
      std::string_view text = input_.substr(start + 1, pos_ - start - 1);
      ++pos_;
      Emit(TokenKind::kString, text, token);
      return OkStatus();
    }
    case '.':
      if (pos_ + 1 < input_.size() && IsIdentifierStart(input_[pos_ + 1])) {
        ++pos_;
        while (pos_ < input_.size() && IsIdentifierChar(input_[pos_])) {
          ++pos_;
        }
        Emit(TokenKind::kDirective, input_.substr(start + 1, pos_ - start - 1),
             token);
        return OkStatus();
      }
      kind = TokenKind::kPeriod;
      break;
    case ':':
      if (!followed_by('-')) return Error("expected ':-'");
      kind = TokenKind::kImplies;
      length = 2;
      break;
    case '?':
      if (!followed_by('-')) return Error("expected '?-'");
      kind = TokenKind::kQuery;
      length = 2;
      break;
    case '(':
      kind = TokenKind::kLeftParen;
      break;
    case ')':
      kind = TokenKind::kRightParen;
      break;
    case ',':
      kind = TokenKind::kComma;
      break;
    case '+':
      kind = TokenKind::kPlus;
      break;
    case '-':
      kind = TokenKind::kMinus;
      break;
    case '^':
      kind = TokenKind::kCaret;
      break;
    case '&':
      kind = TokenKind::kAmp;
      break;
    case '|':
      kind = TokenKind::kPipe;
      break;
    case '~':
      kind = TokenKind::kTilde;
      break;
    case '!':
      kind = TokenKind::kBang;
      break;
    case '<':
      kind = TokenKind::kLess;
      if (followed_by('=')) {
        kind = TokenKind::kLessEqual;
        length = 2;
      }
      break;
    case '>':
      kind = TokenKind::kGreater;
      if (followed_by('=')) {
        kind = TokenKind::kGreaterEqual;
        length = 2;
      }
      break;
    case '=':
      kind = TokenKind::kEqual;
      break;
    default:
      return Error(std::string("unexpected character '") + c + "'");
  }
  pos_ += length;
  Emit(kind, input_.substr(start, length), token);
  return OkStatus();
}

[[nodiscard]] Status TokenStream::Error(std::string_view message) {
  const Token& t = Peek();
  std::string text = PositionedMessage(t.line, t.column, message);
  if (!t.text.empty()) {
    text += " (at '";
    text += t.text;
    text += "')";
  }
  return ParseError(std::move(text));
}

[[nodiscard]] Status TokenStream::Finish(Status parsed) {
  while (!parsed.ok() && lex_error_.ok() && !lexed_end_) Lex();
  return lex_error_.ok() ? parsed : lex_error_;
}

}  // namespace lrpdb
