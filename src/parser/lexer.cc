#include "src/parser/lexer.h"

#include <cctype>

namespace lrpdb {
namespace {

bool IsIdentifierStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
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

[[nodiscard]] Status Lexer::Error(const std::string& message) {
  error_ = lrpdb::ParseError("line " + std::to_string(line_) + ":" +
                             std::to_string(column_) + ": " + message);
  return error_;
}

void Lexer::Emit(TokenKind kind, std::string_view text, Token* token,
                 int64_t number) {
  token->kind = kind;
  token->text = text;
  token->number = number;
  token->line = line_;
  token->column = column_;
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
    if (std::isspace(static_cast<unsigned char>(c))) {
      previous_was_space_ = true;
      ++pos_;
      if (c == '\n') {
        ++line_;
        column_ = 1;
      } else {
        ++column_;
      }
    } else if (c == '%' || (c == '/' && followed_by('/'))) {
      size_t end = input_.find('\n', pos_);
      Skip((end == std::string_view::npos ? input_.size() : end) - pos_);
      previous_was_space_ = true;
    } else {
      break;
    }
  }
  if (pos_ >= input_.size()) {
    *token = Token();
    token->line = line_;
    token->column = column_;
    return OkStatus();
  }

  const size_t start = pos_;
  const char c = input_[pos_];
  if (IsIdentifierStart(c)) {
    while (pos_ < input_.size() && IsIdentifierChar(input_[pos_])) Skip(1);
    Emit(TokenKind::kIdentifier, input_.substr(start, pos_ - start), token);
    return OkStatus();
  }
  if (std::isdigit(static_cast<unsigned char>(c))) {
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      Skip(1);
    }
    std::string_view text = input_.substr(start, pos_ - start);
    StatusOr<int64_t> number = ParseDecimalInt64(text);
    if (!number.ok()) return Error(number.status().message());
    Emit(TokenKind::kNumber, text, token, *number);
    return OkStatus();
  }
  TokenKind kind;
  size_t length = 1;
  switch (c) {
    case '"': {
      Skip(1);
      while (pos_ < input_.size() && input_[pos_] != '"' &&
             input_[pos_] != '\n') {
        Skip(1);
      }
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Error("unterminated string literal");
      }
      std::string_view text = input_.substr(start + 1, pos_ - start - 1);
      Skip(1);
      Emit(TokenKind::kString, text, token);
      return OkStatus();
    }
    case '.':
      if (pos_ + 1 < input_.size() && IsIdentifierStart(input_[pos_ + 1])) {
        Skip(1);
        while (pos_ < input_.size() && IsIdentifierChar(input_[pos_])) {
          Skip(1);
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
  Skip(length);
  Emit(kind, input_.substr(start, length), token);
  return OkStatus();
}

[[nodiscard]] StatusOr<std::vector<Token>> Tokenize(std::string_view input) {
  Lexer lexer(input);
  std::vector<Token> tokens;
  do {
    LRPDB_RETURN_IF_ERROR(lexer.Next(&tokens.emplace_back()));
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

}  // namespace lrpdb
