// Error-handling vocabulary for lrpdb. The library does not use exceptions;
// every operation that can fail returns a Status (or a StatusOr<T>, see
// statusor.h). Modeled on absl::Status, reduced to what this project needs.
#ifndef LRPDB_COMMON_STATUS_H_
#define LRPDB_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace lrpdb {

// Canonical error space. kOk is the unique success code.
enum class StatusCode {
  kOk = 0,
  // The caller supplied an argument outside the function's domain, e.g. an
  // lrp with zero period or a constraint over an unknown variable.
  kInvalidArgument,
  // A well-formed request referenced something that does not exist, e.g. an
  // undeclared predicate.
  kNotFound,
  // An internal invariant was violated; indicates a bug in lrpdb itself.
  kInternal,
  // The computation exceeded a user-provided budget. The generalized
  // bottom-up evaluation returns this when a program reaches free-extension
  // safety but never becomes constraint safe (paper, Section 4.3).
  kResourceExhausted,
  // The requested operation is not supported by this representation, e.g.
  // complementing a nondeterministic Buchi automaton.
  kUnimplemented,
  // Input text failed to parse.
  kParseError,
  // The evaluation's ExecContext deadline elapsed before a fixpoint was
  // reached. The evaluator surfaces a PartialResult alongside this code
  // (exec_context.h).
  kDeadlineExceeded,
  // The caller cancelled the evaluation via ExecContext::Cancel(); like
  // kDeadlineExceeded, a PartialResult accompanies it.
  kCancelled,
};

// Returns the canonical spelling of `code` ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

// A success-or-error value. Cheap to copy in the success case.
//
// The class itself is [[nodiscard]]: any call that returns a Status by
// value and ignores it is a compile error (-Werror=unused-result), because
// a dropped Status is a swallowed failure. Handle it, propagate it with
// LRPDB_RETURN_IF_ERROR, or crash deliberately with LRPDB_CHECK_OK.
class [[nodiscard]] Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Convenience constructors, mirroring absl's free functions.
[[nodiscard]] inline Status OkStatus() { return Status(); }
[[nodiscard]] Status InvalidArgumentError(std::string message);
[[nodiscard]] Status NotFoundError(std::string message);
[[nodiscard]] Status InternalError(std::string message);
[[nodiscard]] Status ResourceExhaustedError(std::string message);
[[nodiscard]] Status UnimplementedError(std::string message);
[[nodiscard]] Status ParseError(std::string message);
[[nodiscard]] Status DeadlineExceededError(std::string message);
[[nodiscard]] Status CancelledError(std::string message);

}  // namespace lrpdb

// Evaluates `expr` (a Status expression) and returns it from the enclosing
// function if it is not OK.
#define LRPDB_RETURN_IF_ERROR(expr)                 \
  do {                                              \
    ::lrpdb::Status lrpdb_status_macro_ = (expr);   \
    if (!lrpdb_status_macro_.ok()) {                \
      return lrpdb_status_macro_;                   \
    }                                               \
  } while (false)

#endif  // LRPDB_COMMON_STATUS_H_
