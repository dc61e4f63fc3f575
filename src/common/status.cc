#include "src/common/status.h"

namespace lrpdb {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kParseError:
      return "PARSE_ERROR";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeToString(code_);
  if (!message_.empty()) {
    result += ": ";
    result += message_;
  }
  return result;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

[[nodiscard]] Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
[[nodiscard]] Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
[[nodiscard]] Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
[[nodiscard]] Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
[[nodiscard]] Status UnimplementedError(std::string message) {
  return Status(StatusCode::kUnimplemented, std::move(message));
}
[[nodiscard]] Status ParseError(std::string message) {
  return Status(StatusCode::kParseError, std::move(message));
}
[[nodiscard]] Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
[[nodiscard]] Status CancelledError(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}

}  // namespace lrpdb
