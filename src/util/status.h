// Status / Result error model, following the Arrow / RocksDB idiom:
// no exceptions cross public API boundaries; fallible functions return
// Status (or Result<T> when they produce a value).
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace asqp {
namespace util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNotImplemented,
  kParseError,
  kExecutionError,
  kDeadlineExceeded,
  kCancelled,
  kResourceExhausted,
  kDegraded,
  kInternal,
};

/// \brief Outcome of an operation: OK, or an error code plus message.
///
/// The OK status carries no allocation; error states store a small
/// heap-allocated payload so Status stays pointer-sized.
///
/// The class is [[nodiscard]]: every function returning Status (or
/// Result<T> below) is implicitly must-use, so a silently dropped error is
/// a compile error under -Werror, not a review nit. Intentional discards
/// are written `(void)Foo();` with a comment, or routed through an ASQP_*
/// macro. asqp-lint (tools/asqp_lint) enforces the same invariant
/// token-level across build configs.
class [[nodiscard]] Status {
 public:
  Status() noexcept = default;

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      state_ = std::make_unique<State>(State{code, std::move(msg)});
    }
  }

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// Every degradation tier was exhausted: the request was understood and
  /// admitted, but no tier (approximation set, learned model, full DB)
  /// could produce an answer within its budget. Callers can retry later or
  /// relax the deadline; the message carries the last tier's failure.
  static Status Degraded(std::string msg) {
    return Status(StatusCode::kDegraded, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(state_->code)) + ": " + state_->msg;
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kAlreadyExists: return "AlreadyExists";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kNotImplemented: return "NotImplemented";
      case StatusCode::kParseError: return "ParseError";
      case StatusCode::kExecutionError: return "ExecutionError";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
      case StatusCode::kCancelled: return "Cancelled";
      case StatusCode::kResourceExhausted: return "ResourceExhausted";
      case StatusCode::kDegraded: return "Degraded";
      case StatusCode::kInternal: return "Internal";
    }
    return "Unknown";
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;
};

/// \brief Either a value of type T or an error Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  /// Construct the value in place from `args`, with no temporary T to move.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : repr_(std::in_place_index<0>, std::forward<Args>(args)...) {}
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(repr_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(repr_));
  }

  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(repr_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace util
}  // namespace asqp

#define ASQP_CONCAT_IMPL(x, y) x##y
#define ASQP_CONCAT(x, y) ASQP_CONCAT_IMPL(x, y)

/// Propagate a non-OK Status to the caller.
#define ASQP_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::asqp::util::Status _st = (expr);           \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Assign the value of a Result<T> expression to `lhs`, or propagate its
/// error Status to the caller.
#define ASQP_ASSIGN_OR_RETURN(lhs, expr)                      \
  ASQP_ASSIGN_OR_RETURN_IMPL(ASQP_CONCAT(_res_, __LINE__), lhs, expr)

#define ASQP_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()
