#ifndef BLUSIM_COMMON_STATUS_H_
#define BLUSIM_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace blusim {

// Error categories used across the engine. The GPU-specific codes mirror the
// recoverable conditions described in the paper: a device-memory reservation
// failure is not fatal -- callers either wait or fall back to the CPU path
// (paper section 2.1.1).
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfDeviceMemory,    // device allocation / reservation failed
  kOutOfHostMemory,      // pinned pool exhausted
  kDeviceUnavailable,    // no device has enough free resources
  kCapacityExceeded,     // input exceeds a structural limit (e.g. T3)
  kNotFound,
  kAlreadyExists,
  kInternal,
  kNotSupported,
  kEstimateTooLow,       // KMV group estimate below true group count
  kOverloaded,           // admission queue full; the query was shed
};

// Lightweight error-propagation type (no C++ exceptions cross API
// boundaries). Modeled on absl::Status / arrow::Status.
//
// [[nodiscard]]: silently dropping a Status hides exactly the recoverable
// device failures the engine is built around, so every producer must be
// checked, propagated (BLUSIM_RETURN_NOT_OK) or explicitly discarded with
// IgnoreError("reason"). CI builds with BLUSIM_WERROR=ON, making a
// dropped Status a build error (docs/static_analysis.md).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfDeviceMemory(std::string msg) {
    return Status(StatusCode::kOutOfDeviceMemory, std::move(msg));
  }
  static Status OutOfHostMemory(std::string msg) {
    return Status(StatusCode::kOutOfHostMemory, std::move(msg));
  }
  static Status DeviceUnavailable(std::string msg) {
    return Status(StatusCode::kDeviceUnavailable, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status EstimateTooLow(std::string msg) {
    return Status(StatusCode::kEstimateTooLow, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // True when the caller may retry on the CPU (host) path instead. The
  // CPU chain needs neither device memory nor pinned staging buffers, so
  // resource exhaustion on either side is recoverable by falling back, as
  // are an unsupported plan and a table that outgrew every retry.
  bool IsRecoverableOnHost() const {
    return code_ == StatusCode::kOutOfDeviceMemory ||
           code_ == StatusCode::kOutOfHostMemory ||
           code_ == StatusCode::kDeviceUnavailable ||
           code_ == StatusCode::kCapacityExceeded ||
           code_ == StatusCode::kNotSupported ||
           code_ == StatusCode::kEstimateTooLow;
  }

  std::string ToString() const;

  // Deliberate drop. The argument is the documentation: every call site
  // states *why* ignoring this error is correct ("shutdown path, socket
  // already gone"). Grep-able, and the only sanctioned way to silence
  // the [[nodiscard]] warning.
  void IgnoreError(const char* reason) const { (void)reason; }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T>: a value or an error Status. [[nodiscard]] for the same
// reason as Status: a dropped Result is a dropped error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : repr_(std::move(value)) {}        // NOLINT
  Result(Status status) : repr_(std::move(status)) {} // NOLINT

  bool ok() const { return std::holds_alternative<T>(repr_); }
  const Status& status() const {
    static const Status kOkStatus;
    if (ok()) return kOkStatus;
    return std::get<Status>(repr_);
  }

  T& value() & { return std::get<T>(repr_); }
  const T& value() const& { return std::get<T>(repr_); }
  T&& value() && { return std::get<T>(std::move(repr_)); }

  // Deliberate drop of value *and* error; see Status::IgnoreError.
  void IgnoreError(const char* reason) const { (void)reason; }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

const char* StatusCodeName(StatusCode code);

}  // namespace blusim

// Propagate a non-OK Status to the caller.
#define BLUSIM_RETURN_NOT_OK(expr)                  \
  do {                                              \
    ::blusim::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                      \
  } while (0)

// Assign a Result's value or propagate its error.
#define BLUSIM_ASSIGN_OR_RETURN(lhs, expr)          \
  BLUSIM_ASSIGN_OR_RETURN_IMPL(                     \
      BLUSIM_CONCAT_(_result_, __LINE__), lhs, expr)

#define BLUSIM_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value();

#define BLUSIM_CONCAT_(a, b) BLUSIM_CONCAT_IMPL_(a, b)
#define BLUSIM_CONCAT_IMPL_(a, b) a##b

#endif  // BLUSIM_COMMON_STATUS_H_
