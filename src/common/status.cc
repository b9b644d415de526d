#include "common/status.h"

namespace blusim {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kOutOfDeviceMemory: return "OutOfDeviceMemory";
    case StatusCode::kOutOfHostMemory: return "OutOfHostMemory";
    case StatusCode::kDeviceUnavailable: return "DeviceUnavailable";
    case StatusCode::kCapacityExceeded: return "CapacityExceeded";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kNotSupported: return "NotSupported";
    case StatusCode::kEstimateTooLow: return "EstimateTooLow";
    case StatusCode::kOverloaded: return "Overloaded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace blusim
