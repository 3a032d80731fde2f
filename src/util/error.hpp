// Error hierarchy and checking macros for the faaspart library.
//
// All library-originated failures derive from util::Error so callers can
// catch the whole family with one handler. Specific subclasses mirror the
// failure domains of the real stack we model (CUDA OOM, nvidia-smi state
// errors, Parsl config validation, ...).
#pragma once

#include <stdexcept>
#include <string>

namespace faaspart::util {

/// Root of the faaspart exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller supplied an invalid configuration (bad percentage list, unknown
/// executor label, malformed accelerator reference, ...). Mirrors the
/// validation errors Parsl raises when a Config is loaded.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

/// Device memory exhausted — the analogue of cudaErrorMemoryAllocation.
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what)
      : Error("out of device memory: " + what) {}
};

/// An operation was attempted in a state that forbids it (e.g. reconfiguring
/// MIG while clients hold contexts, changing an MPS percentage on a live
/// process). These are the hard operational constraints from Table 1 / §6.
class StateError : public Error {
 public:
  explicit StateError(const std::string& what) : Error("invalid state: " + what) {}
};

/// A referenced entity does not exist (GPU index, MIG UUID, app name, ...).
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error("not found: " + what) {}
};

/// A task failed after exhausting its retries in the DataFlowKernel.
class TaskFailedError : public Error {
 public:
  explicit TaskFailedError(const std::string& what) : Error("task failed: " + what) {}
};

/// The device hit a fatal runtime error — the analogue of an Xid/ECC error or
/// cudaErrorDevicesUnavailable. In-flight work on the device is lost; client
/// processes must re-create their contexts.
class DeviceError : public Error {
 public:
  explicit DeviceError(const std::string& what) : Error("device error: " + what) {}
};

namespace detail {
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& msg);
}  // namespace detail

}  // namespace faaspart::util

/// Internal-invariant check: always on (simulation correctness depends on
/// these; the cost is negligible next to event-queue work).
#define FP_CHECK(expr)                                                       \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::faaspart::util::detail::check_failed(__FILE__, __LINE__, #expr, ""); \
    }                                                                        \
  } while (0)

#define FP_CHECK_MSG(expr, msg)                                               \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::faaspart::util::detail::check_failed(__FILE__, __LINE__, #expr, msg); \
    }                                                                         \
  } while (0)
