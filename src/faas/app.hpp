// Apps and task records — the faaspart analogue of Parsl's decorated Python
// functions ("apps") and task table.
//
// An app is a named coroutine body plus a cold-start profile. The §6
// decomposition of GPU cold starts maps directly onto AppDef fields:
//   (1) function initialization (download, decompress, import)
//         → AppDef::function_init, paid once per (worker, app);
//   (2) GPU context initialization
//         → GpuArchSpec::context_create, paid when the worker starts;
//   (3) application loading (model into video memory)
//         → AppDef::model_bytes via the ModelLoader, paid per worker unless
//           a weight cache (core module) already holds the model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>

#include "gpu/device.hpp"
#include "obs/context.hpp"
#include "sim/co.hpp"
#include "sim/future.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace faaspart::faas {

/// Value an app returns (Parsl apps return arbitrary Python objects; the
/// workloads in this reproduction return nothing, a number, or a string).
using AppValue = std::variant<std::monostate, double, std::string>;

/// Execution-time environment handed to an app body.
class TaskContext {
 public:
  TaskContext(sim::Simulator& sim, util::Rng& rng, std::string worker_name,
              int cpu_cores, gpu::Device* device, gpu::ContextId gpu_ctx,
              obs::TraceContext trace = {})
      : sim_(sim),
        rng_(rng),
        worker_name_(std::move(worker_name)),
        cpu_cores_(cpu_cores),
        device_(device),
        gpu_ctx_(gpu_ctx),
        trace_(trace) {}

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }
  [[nodiscard]] const std::string& worker_name() const { return worker_name_; }
  [[nodiscard]] int cpu_cores() const { return cpu_cores_; }

  /// The worker's device; throws util::StateError on a CPU-only worker.
  [[nodiscard]] gpu::Device& device();
  [[nodiscard]] gpu::ContextId gpu_context() const { return gpu_ctx_; }
  /// SMs this task may occupy (the partition the executor configured).
  [[nodiscard]] int sm_cap() const;

  /// Causal trace position of the attempt body; kernels launched through
  /// this context become its children.
  [[nodiscard]] obs::TraceContext trace() const { return trace_; }

  /// Launches a kernel on the worker's GPU context.
  sim::Future<> launch(const gpu::KernelDesc& kernel);

  /// Occupies the worker's CPU for `d` of virtual time (quantum-chemistry
  /// simulation steps, tokenization, ...).
  [[nodiscard]] sim::DelayAwaiter compute(util::Duration d) { return sim_.delay(d); }

 private:
  sim::Simulator& sim_;
  util::Rng& rng_;
  std::string worker_name_;
  int cpu_cores_;
  gpu::Device* device_;
  gpu::ContextId gpu_ctx_;
  obs::TraceContext trace_;
};

using AppBody = std::function<sim::Co<AppValue>(TaskContext&)>;

/// A registered function.
struct AppDef {
  std::string name;
  AppBody body;

  /// Cold-start cost (1): environment download/decompress/import, charged
  /// the first time this app runs on a given worker.
  util::Duration function_init{};

  /// Cold-start cost (3): model weights uploaded to device memory the first
  /// time the app runs on a worker (0 = no model). The effective rate is the
  /// device's model_load_bw (§6: ~10 s for LLaMa-2 13B).
  util::Bytes model_bytes = 0;

  /// Cache key for the weight cache; apps sharing a key share weights.
  /// Defaults to `name` when empty.
  std::string model_key;

  [[nodiscard]] const std::string& effective_model_key() const {
    return model_key.empty() ? name : model_key;
  }
};

/// Observable lifecycle of one submitted task.
struct TaskRecord {
  enum class State : std::uint8_t { kPending, kRunning, kDone, kFailed };

  std::uint64_t id = 0;
  std::string app;
  std::string worker;
  State state = State::kPending;
  util::TimePoint submitted{};
  util::TimePoint started{};   ///< body start (after cold-start charges)
  util::TimePoint finished{};
  util::Duration cold_start{}; ///< total cold-start overhead before the body
  int tries = 0;
  util::Duration backoff_total{};  ///< DFK retry backoff waited between attempts
  std::string error;

  /// Causal trace position (obs layer). On a logical (DFK) record this is
  /// the root "task" span; on an executor attempt record it is the attempt
  /// span the executor parents its queue/cold/body spans under. Inactive
  /// (all zero) when telemetry is off.
  obs::TraceContext trace{};

  [[nodiscard]] util::Duration queue_time() const { return started - submitted - cold_start; }
  [[nodiscard]] util::Duration run_time() const { return finished - started; }
  [[nodiscard]] util::Duration completion_time() const { return finished - submitted; }
};

/// What submit() hands back: the value future plus the live task record.
struct AppHandle {
  sim::Future<AppValue> future;
  std::shared_ptr<TaskRecord> record;
};

/// Runs once, synchronously, when a submitted task settles, with its final
/// record. A driver that keeps a few bytes per request from here instead of
/// holding the AppHandle lets the future state and the record go at settle,
/// and it adds no simulator event, where a process awaiting the future
/// would cost one to resume.
using SettleHook = std::function<void(const TaskRecord&)>;

}  // namespace faaspart::faas
