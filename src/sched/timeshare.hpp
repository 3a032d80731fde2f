// TimeShareEngine — the NVIDIA default when multiple processes use a GPU
// without MPS or MIG (Table 1, row 1).
//
// Kernels from all clients execute one at a time in submission order; each
// gets the whole envelope while it runs, and the hardware pays a context
// switch when consecutive kernels come from different clients. A kernel
// narrower than the device leaves the remaining SMs idle — this is exactly
// the "low hardware utilization when an application cannot saturate the
// GPU" drawback the paper calls out.
#pragma once

#include <deque>
#include <optional>

#include "gpu/engine.hpp"

namespace faaspart::sched {

class TimeShareEngine final : public gpu::SharingEngine {
 public:
  explicit TimeShareEngine(gpu::EngineEnv env) : SharingEngine(std::move(env)) {}

  [[nodiscard]] const char* policy_name() const override { return "timeshare"; }
  void submit(gpu::KernelJob job) override;
  [[nodiscard]] std::size_t active() const override { return inflight_ ? 1 : 0; }
  [[nodiscard]] std::size_t queued() const override { return queue_.size(); }
  std::size_t abort_all(std::exception_ptr error) override;

 private:
  /// The one kernel currently executing, with its completion event so abort
  /// paths can cancel it.
  struct Inflight {
    gpu::KernelJob job;
    util::TimePoint start{};
    sim::Simulator::EventId event = 0;
  };

  void start_next();
  void fail_inflight(std::exception_ptr error);

  std::deque<gpu::KernelJob> queue_;
  std::optional<Inflight> inflight_;
  gpu::ContextId last_ctx_ = 0;
  bool have_last_ = false;
};

/// Factory for Device / nvml: the out-of-the-box sharing policy.
gpu::EngineFactory timeshare_factory();

}  // namespace faaspart::sched
