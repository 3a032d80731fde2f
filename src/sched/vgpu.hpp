// VgpuEngine — NVIDIA vGPU-style sharing (Table 1, row 5).
//
// The envelope is divided into N *homogeneous* slots (the defining vGPU
// restriction) and each client context is pinned to one slot for its
// lifetime, like a VM with a fixed vGPU profile. Within a slot, kernels
// serialize; slots do not share SMs or bandwidth with each other.
// Reconfiguring the slot count requires a VM restart — modeled by the same
// "no live contexts" rule the other policies use.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "gpu/engine.hpp"

namespace faaspart::sched {

struct VgpuOptions {
  int slots = 2;  ///< homogeneous division of the envelope
};

class VgpuEngine final : public gpu::SharingEngine {
 public:
  VgpuEngine(gpu::EngineEnv env, VgpuOptions opts);

  [[nodiscard]] const char* policy_name() const override { return "vgpu"; }
  void submit(gpu::KernelJob job) override;
  [[nodiscard]] std::size_t active() const override;
  [[nodiscard]] std::size_t queued() const override;
  std::size_t abort_all(std::exception_ptr error) override;

  [[nodiscard]] int slots() const { return opts_.slots; }

 private:
  /// The kernel executing in a slot, with its completion event so abort
  /// paths can cancel it.
  struct Inflight {
    gpu::KernelJob job;
    util::TimePoint start{};
    sim::Simulator::EventId event = 0;
  };
  struct Slot {
    std::optional<Inflight> running;
    std::deque<gpu::KernelJob> queue;
  };

  void start_next(int slot);
  void fail_running(Slot& s, std::exception_ptr error);
  int assign_slot(gpu::ContextId ctx);

  VgpuOptions opts_;
  int slot_sms_;
  double slot_bw_;
  std::vector<Slot> slots_;
  std::map<gpu::ContextId, int> pinned_;
  int next_slot_ = 0;
};

gpu::EngineFactory vgpu_factory(VgpuOptions opts);

}  // namespace faaspart::sched
