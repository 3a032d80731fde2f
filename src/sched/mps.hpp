// MpsEngine — CUDA Multi-Process Service semantics (Table 1, rows 2–3).
//
// Kernels from different clients execute *concurrently* as long as SMs are
// free. Each client's kernels are limited to its SM cap (the
// CUDA_MPS_ACTIVE_THREAD_PERCENTAGE the executor sets before the worker
// starts); a kernel occupies min(cap, width) SMs.
//
// Memory bandwidth is processor-shared: every running kernel has an
// intrinsic demand rate (from the roofline model); when the sum of demands
// exceeds the envelope's peak, rates scale down proportionally, and a small
// interference factor models cache/DRAM-bank contention between co-running
// clients even below peak. The engine replans in-flight kernels whenever
// the running set changes — kernels drain their remaining bytes at the new
// rates (this is what makes 4-way LLaMa-2 multiplexing land at ~2.5× rather
// than 4× throughput, Fig 4).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "gpu/engine.hpp"

namespace faaspart::sched {

struct MpsOptions {
  /// Per-co-runner slowdown of memory throughput: with n concurrently
  /// draining kernels each rate is divided by (1 + alpha * (n - 1)).
  double interference_alpha = 0.12;
};

class MpsEngine final : public gpu::SharingEngine {
 public:
  MpsEngine(gpu::EngineEnv env, MpsOptions opts)
      : SharingEngine(std::move(env)), opts_(opts) {}

  [[nodiscard]] const char* policy_name() const override { return "mps"; }
  void submit(gpu::KernelJob job) override;
  [[nodiscard]] std::size_t active() const override { return running_.size(); }
  [[nodiscard]] std::size_t queued() const override { return queue_.size(); }
  std::size_t abort_all(std::exception_ptr error) override;

  /// SMs currently occupied by running kernels.
  [[nodiscard]] int sms_in_use() const { return sms_in_use_; }

 private:
  struct Pending {
    gpu::KernelJob job;
    util::TimePoint since{};  ///< enqueue time — SM-cap throttle accounting
  };

  struct Running {
    std::uint64_t rid = 0;        ///< admission number: running_ is sorted by it
    gpu::KernelJob job;
    int sms = 0;                  ///< SMs occupied until completion
    util::TimePoint compute_end{};
    double demand = 0;            ///< intrinsic drain rate, B/s
    double remaining_bytes = 0;
    double rate = 0;              ///< current (contended) drain rate
    util::TimePoint last_advance{};
    sim::Simulator::EventId event = 0;
  };

  void try_admit();
  void admit(gpu::KernelJob job);
  void complete(std::uint64_t rid);
  /// Removes running_[i] without completing it (abort paths).
  void evict(std::size_t i, std::exception_ptr error);
  /// Advances byte drains to `now`, recomputes contended rates, and
  /// reschedules every running kernel's completion event.
  void replan();
  [[nodiscard]] int effective_sms(const gpu::KernelJob& job) const;

  MpsOptions opts_;
  std::deque<Pending> queue_;
  /// In admission order; usually a kernel or two, so a flat vector beats a
  /// node per kernel.
  std::vector<Running> running_;
  std::uint64_t next_rid_ = 1;
  int sms_in_use_ = 0;
};

gpu::EngineFactory mps_factory(MpsOptions opts = {});

}  // namespace faaspart::sched
