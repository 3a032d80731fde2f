// GpuPartitioner — THE paper's executor enhancement (§4): resolves an
// HtexConfig's accelerator strings and GPU percentages into per-worker
// bindings, enforcing the operational preconditions of each technique:
//
//   * gpu_percentages present (Listing 2) → CUDA MPS: the list must match
//     available_accelerators 1:1, values in (0, 100], and the
//     nvidia-cuda-mps-control daemon must be running on every referenced
//     device before any worker starts — the partitioner starts it.
//   * MIG UUIDs (Listing 3) → workers bind to instances; the instances must
//     already exist (nvidia-smi mig created them).
//   * repeated GPU ids without percentages → default time-sharing.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/accelerator.hpp"
#include "faas/config.hpp"
#include "faas/executor.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "nvml/mps_control.hpp"

namespace faaspart::core {

class GpuPartitioner {
 public:
  explicit GpuPartitioner(nvml::DeviceManager& manager) : manager_(manager) {}

  /// Validates the config and returns one binding per accelerator entry.
  /// Starts MPS daemons as needed (each start costs
  /// MpsControl::startup_cost() of virtual time, charged immediately).
  std::vector<faas::WorkerBinding> resolve(const faas::HtexConfig& cfg);

  /// The daemon handle for a device (created lazily, maybe not running).
  nvml::MpsControl& mps(int device_index);

  /// Convenience: resolve + construct a started HighThroughputExecutor.
  std::unique_ptr<faas::HighThroughputExecutor> build_executor(
      sim::Simulator& sim, faas::LocalProvider& provider,
      const faas::HtexConfig& cfg, faas::ModelLoader* loader = nullptr,
      trace::Recorder* rec = nullptr, std::uint64_t seed = 1);

 private:
  nvml::DeviceManager& manager_;
  std::map<int, std::unique_ptr<nvml::MpsControl>> daemons_;
};

}  // namespace faaspart::core
