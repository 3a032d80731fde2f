// Management facade over the simulated GPUs — the analogue of the
// NVML / nvidia-smi surface the paper's executor drives.
//
// DeviceManager owns the node's devices and answers nvidia-smi-style
// queries; MIG reconfiguration goes through timed operations that charge
// the §6 overheads (GPU reset: 1–2 s) on the virtual clock.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "sim/co.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace faaspart::nvml {

/// One row of `nvidia-smi`-style status output.
struct DeviceStatus {
  int index = 0;
  std::string name;
  bool mig_enabled = false;
  std::size_t contexts = 0;
  util::Bytes memory_used = 0;
  util::Bytes memory_total = 0;
  std::string sharing_policy;
  std::vector<std::string> mig_instances;  // UUIDs
};

class DeviceManager {
 public:
  explicit DeviceManager(sim::Simulator& sim, trace::Recorder* rec = nullptr);

  /// Registers a device; the sharing policy starts as the NVIDIA default
  /// (time-slicing). Returns the device index.
  int add_device(gpu::GpuArchSpec arch);

  [[nodiscard]] gpu::Device& device(int index);
  [[nodiscard]] const gpu::Device& device(int index) const;
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

  [[nodiscard]] DeviceStatus status(int index) const;

  /// Finds the device hosting a MIG instance UUID; throws NotFoundError.
  [[nodiscard]] int device_of_instance(const std::string& uuid) const;

  /// Timed MIG reconfiguration: enables MIG mode (if needed), destroys any
  /// existing instances, and creates one instance per profile name, charging
  /// the GPU-reset cost on the virtual clock (§6). Requires zero contexts.
  /// Returns the created UUIDs.
  sim::Co<std::vector<std::string>> configure_mig(int index,
                                                  std::vector<std::string> profiles);

  /// Timed MIG teardown back to non-MIG mode (also a GPU reset).
  sim::Co<void> clear_mig(int index);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] trace::Recorder* recorder() { return rec_; }

 private:
  sim::Simulator& sim_;
  trace::Recorder* rec_;
  std::vector<std::unique_ptr<gpu::Device>> devices_;
};

}  // namespace faaspart::nvml
