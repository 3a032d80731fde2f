// Reconfigurer — timed GPU-partition reallocation (§6 "Execution overhead"
// and §7 "Re-configuring GPU resources Faster").
//
// MPS path: a client's GPU% cannot change while its process lives, so every
// affected worker restarts — paying process spawn + context init + model
// reload (10–20 s for LLaMa-sized models with the stock DirectLoader, ~0.1 s
// with the WeightCache).
//
// MIG path: every context must leave the device, the GPU resets (1–2 s,
// interfering with all tenants), instances are recreated, and all workers
// restart against the new instances — strictly more disruptive than MPS,
// exactly as Table 1 ranks it.
#pragma once

#include <string>
#include <vector>

#include "core/weightcache.hpp"
#include "faas/executor.hpp"
#include "nvml/manager.hpp"

namespace faaspart::core {

struct ReconfigureReport {
  util::Duration total_time{};  ///< wall-clock (virtual) for the whole operation
  int workers_restarted = 0;
  bool gpu_reset = false;
  /// Graceful degradation: when the requested MIG layout cannot be built
  /// (injected instance-create failure), the reconfigurer falls back to MPS
  /// percentage caps — or plain timesharing if the MPS daemon is down too —
  /// instead of failing the reconfiguration.
  bool degraded = false;
  std::string requested = "mig";
  std::string achieved = "mig";
  std::string degrade_reason;
};

class Reconfigurer {
 public:
  explicit Reconfigurer(nvml::DeviceManager& manager) : manager_(manager) {}

  /// Restarts every worker of `ex` with a new MPS percentage
  /// (new_percentages[i] → worker i). Workers restart concurrently; the
  /// report's total_time is the start-to-finish wall time.
  sim::Co<ReconfigureReport> change_mps_percentages(
      faas::HighThroughputExecutor& ex, std::vector<int> new_percentages);

  /// One tenant's share of a multi-tenant device relayout.
  struct TenantLayout {
    faas::HighThroughputExecutor* executor = nullptr;
    /// One profile per worker of `executor`. Empty = park-only: the tenant
    /// has no instance on this device in the new plan, so its workers stay
    /// parked (the cluster layer must stop routing to it first).
    std::vector<std::string> profiles;
  };

  /// Re-layouts device `device_index`: parks every worker of every tenant,
  /// resets the device to the concatenation of the tenants' profiles, and
  /// restarts each non-empty tenant's workers against its own instances
  /// (worker i → its tenant's profiles[i]). An all-empty layout clears MIG
  /// and leaves everything parked. `cache`, when given, is flushed off the
  /// device first (its daemon contexts would otherwise block the reset) —
  /// pass the same cache the executors load through. Degrades MIG→MPS→
  /// timeshare on an instance-create failure (see ReconfigureReport); in
  /// the degraded modes park-only tenants also stay parked. This is also the
  /// apply path of the online Repartitioner (federation/repartition.hpp).
  sim::Co<ReconfigureReport> change_device_layout(
      std::vector<TenantLayout> tenants, int device_index,
      WeightCache* cache = nullptr);

 private:
  nvml::DeviceManager& manager_;
};

}  // namespace faaspart::core
