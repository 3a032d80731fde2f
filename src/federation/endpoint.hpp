// Endpoint — the Globus Compute deployment unit (§2.2): a user-deployed
// compute site (workstation, cluster login node, supercomputer) that runs a
// Parsl DataFlowKernel locally and receives work from the cloud service.
//
// An Endpoint bundles the whole node-local stack this library models:
// devices (nvml::DeviceManager), the CPU pool (LocalProvider), the GPU
// partitioner and a DataFlowKernel, plus the WAN round-trip time to the
// cloud service that routed the task.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/autoscale.hpp"
#include "core/partitioner.hpp"
#include "core/weightcache.hpp"
#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "sim/sync.hpp"
#include "trace/recorder.hpp"

namespace faaspart::federation {

class Endpoint {
 public:
  struct Options {
    std::string name;
    int cpu_cores = 24;
    /// WAN round trip between this endpoint and the cloud service.
    util::Duration rtt = util::milliseconds(40);
    /// GPUs installed on the node.
    std::vector<gpu::GpuArchSpec> gpus;
    int dfk_retries = 0;
  };

  Endpoint(sim::Simulator& sim, Options opts, trace::Recorder* rec = nullptr);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] const std::string& name() const { return opts_.name; }
  [[nodiscard]] util::Duration rtt() const { return opts_.rtt; }

  // -- WAN fault paths ------------------------------------------------------

  /// False while a WAN partition separates this endpoint from the cloud
  /// service; dispatch/result legs wait on wan_gate() until it heals.
  [[nodiscard]] bool reachable() const { return wan_gate_.is_open(); }
  [[nodiscard]] sim::Gate& wan_gate() { return wan_gate_; }

  /// Severs the endpoint's WAN link for `length` (extends an ongoing
  /// partition). Traffic is delayed, not dropped — Globus Compute queues and
  /// retries transport-level sends.
  void partition_for(util::Duration length);

  [[nodiscard]] std::size_t wan_partitions() const { return wan_partitions_; }

  // -- Online repartitioning (federation/repartition.hpp) -------------------

  /// Marks the endpoint as mid-relayout: routing must not dispatch here
  /// until end_repartition(). Unlike a WAN partition the endpoint is healthy
  /// — its in-flight work drains normally; only *new* dispatches stop.
  void begin_repartition();
  void end_repartition();
  [[nodiscard]] bool repartitioning() const { return repartitioning_; }

  /// Whether this endpoint currently hosts an instance of `function_id`.
  /// Defaults to true — only layouts applied by the Repartitioner narrow an
  /// endpoint to a subset of the catalogue.
  [[nodiscard]] bool serves(const std::string& function_id) const;
  void set_serving(const std::string& function_id, bool serving);

  [[nodiscard]] nvml::DeviceManager& devices() { return devices_; }
  [[nodiscard]] faas::LocalProvider& provider() { return provider_; }
  [[nodiscard]] core::GpuPartitioner& partitioner() { return partitioner_; }
  [[nodiscard]] faas::DataFlowKernel& dfk() { return dfk_; }

  /// Convenience: a CPU executor with `workers` slots under `label`.
  void add_cpu_executor(const std::string& label, int workers);

  /// Convenience: a GPU executor from a paper-style HtexConfig (accelerator
  /// strings + optional percentages), built through the partitioner. With no
  /// explicit `loader`, executors load through the endpoint's weight cache
  /// when enable_weight_cache() was called first.
  void add_gpu_executor(const faas::HtexConfig& cfg,
                        faas::ModelLoader* loader = nullptr);

  // -- Serving-layer hooks (federation/cluster.hpp) -------------------------

  /// Installs an endpoint-owned WeightCache; subsequent GPU executors load
  /// through it. `capacity` caps resident bytes per pool scope (0 = device
  /// memory only). Must precede add_gpu_executor.
  core::WeightCache& enable_weight_cache(
      util::Duration attach_cost = util::milliseconds(120),
      util::Bytes capacity = 0);

  /// The endpoint's weight cache, or null when none was enabled.
  [[nodiscard]] core::WeightCache* weight_cache() { return cache_.get(); }

  /// True when the endpoint's weight cache holds `model_key` — routing to
  /// this endpoint pays the attach cost instead of the full upload.
  [[nodiscard]] bool holds_model(const std::string& model_key) const;

  /// Predicted cold-start charge were `app` dispatched here now: the attach
  /// cost when the weights are cached, otherwise function init + the weight
  /// upload at the endpoint's model-load bandwidth.
  [[nodiscard]] util::Duration cold_start_estimate(const faas::AppDef& app) const;

  /// Installs an endpoint-owned Reconfigurer + Autoscaler over GPU executor
  /// tenants `(label, initial_percentage)` and spawns its control loop until
  /// `deadline`. Labels must name GPU executors added earlier; tenants are
  /// assumed to share the endpoint's first device (core/autoscale contract).
  core::Autoscaler& enable_autoscaler(
      const std::vector<std::pair<std::string, int>>& tenants,
      util::TimePoint deadline, core::AutoscalerOptions opts = {});

  [[nodiscard]] core::Autoscaler* autoscaler() { return autoscaler_.get(); }

  /// The GPU executor added under `label`; throws util::NotFoundError.
  [[nodiscard]] faas::HighThroughputExecutor& gpu_executor(
      const std::string& label);

  /// Endpoint-owned Reconfigurer, created on first use (shared with the
  /// autoscaler when both are enabled).
  [[nodiscard]] core::Reconfigurer& reconfigurer();

  /// Total worker slots across the endpoint's executors (routing weight).
  [[nodiscard]] std::size_t worker_slots() const { return worker_slots_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  Options opts_;
  trace::Recorder* rec_;
  nvml::DeviceManager devices_;
  faas::LocalProvider provider_;
  core::GpuPartitioner partitioner_;
  faas::DataFlowKernel dfk_;
  sim::Gate wan_gate_;
  util::TimePoint partition_until_{};
  std::size_t wan_partitions_ = 0;
  bool repartitioning_ = false;
  std::map<std::string, bool> serving_;  ///< absent = serves (default true)
  std::vector<std::uint64_t> fault_subs_;
  std::size_t worker_slots_ = 0;
  std::unique_ptr<core::WeightCache> cache_;
  std::map<std::string, faas::HighThroughputExecutor*> gpu_executors_;
  std::unique_ptr<core::Reconfigurer> reconfigurer_;
  std::unique_ptr<core::Autoscaler> autoscaler_;
};

}  // namespace faaspart::federation
