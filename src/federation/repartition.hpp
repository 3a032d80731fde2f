// Repartitioner — the online profile→predict→reconfigure loop (DESIGN.md
// §13): closes ROADMAP item #1 by driving the static MIG layouts from live
// traffic.
//
//   probe   sched::MpsProbe scores each function on every MIG profile once
//           (MISO-style MPS co-run, no GPU resets) — the scores arrive here
//           through RepartitionTenant.
//   plan    every `interval`, offered rates are differentiated from the
//           ClusterService's per-function admitted counts and fed to
//           core::plan_fleet, which packs profiles across the fleet and
//           decides — via the reset-cost amortization gate — whether the
//           predicted gain is worth the resets.
//   apply   accepted plans roll out endpoint by endpoint: routing is gated
//           off (begin_repartition), evicted tenants drain, the device is
//           re-laid-out through core::Reconfigurer::change_device_layout
//           (inheriting its MIG→MPS→timeshare fault ladder), serving flags
//           are updated, and routing is re-opened.
//
// Contract: every endpoint added has one GPU (device 0) of the same arch and
// hosts one single-worker GPU executor per tenant label; endpoints must
// outlive the Repartitioner. Everything is deterministic — same trace, same
// plans, same apply schedule.
#pragma once

#include <string>
#include <vector>

#include "core/partition_planner.hpp"
#include "core/reconfigure.hpp"
#include "federation/cluster.hpp"

namespace faaspart::federation {

/// One function under online repartitioning.
struct RepartitionTenant {
  std::string function_id;     ///< registered ClusterService function
  std::string executor_label;  ///< GPU executor label on every endpoint
  util::Bytes memory = 0;      ///< resident footprint (planner feasibility)
  std::vector<core::ProfileScore> scores;  ///< from sched::MpsProbe
  /// Profile in force on every endpoint at startup (the static layout the
  /// optimizer starts from); empty = not initially placed.
  std::string initial_profile;
};

struct RepartitionerOptions {
  util::Duration interval = util::seconds(30);
  core::PlannerOptions planner{};
  /// When false, run() returns immediately: the fleet keeps its static
  /// layout and serving behavior is byte-identical to no Repartitioner.
  bool enabled = true;
};

/// One optimizer cycle, recorded whether or not the plan was applied.
struct RepartitionCycle {
  util::TimePoint at{};
  std::vector<double> rates_hz;  ///< per tenant, tenants() order
  core::PlanResult plan;
  int endpoints_changed = 0;
  int degraded = 0;  ///< endpoints that fell back to MPS/timeshare
  bool applied = false;
};

class Repartitioner {
 public:
  Repartitioner(sim::Simulator& sim, ClusterService& cluster,
                std::vector<RepartitionTenant> tenants,
                RepartitionerOptions opts = {});

  /// Registers a fleet endpoint. Call order defines the planner's device
  /// indexing — add in name order for reproducible plans.
  void add_endpoint(Endpoint& ep);

  /// The control loop: plan every `interval` until `deadline`. Spawn once.
  sim::Co<void> run(util::TimePoint deadline);

  [[nodiscard]] const std::vector<RepartitionCycle>& cycles() const {
    return cycles_;
  }
  [[nodiscard]] const std::vector<RepartitionTenant>& tenants() const {
    return tenants_;
  }
  [[nodiscard]] std::size_t plans() const { return cycles_.size(); }
  [[nodiscard]] std::size_t applies() const;

 private:
  void bootstrap_current();
  sim::Co<void> run_cycle(util::TimePoint plan_start);
  sim::Co<void> apply_endpoint(std::size_t g, const core::GpuLayout& layout,
                               RepartitionCycle& cycle, std::uint64_t trace,
                               std::uint64_t root);
  void count_cycle(const char* outcome);

  sim::Simulator& sim_;
  ClusterService& cluster_;
  std::vector<RepartitionTenant> tenants_;
  RepartitionerOptions opts_;
  std::vector<Endpoint*> endpoints_;
  core::FleetPlan current_;
  std::vector<std::size_t> last_admitted_;  ///< per tenant
  util::TimePoint last_at_{};
  std::vector<RepartitionCycle> cycles_;
};

}  // namespace faaspart::federation
