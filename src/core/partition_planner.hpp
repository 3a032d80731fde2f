// PartitionPlanner — cluster-wide MIG layout packing (DESIGN.md §13).
//
// Given per-function demand (offered rate) and per-profile performance
// scores (from sched::MpsProbe co-run probes, MISO-style), the planner packs
// MIG profiles across a fleet of identical GPUs so that satisfied demand —
// Σ_f min(rate_f, Σ capacity of f's instances) — is maximized, ParvaGPU's
// two-level idea: choose a profile ladder per function, then pack instances
// across devices minimizing fragmentation.
//
// The planner is pure (no simulator, no devices): deterministic data in,
// deterministic plan out. That is what makes it property-testable — the
// invariants in tests/prop/prop_planner.cpp (no slice overlap, capacity
// conservation, idempotence, bounded optimality vs a brute-force packer)
// check the function, not a running system. The online Repartitioner
// (federation/repartition.hpp) is a thin applier around it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "gpu/mig.hpp"
#include "sched/profile_score.hpp"

namespace faaspart::core {

/// Predicted per-instance performance of one function on one MIG profile —
/// defined in sched/profile_score.hpp next to the MpsProbe that produces
/// it (keeps sched below core in the layering DAG), re-exported here for
/// the planner's callers.
using sched::ProfileScore;

/// One function's planning input.
struct FunctionDemand {
  std::string name;
  double rate_hz = 0;        ///< offered load to satisfy
  util::Bytes memory = 0;    ///< resident bytes (weights + activations)
  std::vector<ProfileScore> scores;
};

/// One MIG instance in a plan: a function bound to a profile at a concrete
/// slice offset. Offsets are what make overlap checkable.
struct Placement {
  std::string function;
  std::string profile;
  int compute_start = 0;
  int compute_slices = 0;
  int mem_start = 0;
  int mem_slices = 0;

  friend bool operator==(const Placement&, const Placement&) = default;
};

struct GpuLayout {
  std::vector<Placement> placements;

  friend bool operator==(const GpuLayout&, const GpuLayout&) = default;
};

struct FleetPlan {
  std::vector<GpuLayout> gpus;

  friend bool operator==(const FleetPlan&, const FleetPlan&) = default;
};

struct PlannerOptions {
  /// Virtual seconds one GPU is unavailable while its layout is rebuilt
  /// (drain + MIG reset + worker restarts).
  double reset_cost_s = 2.0;
  /// Horizon over which a predicted throughput gain must pay back the
  /// requests lost to resets before the plan is worth applying.
  double horizon_s = 60.0;
  /// Minimum predicted gain (req/s) to bother reconfiguring at all.
  double min_gain_hz = 0.0;
};

struct PlanResult {
  FleetPlan plan;
  double objective = 0;          ///< satisfied demand of `plan`, req/s
  double current_objective = 0;  ///< satisfied demand of the current plan
  double predicted_gain_hz = 0;  ///< objective - current_objective
  int gpus_changed = 0;          ///< devices whose layout differs from current
  bool apply = false;            ///< true when the gain amortizes the resets
  std::string reason;            ///< why apply is true/false
};

/// Satisfied demand of `plan` under `demands`: Σ_f min(rate_f, Σ over f's
/// placements of the placed profile's predicted throughput). Placements of
/// functions absent from `demands` contribute nothing.
[[nodiscard]] double planner_objective(const std::vector<FunctionDemand>& demands,
                                       const FleetPlan& plan);

/// Structural validity of a plan on `arch`: every profile exists, slice
/// ranges match the profile's shape, no two placements on a device overlap
/// in compute or memory slices, and per-device totals respect the slice
/// budgets. Returns "" when valid, else a description of the first violation.
[[nodiscard]] std::string validate_fleet_plan(const gpu::GpuArchSpec& arch,
                                              const FleetPlan& plan);

/// Builds one device's layout from (function, profile) pairs, assigning
/// non-overlapping slice offsets (largest instance first, then by function
/// name — the same canonical order plan_fleet uses). Throws util::ConfigError
/// when the instances do not fit the device.
[[nodiscard]] GpuLayout layout_from_profiles(
    const gpu::GpuArchSpec& arch,
    const std::vector<std::pair<std::string, std::string>>& assignments);

/// The planner: packs `demands` across `gpu_count` identical `arch` devices.
/// `current` (may be empty) is the layout in force; it breaks score ties in
/// favor of not moving and feeds the reset-cost amortization that decides
/// `apply`. Deterministic: same inputs, same plan — replanning an applied
/// plan yields gpus_changed == 0 (idempotence, property-tested).
[[nodiscard]] PlanResult plan_fleet(const gpu::GpuArchSpec& arch, int gpu_count,
                                    const std::vector<FunctionDemand>& demands,
                                    const FleetPlan& current,
                                    const PlannerOptions& opts = {});

}  // namespace faaspart::core
