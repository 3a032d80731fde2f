// Request generators for the serving experiments.
//
// closed-loop: N concurrent clients each issue their share of a fixed batch
// back-to-back (the Fig 4/5 setup: "work was divided equally across number
// of processes"). open-loop: Poisson arrivals for the Table 1 mixed
// workload.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "faas/dfk.hpp"
#include "trace/stats.hpp"
#include "util/rng.hpp"

namespace faaspart::workloads {

struct BatchRunResult {
  util::Duration makespan{};        ///< first task start → last task finish
  trace::Summary latency;           ///< per-task body run times, seconds
  trace::Summary completion;        ///< per-task submit→finish, seconds
  std::size_t tasks = 0;
  std::size_t failures = 0;
  /// Tasks per second of makespan.
  [[nodiscard]] double throughput() const {
    return makespan.ns > 0 ? static_cast<double>(tasks) / makespan.seconds() : 0.0;
  }
};

/// Spawns `clients` closed loops on the simulator, splitting `total_tasks`
/// of `app` as evenly as possible, and fills `out` when all loops finish.
/// Caller runs the simulator. Latency/makespan are measured on task records
/// (cold starts excluded from `latency`, included in `completion`); each
/// client folds a task's record as it awaits it, so a failed task counts in
/// `failures` only.
void spawn_closed_loop_batch(sim::Simulator& sim, faas::DataFlowKernel& dfk,
                             const std::string& executor_label, faas::AppDef app,
                             int clients, int total_tasks,
                             std::shared_ptr<BatchRunResult> out);

/// The closed-loop work split: `parts` shares of `total`, as even as
/// possible, earlier shares taking the remainder (sums to exactly `total`,
/// shares differ by at most one).
[[nodiscard]] std::vector<int> split_evenly(int total, int parts);

/// What the open loop keeps of one settled task, in place of its AppHandle
/// (whose future state and record would stay alive with it): 24 bytes.
struct TaskOutcome {
  util::Duration run{};         ///< body start → finish
  util::Duration completion{};  ///< submit → finish
  faas::TaskRecord::State state = faas::TaskRecord::State::kPending;
};
static_assert(sizeof(TaskOutcome) <= 24);

/// Spawns a Poisson open-loop generator: submits `app` at `rate_hz` for
/// `duration` and appends each task's outcome to `out` as it settles, in
/// settle order. Caller runs the simulator.
void spawn_open_loop(sim::Simulator& sim, faas::DataFlowKernel& dfk,
                     const std::string& executor_label, faas::AppDef app,
                     double rate_hz, util::Duration duration, std::uint64_t seed,
                     std::shared_ptr<std::vector<TaskOutcome>> out);

/// The generator behind spawn_open_loop, decoupled from the DFK: calls
/// `submit_one` at Poisson arrival instants for `duration`. Lets the
/// federation layers (ClusterService) reuse the exact arrival process — same
/// seed ⇒ identical submit times regardless of what the callback does.
void spawn_open_loop_fn(sim::Simulator& sim, double rate_hz,
                        util::Duration duration, std::uint64_t seed,
                        std::function<void()> submit_one);

}  // namespace faaspart::workloads
