// DataFlowKernel — Parsl's task orchestrator: app registry, routing by
// executor label, dependency handling and retries (Listing 1: retries=1).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faas/app.hpp"
#include "faas/config.hpp"
#include "faas/executor.hpp"
#include "sim/sync.hpp"

namespace faaspart::faas {

class DataFlowKernel {
 public:
  DataFlowKernel(sim::Simulator& sim, Config cfg);

  /// Takes ownership; the executor's label routes submissions.
  void add_executor(std::unique_ptr<HighThroughputExecutor> executor);

  [[nodiscard]] HighThroughputExecutor& executor(const std::string& label);
  [[nodiscard]] const HighThroughputExecutor& executor(const std::string& label) const;
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Submits an app to the labeled executor with DFK-level retries: on
  /// failure the task is resubmitted up to cfg.retries times; the returned
  /// future settles with the final outcome. The returned record is the
  /// logical task (tries counts attempts). An active `parent` context joins
  /// the task tree to an upstream trace (the federation request root), so a
  /// cluster request's story stays one connected tree across endpoints;
  /// default {} starts a fresh trace. Every attempt runs the shared `app`;
  /// nothing copies it. `on_settle` runs with the final record as the task
  /// settles.
  AppHandle submit(std::shared_ptr<const AppDef> app, const std::string& executor_label,
                   obs::TraceContext parent = {}, SettleHook on_settle = {});
  AppHandle submit(AppDef app, const std::string& executor_label,
                   obs::TraceContext parent = {});

  /// Like submit, but waits for `deps` to succeed first. A failed dependency
  /// fails this task without consuming retries (dependency errors are not
  /// execution errors — mirrors Parsl).
  AppHandle submit_after(std::vector<sim::Future<AppValue>> deps, AppDef app,
                         const std::string& executor_label,
                         obs::TraceContext parent = {});

  /// Awaits every submitted task, including tasks submitted while waiting;
  /// does not throw on task failures (inspect the handles / counts instead).
  sim::Co<void> wait_all_settled();

  /// Drains and shuts down every executor.
  sim::Co<void> shutdown();

  /// Counts kept as tasks are submitted and settle; the DFK keeps no
  /// settled task itself.
  [[nodiscard]] std::size_t tasks_submitted() const { return submitted_; }
  [[nodiscard]] std::size_t tasks_failed() const { return failed_; }
  /// Resubmissions after a failed attempt, over every task.
  [[nodiscard]] std::size_t retries_used() const { return retries_; }
  /// The logical records of the unsettled tasks, in no particular order: a
  /// task's record leaves as it settles, so a drained DFK holds none.
  [[nodiscard]] const std::vector<std::shared_ptr<TaskRecord>>& records() const {
    return live_;
  }

 private:
  AppHandle start(std::vector<sim::Future<AppValue>> deps,
                  std::shared_ptr<const AppDef> app,
                  const std::string& executor_label, obs::TraceContext parent,
                  SettleHook on_settle);
  sim::Co<void> run_attempts(std::shared_ptr<const AppDef> app,
                             HighThroughputExecutor* ex,
                             sim::Promise<AppValue> outer,
                             std::shared_ptr<TaskRecord> logical,
                             std::vector<sim::Future<AppValue>> deps,
                             SettleHook on_settle);
  /// Enters `record` into live_ and points live_slots_ at `*slot`, the
  /// owning task's copy of its live_ index.
  void track(std::shared_ptr<TaskRecord> record, std::size_t* slot);
  /// Runs the settle hook and drops live_[slot] (the last entry moves into
  /// its place); called on each settle path, right after the future settles.
  void note_settled(std::size_t slot, const SettleHook& on_settle);
  /// Delay before the next resubmission given how many attempts failed.
  [[nodiscard]] util::Duration backoff_delay(int failed_attempts) const;
  /// Resolves the per-task metric handles once (registry pointers are stable
  /// for the telemetry lifetime) — the submit/completion hot paths then cost
  /// a cached pointer use instead of a registry lookup per task.
  void resolve_task_metrics();

  sim::Simulator& sim_;
  Config cfg_;
  std::map<std::string, std::unique_ptr<HighThroughputExecutor>> executors_;
  // Unsettled tasks: live_[i] is a task's record and live_slots_[i] the
  // index variable in that task's coroutine frame, which a removal updates
  // when it moves the last entry into a freed place. Both stay as long as
  // the peak number of tasks in flight, not the number ever submitted.
  std::vector<std::shared_ptr<TaskRecord>> live_;
  std::vector<std::size_t*> live_slots_;
  std::size_t submitted_ = 0;
  std::size_t failed_ = 0;
  std::size_t retries_ = 0;
  sim::Gate all_settled_;  ///< opened whenever live_ empties
  std::uint64_t next_id_ = 1;
  // Cached per-task metric handles (see resolve_task_metrics()). All set
  // together; submits_counter_ == nullptr means telemetry is off.
  obs::Counter* submits_counter_ = nullptr;
  obs::Histogram* completion_hist_ = nullptr;
  obs::Histogram* queue_hist_ = nullptr;
  bool obs_metrics_resolved_ = false;
};

}  // namespace faaspart::faas
