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
  /// nothing copies it.
  AppHandle submit(std::shared_ptr<const AppDef> app, const std::string& executor_label,
                   obs::TraceContext parent = {});
  AppHandle submit(AppDef app, const std::string& executor_label,
                   obs::TraceContext parent = {});

  /// Like submit, but waits for `deps` to succeed first. A failed dependency
  /// fails this task without consuming retries (dependency errors are not
  /// execution errors — mirrors Parsl).
  AppHandle submit_after(std::vector<sim::Future<AppValue>> deps, AppDef app,
                         const std::string& executor_label,
                         obs::TraceContext parent = {});

  /// Awaits every submitted task, including tasks submitted while waiting;
  /// does not throw on task failures (inspect records / counts instead).
  sim::Co<void> wait_all_settled();

  /// Drains and shuts down every executor.
  sim::Co<void> shutdown();

  [[nodiscard]] std::size_t tasks_submitted() const { return records_.size(); }
  [[nodiscard]] std::size_t tasks_failed() const;
  [[nodiscard]] const std::vector<std::shared_ptr<TaskRecord>>& records() const {
    return records_;
  }

 private:
  AppHandle start(std::vector<sim::Future<AppValue>> deps,
                  std::shared_ptr<const AppDef> app,
                  const std::string& executor_label, obs::TraceContext parent);
  sim::Co<void> run_attempts(std::shared_ptr<const AppDef> app,
                             HighThroughputExecutor* ex,
                             sim::Promise<AppValue> outer,
                             std::shared_ptr<TaskRecord> logical,
                             std::vector<sim::Future<AppValue>> deps);
  /// Counts one task out once its outer future has settled.
  void note_settled();
  /// Delay before the next resubmission given how many attempts failed.
  [[nodiscard]] util::Duration backoff_delay(int failed_attempts) const;
  /// Resolves the per-task metric handles once (registry pointers are stable
  /// for the telemetry lifetime) — the submit/completion hot paths then cost
  /// a cached pointer use instead of a registry lookup per task.
  void resolve_task_metrics();

  sim::Simulator& sim_;
  Config cfg_;
  std::map<std::string, std::unique_ptr<HighThroughputExecutor>> executors_;
  std::vector<std::shared_ptr<TaskRecord>> records_;
  std::size_t unsettled_ = 0;  ///< submitted tasks whose future is pending
  sim::Gate all_settled_;      ///< opened whenever unsettled_ drops to zero
  std::uint64_t next_id_ = 1;
  // Cached per-task metric handles (see resolve_task_metrics()). All set
  // together; submits_counter_ == nullptr means telemetry is off.
  obs::Counter* submits_counter_ = nullptr;
  obs::Histogram* completion_hist_ = nullptr;
  obs::Histogram* queue_hist_ = nullptr;
  bool obs_metrics_resolved_ = false;
};

}  // namespace faaspart::faas
