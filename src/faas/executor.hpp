// The executor — the pilot-job runtime that hosts workers and runs tasks.
//
// HighThroughputExecutor mirrors Parsl's architecture (§2.2.1): submitted
// tasks land in a central FIFO queue (the "interchange"), a dispatcher hands
// them to idle workers, and each worker is a long-lived process pinned to
// CPU cores and (optionally) one accelerator entry from the configuration.
//
// Worker ↔ accelerator binding follows the paper's extension: one worker per
// `available_accelerators` entry; the entry's GPU percentage (Listing 2) or
// MIG UUID (Listing 3) is fixed in the worker's environment before the
// process starts, so changing it requires a worker restart (§6) — exposed
// here as restart_worker(), which core::Reconfigurer uses and which charges
// the full process-respawn + context-init + model-reload path.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "faas/app.hpp"
#include "faas/loader.hpp"
#include "faas/provider.hpp"
#include "gpu/device.hpp"
#include "sim/sync.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"

namespace faaspart::obs {
class Counter;
class Histogram;
}  // namespace faaspart::obs

namespace faaspart::faas {

/// Resolved accelerator assignment for one worker slot (produced from the
/// config strings by core::GpuPartitioner).
struct WorkerBinding {
  gpu::Device* device = nullptr;
  gpu::ContextOptions ctx_opts;
  std::string accelerator;  ///< original reference string, for labels
};

class HighThroughputExecutor {
 public:
  struct Options {
    std::string label = "htex";
    /// CPU-only worker count, used when `bindings` is empty (Listing 1's
    /// max_workers).
    int cpu_workers = 1;
    int cpu_cores_per_worker = 1;
    /// One worker per binding (GPU executors).
    std::vector<WorkerBinding> bindings;
    std::uint64_t seed = 1;
  };

  /// Per-worker observable state.
  struct WorkerInfo {
    std::string name;
    std::string accelerator;   ///< empty for CPU workers
    bool alive = false;
    bool busy = false;
    int restarts = 0;
    int crashes = 0;           ///< injected process deaths (fault layer)
    std::uint64_t tasks_done = 0;
    gpu::ContextId gpu_ctx = 0;  ///< 0 when no context is live
  };

  HighThroughputExecutor(sim::Simulator& sim, LocalProvider& provider,
                         Options opts, ModelLoader* loader = nullptr,
                         trace::Recorder* rec = nullptr);
  ~HighThroughputExecutor();

  /// Spawns the dispatcher and the worker processes. Idempotent guards: a
  /// second call throws util::StateError.
  void start();

  AppHandle submit(std::shared_ptr<const AppDef> app);
  /// Drains queued/running tasks, then stops workers.
  sim::Co<void> shutdown();

  /// Restarts one worker, optionally with new context options (a new MPS
  /// percentage or MIG target) — the §6 reallocation path. The returned
  /// future completes when the worker is back up; the restart drains the
  /// worker's in-flight task first and wipes its warm state (function init
  /// and loaded models are re-charged).
  sim::Future<> restart_worker(std::size_t index,
                               std::optional<gpu::ContextOptions> new_opts);

  /// Tears the worker's process/context down and leaves it parked (it keeps
  /// accepting mail but runs nothing). Used by MIG re-layout, which needs
  /// *every* context off the device before the GPU reset; follow with
  /// restart_worker() to bring the worker back. Queued tasks for a parked
  /// worker wait in its inbox.
  sim::Future<> park_worker(std::size_t index);

  [[nodiscard]] const std::string& label() const { return opts_.label; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] WorkerInfo worker_info(std::size_t index) const;
  [[nodiscard]] std::size_t queue_depth() const { return central_.size(); }
  /// Worker-process deaths delivered by the fault layer (crash_worker_now).
  [[nodiscard]] std::uint64_t crashes_injected() const { return crashes_injected_; }

 private:
  struct QueuedTask {
    std::shared_ptr<const AppDef> app;
    sim::Promise<AppValue> promise;
    std::shared_ptr<TaskRecord> record;
  };

  struct Msg {
    enum class Kind { kTask, kRestart, kPark, kStop } kind = Kind::kTask;
    QueuedTask task;                                // kTask
    std::optional<gpu::ContextOptions> new_opts;    // kRestart
    sim::Promise<> ack;                             // kRestart / kStop
  };

  struct Worker {
    std::string name;
    std::optional<WorkerBinding> binding;
    gpu::ContextId ctx = 0;
    bool ctx_live = false;
    bool alive = false;
    bool busy = false;
    bool crash_pending = false;
    int restarts = 0;
    int crashes = 0;
    std::uint64_t tasks_done = 0;
    std::set<std::string> inited_apps;
    std::set<std::string> loaded_models;
    std::unique_ptr<sim::Mailbox<Msg>> inbox;
    util::Rng rng{0};
    trace::LaneId lane = 0;
  };

  void create_worker(std::optional<WorkerBinding> binding);
  sim::Co<void> dispatcher_main();
  sim::Co<void> worker_main(std::size_t index);
  sim::Co<void> worker_boot(Worker& w);
  void worker_teardown(Worker& w);
  sim::Co<void> run_task(Worker& w, QueuedTask task);
  /// Causal tracing: records the queue and cold-start intervals as closed
  /// spans under the attempt span and opens the "body" span whose id the
  /// TaskContext carries into kernel launches. Returns 0 when telemetry or
  /// tracing is off.
  std::uint64_t open_body_trace(const Worker& w, const AppDef& app,
                                const TaskRecord& rec, util::TimePoint t0);
  void close_body_trace(std::uint64_t span, const std::string& note);
  /// Per-task counters/histograms, driven off the settled TaskRecord.
  void note_task_metrics(const TaskRecord& rec);
  /// Resolves the per-task metric handles once (registry pointers are stable
  /// for the telemetry lifetime), so the submit/settle paths cost a cached
  /// pointer increment instead of a string-keyed registry lookup per task.
  void resolve_task_metrics();
  /// Settle bookkeeping; run_task calls it right after it settles the
  /// task's promise, the only place that promise settles.
  void note_task_settled();
  /// Registers fault-layer handlers (worker crashes, device errors, MPS
  /// daemon death); no-op when the simulator has no injector.
  void subscribe_faults();
  /// Kills worker `index` now: a busy (or about-to-be-busy) process loses
  /// its in-flight task (crash_pending), an idle one respawns cold
  /// immediately.
  void crash_worker_now(std::size_t index);

  sim::Simulator& sim_;
  LocalProvider& provider_;
  Options opts_;
  ModelLoader* loader_;          // may be null → owned default DirectLoader
  std::unique_ptr<ModelLoader> default_loader_;
  trace::Recorder* rec_;

  sim::Mailbox<QueuedTask> central_;
  sim::Mailbox<std::size_t> idle_;
  std::vector<std::unique_ptr<Worker>> workers_;
  util::Rng seeder_{1};

  bool started_ = false;
  bool stopping_ = false;
  std::size_t outstanding_ = 0;
  std::uint64_t crashes_injected_ = 0;
  std::uint64_t next_task_id_ = 1;
  sim::Gate drained_;
  std::vector<std::uint64_t> fault_subs_;
  /// Interchange queue-depth source in the telemetry sampler (kNoSource-style
  /// sentinel when telemetry is off).
  std::size_t obs_queue_source_ = static_cast<std::size_t>(-1);
  // Cached per-task metric handles (see resolve_task_metrics()). All set
  // together; attempts_counter_ == nullptr means telemetry is off.
  obs::Counter* attempts_counter_ = nullptr;
  obs::Counter* tasks_done_counter_ = nullptr;
  obs::Counter* tasks_failed_counter_ = nullptr;
  obs::Histogram* run_seconds_hist_ = nullptr;
  obs::Counter* cold_starts_counter_ = nullptr;
  obs::Counter* cold_start_seconds_counter_ = nullptr;
  bool obs_metrics_resolved_ = false;
};

}  // namespace faaspart::faas
