// SharingEngine — the strategy interface for how concurrent kernels share
// one compute envelope (a whole GPU, or one MIG instance).
//
// Concrete policies live in src/sched/: MpsEngine (concurrent kernels with
// per-client SM caps) and the serial-slot engine behind time-sharing (the
// NVIDIA default: one slot over the whole envelope) and vGPU (pinned
// homogeneous slots). A Device owns one engine; each MIG instance owns its
// own engine over its slice of SMs and bandwidth.
//
// An engine only decides when a job runs and on how many SMs; the base
// keeps every job's lifecycle. start() begins a job, and a job ends in
// exactly one way, whether its kernel completes or is aborted: finish() for
// a started job, fail_queued() for one failed before it started. Both hand
// the job and its error (null on success) to the envelope's JobSink — the
// Device, which records the kernel's span, completes the launching client's
// future one event later and feeds that client's stream.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>

#include "gpu/arch.hpp"
#include "gpu/kernel.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace faaspart::gpu {

using ContextId = std::uint64_t;

/// One kernel launch handed to an engine.
struct KernelJob {
  ContextId ctx = 0;      ///< submitting client (stream ordering is enforced
                          ///  by the Device before jobs reach the engine)
  int sm_cap = 0;         ///< client's SM cap (MPS percentage → SMs); 0 = uncapped
  KernelFootprint kernel;
  util::TimePoint start{};  ///< when the kernel began executing (set by start())
};

/// Where an engine reports that a job ended.
class JobSink {
 public:
  /// `error` is null when the kernel ran to completion and the abort cause
  /// when it was failed.
  virtual void finish(const KernelJob& job, std::exception_ptr error) = 0;

 protected:
  ~JobSink() = default;
};

/// The resource envelope an engine schedules over.
struct EngineEnv {
  sim::Simulator* sim = nullptr;
  GpuArchSpec arch;                ///< part description (per-SM rate, overheads)
  int sms = 0;                     ///< SMs in this envelope (slice for MIG)
  double bw_peak = 0;              ///< memory bandwidth ceiling of this envelope
  JobSink* sink = nullptr;         ///< told when each job ends
};

class SharingEngine {
 public:
  explicit SharingEngine(EngineEnv env) : env_(std::move(env)) {}
  virtual ~SharingEngine() = default;
  SharingEngine(const SharingEngine&) = delete;
  SharingEngine& operator=(const SharingEngine&) = delete;

  [[nodiscard]] virtual const char* policy_name() const = 0;

  /// Accepts a job; the engine decides when it runs and when to finish it.
  virtual void submit(KernelJob job) = 0;

  [[nodiscard]] virtual std::size_t active() const = 0;  ///< kernels executing
  [[nodiscard]] virtual std::size_t queued() const = 0;  ///< kernels waiting

  /// Fails every queued and executing kernel with `error` (device reset,
  /// MPS daemon death). The engine restores its accounting so the envelope
  /// is immediately usable again. Returns the number of kernels failed.
  virtual std::size_t abort_all(std::exception_ptr error) = 0;

  [[nodiscard]] bool idle() const { return active() == 0 && queued() == 0; }

  [[nodiscard]] const EngineEnv& env() const { return env_; }

  /// Cumulative time this envelope had at least one kernel executing,
  /// including the currently-running stretch — live (unlike the recorder,
  /// which only sees completed spans), so obs::UtilizationSampler reads
  /// true utilization mid-kernel.
  [[nodiscard]] util::Duration busy_time() const {
    util::Duration busy = busy_integral_;
    if (running_ > 0) busy += env_.sim->now() - busy_since_;
    return busy;
  }

 protected:
  /// Starts `job` executing now: the busy integral counts it, and the job
  /// keeps its start instant for the span the sink records.
  void start(KernelJob& job) {
    job.start = env_.sim->now();
    if (running_++ == 0) busy_since_ = job.start;
  }
  /// Ends a started job: `error` is null when its kernel completed and the
  /// abort cause when it was failed.
  void finish(const KernelJob& job, std::exception_ptr error = nullptr) {
    if (--running_ == 0) busy_integral_ += env_.sim->now() - busy_since_;
    settle(job, std::move(error));
  }
  /// Ends a job that never started, failed with `error`.
  void fail_queued(const KernelJob& job, std::exception_ptr error) {
    settle(job, std::move(error));
  }

  // -- telemetry hooks (no-ops without an installed obs::Telemetry) ---------
  // These sit on the per-kernel path, so the common cases are inline: a
  // cached Counter increment with telemetry on, a resolve that finds no
  // telemetry and returns with it off.
  /// Once per submitted kernel → kernel_launches_total{policy}.
  void note_launch() {
    if (!metrics_resolved_) resolve_metrics();
    if (launches_ != nullptr) launches_->add();
  }
  /// SM-cap admission delay → mps_throttle_seconds_total{percentage}, the
  /// time a kernel sat queued because its client's cap was saturated.
  void note_throttle(util::Duration waited, int sm_cap) {
    if (waited.ns <= 0) return;
    if (sm_cap != throttle_cap_) resolve_throttle(sm_cap);
    if (throttle_counter_ != nullptr) throttle_counter_->add(waited.seconds());
  }

  EngineEnv env_;

 private:
  /// The one exit of every job: a failed one counts in
  /// kernel_aborts_total{policy}, and each goes to the sink.
  void settle(const KernelJob& job, std::exception_ptr error) {
    if (error) {
      if (!metrics_resolved_) resolve_metrics();
      if (aborts_ != nullptr) aborts_->add();
    }
    env_.sink->finish(job, std::move(error));
  }
  void resolve_metrics();
  void resolve_throttle(int sm_cap);

  std::size_t running_ = 0;  ///< started jobs not yet finished
  util::TimePoint busy_since_{};
  util::Duration busy_integral_{};
  // Cached counter handles (stable for the registry's lifetime).
  obs::Counter* launches_ = nullptr;
  obs::Counter* aborts_ = nullptr;
  // Throttle counters per SM cap — a handful of distinct caps per engine,
  // and the int-keyed lookup keeps the admission path off the registry's
  // string-keyed map. The last-cap pair short-circuits even that (and the
  // cap → percentage division) for the common equal-caps case.
  std::map<int, obs::Counter*> throttle_;
  int throttle_cap_ = -1;
  obs::Counter* throttle_counter_ = nullptr;
  bool metrics_resolved_ = false;
};

/// Constructs an engine for a given envelope; injected into Device so the
/// gpu module stays independent of the concrete policies in src/sched/.
using EngineFactory = std::function<std::unique_ptr<SharingEngine>(EngineEnv)>;

}  // namespace faaspart::gpu
