// Device — one simulated GPU: memory, contexts, MIG instances, and a
// pluggable SharingEngine that decides how concurrent kernels share SMs.
// The Device is every engine's JobSink: where an engine ends a job, the
// Device records the completed kernel's span on its envelope's Recorder
// lane, settles the launching client's future and feeds that client's
// stream.
//
// Semantics mirrored from the real stack:
//   * per-context launches execute in order (CUDA stream semantics) — the
//     Device serializes a context's kernels before they reach the engine;
//   * a context's SM cap (CUDA_MPS_ACTIVE_THREAD_PERCENTAGE) is fixed at
//     context creation and cannot change while the context lives (§6);
//   * switching the sharing policy or the MIG layout requires that no
//     contexts exist (application restart / GPU reset, Table 1);
//   * MIG instances have their own memory pool, bandwidth slice and engine
//     (compute AND memory isolation); the plain device pool is shared by all
//     non-MIG contexts (MPS: no memory isolation).
#pragma once

#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gpu/arch.hpp"
#include "gpu/engine.hpp"
#include "gpu/memory.hpp"
#include "gpu/mig.hpp"
#include "sim/future.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace faaspart::gpu {

using InstanceId = std::uint32_t;

/// Options fixed at context creation — exactly the knobs the paper's
/// executor sets through environment variables before a worker starts.
struct ContextOptions {
  /// CUDA_MPS_ACTIVE_THREAD_PERCENTAGE ∈ (0, 100]; 100 = uncapped.
  double active_thread_percentage = 100.0;
  /// Target MIG instance (CUDA_VISIBLE_DEVICES = MIG UUID).
  std::optional<InstanceId> instance;
};

class Device;

/// A client's execution context on a device (or on one MIG instance).
class GpuContext {
 public:
  [[nodiscard]] ContextId id() const { return id_; }
  [[nodiscard]] const std::string& owner() const { return owner_; }
  [[nodiscard]] int sm_cap() const { return sm_cap_; }
  [[nodiscard]] std::optional<InstanceId> instance() const { return opts_.instance; }
  [[nodiscard]] util::Bytes allocated_bytes() const { return allocated_; }

 private:
  friend class Device;

  struct PendingLaunch {
    KernelDesc kernel;
    sim::Promise<> done;
    std::uint64_t trace_span = 0;
  };

  /// One kernel's Recorder span key: spans on the context's lane named
  /// "<owner>/<kernel>" in category "kernel:<kind>".
  struct SpanLabel {
    std::string kernel;
    KernelKind kind;
    trace::SpanKey key;
  };

  ContextId id_ = 0;
  std::string owner_;
  ContextOptions opts_;
  int sm_cap_ = 0;  ///< resolved SM cap within the target envelope
  trace::LaneId lane_ = 0;  ///< Recorder lane of the target envelope
  util::Bytes allocated_ = 0;
  std::vector<AllocationId> allocations_;
  std::deque<PendingLaunch> queue_;
  /// The launching client's promise for the one kernel in flight (stream
  /// order admits no second), the error its engine ended it with, its
  /// causal span (0 when untraced) and its Recorder span key.
  sim::Promise<> inflight_;
  std::exception_ptr inflight_error_;
  std::uint64_t inflight_span_ = 0;
  trace::SpanKey inflight_key_ = 0;
  /// Span keys of this context's kernels in first-dispatch order, and the
  /// entry the next dispatch most likely needs: a stream repeats its kernel
  /// sequence, so one name comparison usually resolves the key.
  std::vector<SpanLabel> labels_;
  std::size_t label_hint_ = 0;
  // Memory high-water gauge, resolved on first alloc and cached — the
  // partition label is fixed for the context's lifetime (see Device::alloc).
  obs::Gauge* mem_gauge_ = nullptr;
  bool mem_gauge_resolved_ = false;
};

/// One MIG instance: a hard slice of SMs, memory and bandwidth.
struct GpuInstance {
  InstanceId id = 0;
  std::string uuid;  ///< e.g. "MIG-GPU0/2g.20gb/1" — used as an accelerator ref
  MigProfile profile;
  std::unique_ptr<MemoryPool> memory;
  std::unique_ptr<SharingEngine> engine;
  trace::LaneId lane = 0;
  std::size_t context_count = 0;
  /// Concrete slice placement, assigned lowest-free-first at creation (the
  /// fixed placement real MIG uses). -1 when fragmentation after destroys
  /// left no contiguous run — capacity validation still holds either way;
  /// the offsets exist so overlap is a checkable invariant (tests/prop).
  int compute_start = -1;
  int mem_start = -1;
  /// Utilization-sampler source keyed by the instance UUID; detached when
  /// the instance is destroyed so the sampler never holds dangling probes.
  std::size_t obs_source = static_cast<std::size_t>(-1);
};

class Device final : private JobSink {
 public:
  /// `make_engine` builds the sharing policy for the device envelope and for
  /// each MIG instance created later (the NVIDIA default is time-sharing;
  /// see sched::timeshare_factory()).
  Device(sim::Simulator& sim, GpuArchSpec arch, int index,
         EngineFactory make_engine, trace::Recorder* rec = nullptr);
  /// Unsubscribes from the simulator's fault injector, if one is installed.
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const GpuArchSpec& arch() const { return arch_; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] trace::LaneId lane() const { return lane_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // -- sharing policy -------------------------------------------------------

  /// Replaces the engine factory and rebuilds the device engine. Requires
  /// zero live contexts (clients must restart to pick up a policy change)
  /// and MIG disabled for the device-level engine swap to matter.
  void set_engine_factory(EngineFactory make_engine);

  [[nodiscard]] SharingEngine& engine();
  [[nodiscard]] const SharingEngine& engine() const;

  // -- contexts -------------------------------------------------------------

  /// Creates a client context. Throws util::ConfigError on a bad percentage,
  /// util::StateError when targeting the bare device while MIG is enabled
  /// (real MIG GPUs refuse non-instance contexts), util::NotFoundError for
  /// an unknown instance.
  ContextId create_context(std::string owner, ContextOptions opts = {});

  /// Destroys a context, freeing all of its allocations. Throws
  /// util::StateError if the context still has kernels in flight.
  void destroy_context(ContextId id);

  [[nodiscard]] const GpuContext& context(ContextId id) const;
  [[nodiscard]] std::size_t context_count() const { return contexts_.size(); }

  // -- memory ---------------------------------------------------------------

  /// Allocates from the context's pool (device pool, or its instance's).
  AllocationId alloc(ContextId ctx, util::Bytes size, std::string tag);
  void free(ContextId ctx, AllocationId id);

  [[nodiscard]] MemoryPool& memory() { return *memory_; }
  [[nodiscard]] const MemoryPool& memory() const { return *memory_; }

  // -- kernel launch --------------------------------------------------------

  /// Enqueues a kernel on the context's stream; the future completes when
  /// the kernel finishes on the engine. `trace_span` is a traced launch's
  /// causal `kernel` span (0 when untraced), which the Device closes where
  /// the launch settles, noting `aborted` when the launch fails.
  sim::Future<> launch(ContextId ctx, const KernelDesc& kernel,
                       std::uint64_t trace_span = 0);

  // -- fault paths ----------------------------------------------------------
  //
  // A device-level error (Xid/ECC → reset) or MPS daemon death does not tear
  // contexts down by itself — it fails every affected launch future with
  // `error`, and client processes react (the executor kills and respawns its
  // workers, which frees their contexts). These also run automatically when
  // a faults::FaultInjector delivers kDeviceError / kMpsDaemonDeath for
  // "gpu:<index>".

  /// Fails all queued and in-flight kernels on the device: every context's
  /// stream queue, the device-level engine, and all MIG instance engines.
  std::size_t abort_all_kernels(std::exception_ptr error);

  /// Fails kernels of non-MIG contexts and the device-level engine only —
  /// MIG instances bypass the MPS control daemon and survive its death.
  std::size_t abort_device_kernels(std::exception_ptr error);

  // -- MIG ------------------------------------------------------------------

  [[nodiscard]] bool mig_enabled() const { return mig_enabled_; }

  /// Both require zero live contexts (GPU reset).
  void enable_mig();
  void disable_mig();

  /// Creates an instance; validates slice budgets (7 compute / 8 memory
  /// slices on A100). Requires MIG mode.
  InstanceId create_instance(const MigProfile& profile);
  InstanceId create_instance(const std::string& profile_name);

  /// Destroys an instance; requires zero contexts on it.
  void destroy_instance(InstanceId id);

  [[nodiscard]] const GpuInstance& instance(InstanceId id) const;
  [[nodiscard]] GpuInstance& instance(InstanceId id);
  /// Finds an instance by its UUID string; throws util::NotFoundError.
  [[nodiscard]] InstanceId instance_by_uuid(const std::string& uuid) const;
  [[nodiscard]] std::vector<InstanceId> instance_ids() const;
  [[nodiscard]] int used_compute_slices() const;
  [[nodiscard]] int used_mem_slices() const;

  // -- introspection --------------------------------------------------------

  /// GPU utilization over [from, to] measured from recorded kernel spans
  /// (device lane plus all instance lanes); 0 if no recorder was attached.
  /// Only *completed* kernels appear — for live sampling use busy_time().
  [[nodiscard]] double measured_utilization(util::TimePoint from, util::TimePoint to) const;

  /// Live SM-weighted busy-time integral (includes in-flight kernels):
  /// the engine's any-kernel-active time, with MIG instances weighted by
  /// their share of the device's SMs. Sample twice and divide the delta by
  /// the wall window for instantaneous utilization (nvidia-smi dmon style).
  [[nodiscard]] util::Duration busy_time() const;

 private:
  GpuContext& context_mut(ContextId id);
  SharingEngine& engine_for(const GpuContext& ctx);
  MemoryPool& pool_for(const GpuContext& ctx);
  void dispatch(GpuContext& ctx, const KernelDesc& kernel, sim::Promise<> done,
                std::uint64_t trace_span);
  /// The engine's end of the in-flight job: records a completed kernel's
  /// span; one event later, complete() settles the caller's future and
  /// dispatches the next queued launch.
  void finish(const KernelJob& job, std::exception_ptr error) override;
  void complete(GpuContext& ctx);
  /// Closes a settled launch's causal span (no-op for 0).
  void close_trace_span(std::uint64_t span, bool aborted);
  /// `ctx`'s span key for a kernel, interned on first sight.
  trace::SpanKey span_key(GpuContext& ctx, const KernelDesc& kernel);
  std::size_t fail_stream_queue(GpuContext& ctx, const std::exception_ptr& error);
  /// Detaches a sampler source id (no-op without telemetry / when already
  /// detached) and resets it.
  void detach_obs(std::size_t& source);

  sim::Simulator& sim_;
  GpuArchSpec arch_;
  int index_;
  EngineFactory make_engine_;
  trace::Recorder* rec_;
  trace::LaneId lane_ = 0;

  std::unique_ptr<MemoryPool> memory_;
  std::unique_ptr<SharingEngine> engine_;

  ContextId next_ctx_id_ = 1;
  std::map<ContextId, GpuContext> contexts_;

  bool mig_enabled_ = false;
  InstanceId next_instance_id_ = 1;
  std::map<InstanceId, GpuInstance> instances_;

  std::vector<std::uint64_t> fault_subs_;
  std::size_t obs_source_ = static_cast<std::size_t>(-1);
};

}  // namespace faaspart::gpu
