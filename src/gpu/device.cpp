#include "gpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "faults/faults.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::gpu {

Device::Device(sim::Simulator& sim, GpuArchSpec arch, int index,
               EngineFactory make_engine, trace::Recorder* rec)
    : sim_(sim),
      arch_(std::move(arch)),
      index_(index),
      make_engine_(std::move(make_engine)),
      rec_(rec) {
  FP_CHECK_MSG(static_cast<bool>(make_engine_), "Device needs an engine factory");
  FP_CHECK_MSG(arch_.total_sms > 0, "arch must have SMs");
  if (rec_ != nullptr) lane_ = rec_->add_lane(name());
  memory_ = std::make_unique<MemoryPool>(arch_.memory);
  engine_ = make_engine_(EngineEnv{&sim_, arch_, arch_.total_sms, arch_.mem_bw, this});
  if (auto* fi = sim_.faults()) {
    const std::string key = util::strf("gpu:", index_);
    fault_subs_.push_back(fi->subscribe(
        faults::FaultKind::kDeviceError, key, [this](const faults::FaultEvent&) {
          (void)abort_all_kernels(std::make_exception_ptr(
              util::DeviceError(util::strf(name(), ": injected fatal error, device reset"))));
        }));
    fault_subs_.push_back(fi->subscribe(
        faults::FaultKind::kMpsDaemonDeath, key, [this](const faults::FaultEvent&) {
          (void)abort_device_kernels(std::make_exception_ptr(
              util::DeviceError(util::strf(name(), ": MPS control daemon died"))));
        }));
  }
  if (auto* tel = sim_.telemetry()) {
    // The device partition: SM-weighted busy (MIG instances fold in via
    // busy_time()), engine queue plus non-MIG stream queues, device pool use.
    obs_source_ = tel->sampler().add_source(
        name(),
        obs::UtilizationSampler::Probes{
            [this] { return busy_time(); },
            [this] {
              double q = static_cast<double>(engine_->queued());
              for (const auto& [id, ctx] : contexts_) {
                if (!ctx.opts_.instance.has_value()) {
                  q += static_cast<double>(ctx.queue_.size());
                }
              }
              return q;
            },
            [this] { return memory_->used(); }});
  }
}

Device::~Device() {
  if (auto* fi = sim_.faults()) {
    for (const auto id : fault_subs_) fi->unsubscribe(id);
  }
  for (auto& [id, inst] : instances_) detach_obs(inst.obs_source);
  detach_obs(obs_source_);
}

void Device::detach_obs(std::size_t& source) {
  if (source == static_cast<std::size_t>(-1)) return;
  if (auto* tel = sim_.telemetry()) tel->sampler().detach(source);
  source = static_cast<std::size_t>(-1);
}

std::string Device::name() const { return util::strf("GPU", index_, ":", arch_.name); }

void Device::set_engine_factory(EngineFactory make_engine) {
  FP_CHECK_MSG(static_cast<bool>(make_engine), "null engine factory");
  if (!contexts_.empty()) {
    throw util::StateError(util::strf(
        "cannot change the sharing policy of ", name(), " with ",
        contexts_.size(), " live context(s); clients must restart"));
  }
  make_engine_ = std::move(make_engine);
  engine_ = make_engine_(EngineEnv{&sim_, arch_, arch_.total_sms, arch_.mem_bw, this});
}

SharingEngine& Device::engine() { return *engine_; }
const SharingEngine& Device::engine() const { return *engine_; }

ContextId Device::create_context(std::string owner, ContextOptions opts) {
  if (opts.active_thread_percentage <= 0.0 || opts.active_thread_percentage > 100.0) {
    throw util::ConfigError(util::strf("active thread percentage ",
                                       opts.active_thread_percentage,
                                       " outside (0, 100]"));
  }
  int envelope_sms = arch_.total_sms;
  trace::LaneId lane = lane_;
  if (opts.instance.has_value()) {
    GpuInstance& inst = instance(*opts.instance);
    envelope_sms = inst.profile.sms(arch_);
    lane = inst.lane;
    ++inst.context_count;
  } else if (mig_enabled_) {
    throw util::StateError(util::strf(
        name(), " is in MIG mode; contexts must target a MIG instance"));
  }

  GpuContext ctx;
  ctx.id_ = next_ctx_id_++;
  ctx.owner_ = std::move(owner);
  ctx.opts_ = opts;
  ctx.lane_ = lane;
  // NVIDIA rounds the SM grant from the percentage; at least 1 SM.
  ctx.sm_cap_ = std::max(
      1, static_cast<int>(std::lround(envelope_sms * opts.active_thread_percentage / 100.0)));
  const ContextId id = ctx.id_;
  contexts_.emplace(id, std::move(ctx));
  if (auto* tel = sim_.telemetry()) {
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: context creation is the
        // cold-start path, dominated by simulated init cost
        .counter("gpu_contexts_created_total", {{"gpu", name()}})
        .add();
  }
  return id;
}

void Device::destroy_context(ContextId id) {
  GpuContext& ctx = context_mut(id);
  if (ctx.inflight_.valid() || !ctx.queue_.empty()) {
    throw util::StateError(util::strf("context ", id, " ('", ctx.owner_,
                                      "') still has kernels in flight"));
  }
  MemoryPool& pool = pool_for(ctx);
  for (const AllocationId a : ctx.allocations_) {
    if (pool.contains(a)) pool.free(a);
  }
  if (ctx.opts_.instance.has_value()) {
    --instance(*ctx.opts_.instance).context_count;
  }
  contexts_.erase(id);
}

const GpuContext& Device::context(ContextId id) const {
  const auto it = contexts_.find(id);
  if (it == contexts_.end()) throw util::NotFoundError(util::strf("context ", id));
  return it->second;
}

GpuContext& Device::context_mut(ContextId id) {
  const auto it = contexts_.find(id);
  if (it == contexts_.end()) throw util::NotFoundError(util::strf("context ", id));
  return it->second;
}

MemoryPool& Device::pool_for(const GpuContext& ctx) {
  if (ctx.opts_.instance.has_value()) return *instance(*ctx.opts_.instance).memory;
  return *memory_;
}

SharingEngine& Device::engine_for(const GpuContext& ctx) {
  if (ctx.opts_.instance.has_value()) return *instance(*ctx.opts_.instance).engine;
  return *engine_;
}

AllocationId Device::alloc(ContextId id, util::Bytes size, std::string tag) {
  GpuContext& ctx = context_mut(id);
  MemoryPool& pool = pool_for(ctx);
  const AllocationId a = pool.allocate(size, util::strf(ctx.owner_, "/", tag));
  ctx.allocations_.push_back(a);
  ctx.allocated_ += size;
  if (!ctx.mem_gauge_resolved_) {
    if (auto* tel = sim_.telemetry()) {  // don't latch — may install later
      ctx.mem_gauge_resolved_ = true;
      const std::string partition = ctx.opts_.instance.has_value()
                                        ? instance(*ctx.opts_.instance).uuid
                                        : name();
      ctx.mem_gauge_ = &tel->metrics().gauge("gpu_memory_highwater_bytes",
                                             {{"partition", partition}});
    }
  }
  if (ctx.mem_gauge_ != nullptr) {
    ctx.mem_gauge_->set_max(static_cast<double>(pool.used()));
  }
  return a;
}

void Device::free(ContextId id, AllocationId alloc_id) {
  GpuContext& ctx = context_mut(id);
  const auto it = std::find(ctx.allocations_.begin(), ctx.allocations_.end(), alloc_id);
  if (it == ctx.allocations_.end()) {
    throw util::NotFoundError(
        util::strf("allocation ", alloc_id, " not owned by context ", id));
  }
  ctx.allocated_ -= pool_for(ctx).info(alloc_id).size;
  pool_for(ctx).free(alloc_id);
  ctx.allocations_.erase(it);
}

sim::Future<> Device::launch(ContextId id, const KernelDesc& kernel,
                             std::uint64_t trace_span) {
  GpuContext& ctx = context_mut(id);
  sim::Promise<> done(sim_);
  auto fut = done.future();
  if (ctx.inflight_.valid()) {
    ctx.queue_.push_back(
        GpuContext::PendingLaunch{kernel, std::move(done), trace_span});
  } else {
    dispatch(ctx, kernel, std::move(done), trace_span);
  }
  return fut;
}

void Device::dispatch(GpuContext& ctx, const KernelDesc& kernel,
                      sim::Promise<> done, std::uint64_t trace_span) {
  ctx.inflight_ = std::move(done);
  ctx.inflight_span_ = trace_span;
  if (rec_ != nullptr) ctx.inflight_key_ = span_key(ctx, kernel);
  engine_for(ctx).submit(KernelJob{ctx.id_, ctx.sm_cap_, kernel});
}

trace::SpanKey Device::span_key(GpuContext& ctx, const KernelDesc& kernel) {
  auto& labels = ctx.labels_;
  // Start at the hint and wrap, so a repeated sequence hits at once and a
  // kernel seen before is still found wherever it sits.
  for (std::size_t n = 0, i = ctx.label_hint_; n < labels.size(); ++n, ++i) {
    if (i == labels.size()) i = 0;
    if (labels[i].kind == kernel.kind && labels[i].kernel == kernel.name) {
      ctx.label_hint_ = i + 1;
      return labels[i].key;
    }
  }
  // First sight in this context: ask the Recorder, which keeps labels and
  // keys in first-seen order across contexts.
  const trace::SpanKey key =
      rec_->key(ctx.lane_, util::strf(ctx.owner_, "/", kernel.name),
                util::strf("kernel:", kernel_kind_name(kernel.kind)));
  labels.push_back(GpuContext::SpanLabel{kernel.name, kernel.kind, key});
  ctx.label_hint_ = labels.size();
  return key;
}

void Device::finish(const KernelJob& job, std::exception_ptr error) {
  // The context outlives this hop: destroy_context refuses a context whose
  // kernel is in flight, and it stays in flight until complete() runs.
  GpuContext& ctx = context_mut(job.ctx);
  // Only a completed kernel draws a span: an aborted one never finished.
  if (rec_ != nullptr && !error) {
    rec_->record(ctx.inflight_key_, job.start, sim_.now());
  }
  ctx.inflight_error_ = std::move(error);
  sim_.schedule_now([this, &ctx] { complete(ctx); });
}

void Device::complete(GpuContext& ctx) {
  // Settle the caller's future and close its span the way the engine ended
  // the kernel, then feed the next queued launch (CUDA stream ordering).
  const sim::Promise<> done = std::move(ctx.inflight_);
  const std::exception_ptr error = std::exchange(ctx.inflight_error_, nullptr);
  if (error) {
    done.set_exception(error);
  } else {
    done.set_value();
  }
  close_trace_span(std::exchange(ctx.inflight_span_, 0), error != nullptr);
  if (!ctx.queue_.empty()) {
    GpuContext::PendingLaunch next = std::move(ctx.queue_.front());
    ctx.queue_.pop_front();
    dispatch(ctx, next.kernel, std::move(next.done), next.trace_span);
  }
}

void Device::close_trace_span(std::uint64_t span, bool aborted) {
  obs::Telemetry* tel = span != 0 ? sim_.telemetry() : nullptr;
  obs::Tracer* tracer = tel != nullptr ? tel->tracer() : nullptr;
  if (tracer == nullptr) return;
  if (aborted) tracer->annotate(span, "aborted");
  tracer->close_span(span);
}

std::size_t Device::fail_stream_queue(GpuContext& ctx,
                                      const std::exception_ptr& error) {
  const std::size_t n = ctx.queue_.size();
  for (auto& pending : ctx.queue_) {
    pending.done.set_exception(error);
    close_trace_span(pending.trace_span, true);
  }
  ctx.queue_.clear();
  return n;
}

std::size_t Device::abort_all_kernels(std::exception_ptr error) {
  std::size_t n = 0;
  for (auto& [id, ctx] : contexts_) n += fail_stream_queue(ctx, error);
  n += engine_->abort_all(error);
  for (auto& [id, inst] : instances_) n += inst.engine->abort_all(error);
  return n;
}

std::size_t Device::abort_device_kernels(std::exception_ptr error) {
  std::size_t n = 0;
  for (auto& [id, ctx] : contexts_) {
    if (ctx.opts_.instance.has_value()) continue;
    n += fail_stream_queue(ctx, error);
  }
  n += engine_->abort_all(error);
  return n;
}

void Device::enable_mig() {
  if (!arch_.mig_capable) {
    throw util::StateError(arch_.name + " does not support MIG");
  }
  if (!contexts_.empty()) {
    throw util::StateError(util::strf(
        "enabling MIG on ", name(), " requires a GPU reset; ",
        contexts_.size(), " context(s) are still alive"));
  }
  mig_enabled_ = true;
}

void Device::disable_mig() {
  if (!contexts_.empty()) {
    throw util::StateError(util::strf(
        "disabling MIG on ", name(), " requires a GPU reset; ",
        contexts_.size(), " context(s) are still alive"));
  }
  for (auto& [id, inst] : instances_) detach_obs(inst.obs_source);
  instances_.clear();
  mig_enabled_ = false;
}

InstanceId Device::create_instance(const MigProfile& profile) {
  if (!mig_enabled_) {
    throw util::StateError(util::strf(name(), " is not in MIG mode"));
  }
  if (used_compute_slices() + profile.compute_slices > arch_.mig_slices) {
    throw util::StateError(util::strf(
        "profile ", profile.name, " needs ", profile.compute_slices,
        " compute slices; only ", arch_.mig_slices - used_compute_slices(),
        " of ", arch_.mig_slices, " free on ", name()));
  }
  if (used_mem_slices() + profile.mem_slices > arch_.mem_slices) {
    throw util::StateError(util::strf(
        "profile ", profile.name, " needs ", profile.mem_slices,
        " memory slices; only ", arch_.mem_slices - used_mem_slices(),
        " of ", arch_.mem_slices, " free on ", name()));
  }
  // Transient creation failure (nvidia-smi mig -cgi erroring out) — only
  // after validation, so it models a valid request failing, not a bad one.
  if (auto* fi = sim_.faults();
      fi != nullptr && fi->take_mig_create_failure(util::strf("gpu:", index_))) {
    throw util::DeviceError(util::strf("injected MIG instance-create failure (",
                                       profile.name, " on ", name(), ")"));
  }

  // Lowest-free-first contiguous slice placement (real MIG's fixed placement
  // trees, simplified): scan occupied runs, take the first gap that fits.
  const auto lowest_free_run = [](int budget, const auto& runs, int need) {
    std::vector<bool> occupied(static_cast<std::size_t>(budget), false);
    for (const auto& [start, len] : runs) {
      for (int i = start; i < start + len && i < budget; ++i) {
        occupied[static_cast<std::size_t>(i)] = true;
      }
    }
    for (int s = 0; s + need <= budget; ++s) {
      bool free = true;
      for (int i = s; i < s + need; ++i) {
        free = free && !occupied[static_cast<std::size_t>(i)];
      }
      if (free) return s;
    }
    return -1;
  };
  std::vector<std::pair<int, int>> compute_runs;
  std::vector<std::pair<int, int>> mem_runs;
  for (const auto& [iid, other] : instances_) {
    if (other.compute_start >= 0) {
      compute_runs.emplace_back(other.compute_start, other.profile.compute_slices);
    }
    if (other.mem_start >= 0) {
      mem_runs.emplace_back(other.mem_start, other.profile.mem_slices);
    }
  }

  GpuInstance inst;
  inst.id = next_instance_id_++;
  inst.profile = profile;
  inst.compute_start =
      lowest_free_run(arch_.mig_slices, compute_runs, profile.compute_slices);
  inst.mem_start =
      lowest_free_run(arch_.mem_slices, mem_runs, profile.mem_slices);
  inst.uuid = util::strf("MIG-GPU", index_, "/", profile.name, "/", inst.id);
  inst.memory = std::make_unique<MemoryPool>(profile.memory(arch_));
  inst.lane = rec_ != nullptr ? rec_->add_lane(inst.uuid) : lane_;
  inst.engine = make_engine_(
      EngineEnv{&sim_, arch_, profile.sms(arch_), profile.bandwidth(arch_), this});
  if (auto* tel = sim_.telemetry()) {
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: MIG instance churn is a
        // reconfiguration event costing simulated seconds
        .counter("mig_instance_creates_total", {{"gpu", name()}})
        .add();
    // Probe pointers outlive the move below (unique_ptr targets are stable).
    auto* eng = inst.engine.get();
    auto* mem = inst.memory.get();
    inst.obs_source = tel->sampler().add_source(
        inst.uuid,
        obs::UtilizationSampler::Probes{
            [eng] { return eng->busy_time(); },
            [eng] { return static_cast<double>(eng->queued()); },
            [mem] { return mem->used(); }});
  }
  const InstanceId id = inst.id;
  instances_.emplace(id, std::move(inst));
  return id;
}

InstanceId Device::create_instance(const std::string& profile_name) {
  return create_instance(mig_profile(arch_, profile_name));
}

void Device::destroy_instance(InstanceId id) {
  GpuInstance& inst = instance(id);
  if (inst.context_count > 0) {
    throw util::StateError(util::strf("MIG instance ", inst.uuid, " has ",
                                      inst.context_count, " live context(s)"));
  }
  detach_obs(inst.obs_source);
  if (auto* tel = sim_.telemetry()) {
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: see mig_instance_creates
        .counter("mig_instance_destroys_total", {{"gpu", name()}})
        .add();
  }
  instances_.erase(id);
}

const GpuInstance& Device::instance(InstanceId id) const {
  const auto it = instances_.find(id);
  if (it == instances_.end()) {
    throw util::NotFoundError(util::strf("MIG instance ", id));
  }
  return it->second;
}

GpuInstance& Device::instance(InstanceId id) {
  const auto it = instances_.find(id);
  if (it == instances_.end()) {
    throw util::NotFoundError(util::strf("MIG instance ", id));
  }
  return it->second;
}

InstanceId Device::instance_by_uuid(const std::string& uuid) const {
  for (const auto& [id, inst] : instances_) {
    if (inst.uuid == uuid) return id;
  }
  throw util::NotFoundError(util::strf("MIG UUID '", uuid, "' on ", arch_.name));
}

std::vector<InstanceId> Device::instance_ids() const {
  std::vector<InstanceId> out;
  out.reserve(instances_.size());
  for (const auto& [id, inst] : instances_) out.push_back(id);
  return out;
}

int Device::used_compute_slices() const {
  int used = 0;
  for (const auto& [id, inst] : instances_) used += inst.profile.compute_slices;
  return used;
}

int Device::used_mem_slices() const {
  int used = 0;
  for (const auto& [id, inst] : instances_) used += inst.profile.mem_slices;
  return used;
}

util::Duration Device::busy_time() const {
  if (!mig_enabled_) return engine_->busy_time();
  util::Duration total{0};
  for (const auto& [id, inst] : instances_) {
    const double share = static_cast<double>(inst.profile.sms(arch_)) /
                         static_cast<double>(arch_.total_sms);
    total += inst.engine->busy_time() * share;
  }
  return total;
}

double Device::measured_utilization(util::TimePoint from, util::TimePoint to) const {
  if (rec_ == nullptr || to <= from) return 0.0;
  // Weight each envelope by its share of the device's SMs.
  double util_sum = rec_->utilization(lane_, from, to) *
                    (mig_enabled_ ? 0.0 : 1.0);
  for (const auto& [id, inst] : instances_) {
    const double share = static_cast<double>(inst.profile.sms(arch_)) /
                         static_cast<double>(arch_.total_sms);
    util_sum += rec_->utilization(inst.lane, from, to) * share;
  }
  return util_sum;
}

}  // namespace faaspart::gpu
