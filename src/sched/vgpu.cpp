#include "sched/vgpu.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/error.hpp"

namespace faaspart::sched {

VgpuEngine::VgpuEngine(gpu::EngineEnv env, VgpuOptions opts)
    : SharingEngine(std::move(env)), opts_(opts) {
  FP_CHECK_MSG(opts_.slots >= 1, "vGPU needs at least one slot");
  FP_CHECK_MSG(opts_.slots <= env_.sms, "more vGPU slots than SMs");
  slot_sms_ = std::max(1, env_.sms / opts_.slots);
  slot_bw_ = env_.bw_peak / opts_.slots;
  slots_.resize(static_cast<std::size_t>(opts_.slots));
}

int VgpuEngine::assign_slot(gpu::ContextId ctx) {
  const auto it = pinned_.find(ctx);
  if (it != pinned_.end()) return it->second;
  const int slot = next_slot_;
  next_slot_ = (next_slot_ + 1) % opts_.slots;
  pinned_.emplace(ctx, slot);
  return slot;
}

void VgpuEngine::submit(gpu::KernelJob job) {
  note_launch();
  const int slot = assign_slot(job.ctx);
  slots_[static_cast<std::size_t>(slot)].queue.push_back(std::move(job));
  if (!slots_[static_cast<std::size_t>(slot)].running) start_next(slot);
}

void VgpuEngine::start_next(int slot) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.queue.empty()) return;
  gpu::KernelJob job = std::move(s.queue.front());
  s.queue.pop_front();

  const gpu::KernelTiming t =
      gpu::kernel_timing(env_.arch, job.kernel, gpu::KernelGrant{slot_sms_});
  const double rate = std::min(t.solo_bw, slot_bw_);
  const util::Duration mem =
      util::from_seconds(static_cast<double>(t.bytes) / rate);
  const util::Duration dur =
      env_.arch.kernel_launch_overhead + std::max(t.compute, mem);

  const util::TimePoint start = env_.sim->now();
  note_running_delta(+1);
  s.running.emplace(Inflight{std::move(job), start, 0});
  s.running->event = env_.sim->schedule_in(dur, [this, slot]() {
    Slot& sl = slots_[static_cast<std::size_t>(slot)];
    Inflight fin = std::move(*sl.running);
    sl.running.reset();
    note_running_delta(-1);
    record_span(fin.job, fin.start, env_.sim->now());
    finish(fin.job);
    start_next(slot);
  });
}

void VgpuEngine::fail_running(Slot& s, std::exception_ptr error) {
  Inflight fin = std::move(*s.running);
  s.running.reset();
  (void)env_.sim->cancel(fin.event);
  note_running_delta(-1);
  finish(fin.job, std::move(error));
}

std::size_t VgpuEngine::abort_all(std::exception_ptr error) {
  std::size_t n = 0;
  for (auto& s : slots_) {
    n += s.queue.size();
    for (const auto& job : s.queue) finish(job, error);
    s.queue.clear();
    if (s.running) {
      fail_running(s, error);
      ++n;
    }
  }
  note_aborts(n);
  return n;
}

std::size_t VgpuEngine::active() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.running ? 1 : 0;
  return n;
}

std::size_t VgpuEngine::queued() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.queue.size();
  return n;
}

gpu::EngineFactory vgpu_factory(VgpuOptions opts) {
  return [opts](gpu::EngineEnv env) -> std::unique_ptr<gpu::SharingEngine> {
    return std::make_unique<VgpuEngine>(std::move(env), opts);
  };
}

}  // namespace faaspart::sched
