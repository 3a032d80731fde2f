#include "sched/timeshare.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace faaspart::sched {

void TimeShareEngine::submit(gpu::KernelJob job) {
  note_launch();
  queue_.push_back(std::move(job));
  if (!inflight_) start_next();
}

void TimeShareEngine::start_next() {
  if (queue_.empty()) return;
  gpu::KernelJob job = std::move(queue_.front());
  queue_.pop_front();

  util::Duration switch_cost{0};
  if (have_last_ && job.ctx != last_ctx_) switch_cost = env_.arch.context_switch;
  last_ctx_ = job.ctx;
  have_last_ = true;

  // Exclusive access: the kernel gets the whole envelope (time-sharing does
  // not enforce MPS-style caps), limited only by its own saturation width.
  const gpu::KernelTiming t =
      gpu::kernel_timing(env_.arch, job.kernel, gpu::KernelGrant{env_.sms});
  const double rate = std::min(t.solo_bw, env_.bw_peak);
  const util::Duration mem =
      util::from_seconds(static_cast<double>(t.bytes) / rate);
  const util::Duration dur =
      switch_cost + env_.arch.kernel_launch_overhead + std::max(t.compute, mem);

  const util::TimePoint start = env_.sim->now();
  note_running_delta(+1);
  inflight_.emplace(Inflight{std::move(job), start, 0});
  inflight_->event = env_.sim->schedule_in(dur, [this]() {
    Inflight fin = std::move(*inflight_);
    inflight_.reset();
    note_running_delta(-1);
    record_span(fin.job, fin.start, env_.sim->now());
    finish(fin.job);
    start_next();
  });
}

void TimeShareEngine::fail_inflight(std::exception_ptr error) {
  Inflight fin = std::move(*inflight_);
  inflight_.reset();
  (void)env_.sim->cancel(fin.event);
  note_running_delta(-1);
  finish(fin.job, std::move(error));
}

std::size_t TimeShareEngine::abort_all(std::exception_ptr error) {
  std::size_t n = queue_.size();
  for (const auto& job : queue_) finish(job, error);
  queue_.clear();
  if (inflight_) {
    fail_inflight(error);
    ++n;
  }
  note_aborts(n);
  return n;
}

gpu::EngineFactory timeshare_factory() {
  return [](gpu::EngineEnv env) -> std::unique_ptr<gpu::SharingEngine> {
    return std::make_unique<TimeShareEngine>(std::move(env));
  };
}

}  // namespace faaspart::sched
