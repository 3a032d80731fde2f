#include "sched/mps.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"

namespace faaspart::sched {

int MpsEngine::effective_sms(const gpu::KernelJob& job) const {
  // A client without a cap may use the whole envelope (MPS without
  // percentages), subject to free SMs at admission.
  const int cap = job.sm_cap > 0 ? std::min(job.sm_cap, env_.sms) : env_.sms;
  return std::max(1, std::min(cap, job.kernel.width_sms));
}

void MpsEngine::submit(gpu::KernelJob job) {
  note_launch();
  if (queue_.empty() && sms_in_use_ + effective_sms(job) <= env_.sms) {
    // What try_admit() would do with this job at the head, minus the queue
    // round trip (a deque node every seventh kernel) and a zero throttle.
    admit(std::move(job));
    replan();
    return;
  }
  queue_.push_back(Pending{std::move(job), env_.sim->now()});
  try_admit();
}

void MpsEngine::try_admit() {
  bool admitted = false;
  // FIFO admission: the head waits for SMs; later jobs do not jump it (this
  // mirrors the hardware work scheduler filling SMs in launch order).
  while (!queue_.empty()) {
    const int need = effective_sms(queue_.front().job);
    if (sms_in_use_ + need > env_.sms) break;
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    note_throttle(env_.sim->now() - p.since, p.job.sm_cap);
    admit(std::move(p.job));
    admitted = true;
  }
  if (admitted) replan();
}

void MpsEngine::admit(gpu::KernelJob job) {
  Running r;
  r.sms = effective_sms(job);
  const gpu::KernelTiming t =
      gpu::kernel_timing(env_.arch, job.kernel, gpu::KernelGrant{r.sms});
  const util::TimePoint now = env_.sim->now();
  r.compute_end = now + env_.arch.kernel_launch_overhead + t.compute;
  r.demand = t.solo_bw;
  r.remaining_bytes = static_cast<double>(t.bytes);
  // The memory drain also starts after the launch overhead; last_advance in
  // the future makes replan() hold the bytes until then.
  r.last_advance = now + env_.arch.kernel_launch_overhead;
  r.job = std::move(job);
  sms_in_use_ += r.sms;
  start(r.job);
  r.rid = next_rid_++;
  running_.push_back(std::move(r));
  // replan() (called by try_admit) assigns the rate and completion event.
}

void MpsEngine::replan() {
  const util::TimePoint now = env_.sim->now();

  // 1. Drain bytes at the old rates up to now. A last_advance in the future
  //    means the kernel is still in its launch window — nothing drains yet.
  for (auto& r : running_) {
    if (now <= r.last_advance) continue;
    const double dt = (now - r.last_advance).seconds();
    r.remaining_bytes = std::max(0.0, r.remaining_bytes - r.rate * dt);
    r.last_advance = now;
  }

  // 2. Recompute contended rates.
  double total_demand = 0;
  std::size_t draining = 0;
  for (const auto& r : running_) {
    if (r.remaining_bytes > 0) {
      total_demand += r.demand;
      ++draining;
    }
  }
  const double overload =
      total_demand > env_.bw_peak ? env_.bw_peak / total_demand : 1.0;
  const double interference =
      1.0 / (1.0 + opts_.interference_alpha *
                       static_cast<double>(draining > 0 ? draining - 1 : 0));

  // 3. Reschedule completions.
  for (auto& r : running_) {
    r.rate = std::max(1.0, r.demand * overload * interference);
    util::TimePoint finish = r.compute_end;
    if (r.remaining_bytes > 0) {
      const util::TimePoint drain_from = std::max(now, r.last_advance);
      const util::TimePoint drain_end =
          drain_from + util::from_seconds(r.remaining_bytes / r.rate);
      finish = std::max(finish, drain_end);
    }
    finish = std::max(finish, now);
    if (r.event != 0) env_.sim->cancel(r.event);
    r.event = env_.sim->schedule_at(finish, [this, rid = r.rid] { complete(rid); });
  }
}

void MpsEngine::complete(std::uint64_t rid) {
  const auto it = std::lower_bound(
      running_.begin(), running_.end(), rid,
      [](const Running& r, std::uint64_t id) { return r.rid < id; });
  FP_CHECK(it != running_.end() && it->rid == rid);
  const Running r = std::move(*it);
  running_.erase(it);
  sms_in_use_ -= r.sms;
  finish(r.job);
  // Admission first (freed SMs may admit queued work), then replan picks up
  // both the departure and any admissions in one pass.
  const std::size_t before = running_.size();
  try_admit();
  if (running_.size() == before) replan();  // departure-only: rates improved
}

void MpsEngine::evict(std::size_t i, std::exception_ptr error) {
  const Running r = std::move(running_[i]);
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
  if (r.event != 0) (void)env_.sim->cancel(r.event);
  sms_in_use_ -= r.sms;
  finish(r.job, std::move(error));
}

std::size_t MpsEngine::abort_all(std::exception_ptr error) {
  const std::size_t n = queue_.size() + running_.size();
  for (const auto& p : queue_) fail_queued(p.job, error);
  queue_.clear();
  while (!running_.empty()) evict(0, error);
  return n;
}

gpu::EngineFactory mps_factory(MpsOptions opts) {
  return [opts](gpu::EngineEnv env) -> std::unique_ptr<gpu::SharingEngine> {
    return std::make_unique<MpsEngine>(std::move(env), opts);
  };
}

}  // namespace faaspart::sched
