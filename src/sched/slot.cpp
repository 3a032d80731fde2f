#include "sched/slot.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace faaspart::sched {

namespace {

class SlotEngine final : public gpu::SharingEngine {
 public:
  /// `slots` homogeneous slots; a kernel whose client differs from the last
  /// one its slot ran is charged `switch_cost` first.
  SlotEngine(gpu::EngineEnv env, const char* policy, int slots,
             util::Duration switch_cost)
      : SharingEngine(std::move(env)), policy_(policy), switch_cost_(switch_cost) {
    FP_CHECK_MSG(slots >= 1, "vGPU needs at least one slot");
    FP_CHECK_MSG(slots <= env_.sms, "more vGPU slots than SMs");
    slot_sms_ = std::max(1, env_.sms / slots);
    slot_bw_ = env_.bw_peak / slots;
    slots_.resize(static_cast<std::size_t>(slots));
  }

  [[nodiscard]] const char* policy_name() const override { return policy_; }

  void submit(gpu::KernelJob job) override {
    note_launch();
    Slot& s = slot_for(job.ctx);
    if (s.running) {
      s.queue.push_back(std::move(job));
      return;
    }
    // An idle slot has an empty queue (the event that ends a job starts the
    // next queued one), so the job starts here without a queue round trip.
    run(s, std::move(job));
  }

  [[nodiscard]] std::size_t active() const override {
    std::size_t n = 0;
    for (const auto& s : slots_) n += s.running ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::size_t queued() const override {
    std::size_t n = 0;
    for (const auto& s : slots_) n += s.queue.size();
    return n;
  }

  std::size_t abort_all(std::exception_ptr error) override {
    std::size_t n = 0;
    for (auto& s : slots_) {
      n += s.queue.size();
      for (const auto& job : s.queue) fail_queued(job, error);
      s.queue.clear();
      if (s.running) {
        (void)env_.sim->cancel(s.event);
        const gpu::KernelJob job = std::move(*s.running);
        s.running.reset();
        finish(job, error);
        ++n;
      }
    }
    return n;
  }

 private:
  struct Slot {
    /// FIFO of jobs waiting for the slot. The Device holds a context's later
    /// launches in its stream queue, so at most one job per client waits
    /// here: popping the front moves a few jobs, and the vector reuses its
    /// storage where a deque would allocate a node every eighth kernel.
    std::vector<gpu::KernelJob> queue;
    /// The kernel executing, with its completion event so abort paths can
    /// cancel it.
    std::optional<gpu::KernelJob> running;
    sim::Simulator::EventId event = 0;
    std::optional<gpu::ContextId> last_ctx;  ///< client of the last kernel run
  };

  /// A lone slot serves every client; with more, a context keeps the slot
  /// it was dealt round robin on its first kernel.
  Slot& slot_for(gpu::ContextId ctx) {
    if (slots_.size() == 1) return slots_.front();
    const auto [it, fresh] = pinned_.try_emplace(ctx, next_slot_);
    if (fresh) next_slot_ = (next_slot_ + 1) % slots_.size();
    return slots_[it->second];
  }

  void start_next(Slot& s) {
    if (s.queue.empty()) return;
    gpu::KernelJob job = std::move(s.queue.front());
    s.queue.erase(s.queue.begin());
    run(s, std::move(job));
  }

  /// Starts `next` on the idle slot `s`.
  void run(Slot& s, gpu::KernelJob next) {
    gpu::KernelJob& job = s.running.emplace(std::move(next));

    // Exclusive access to the slot, limited only by the kernel's own
    // saturation width.
    const gpu::KernelTiming t =
        gpu::kernel_timing(env_.arch, job.kernel, gpu::KernelGrant{slot_sms_});
    const double rate = std::min(t.solo_bw, slot_bw_);
    const util::Duration mem =
        util::from_seconds(static_cast<double>(t.bytes) / rate);
    util::Duration dur = env_.arch.kernel_launch_overhead + std::max(t.compute, mem);
    if (s.last_ctx.has_value() && *s.last_ctx != job.ctx) dur += switch_cost_;
    s.last_ctx = job.ctx;

    start(job);
    s.event = env_.sim->schedule_in(dur, [this, &s] {
      const gpu::KernelJob done = std::move(*s.running);
      s.running.reset();
      finish(done);
      start_next(s);
    });
  }

  const char* policy_;
  util::Duration switch_cost_;
  int slot_sms_ = 0;
  double slot_bw_ = 0;
  std::vector<Slot> slots_;  ///< never resized, so a Slot& stays valid
  std::map<gpu::ContextId, std::size_t> pinned_;  ///< with more than one slot
  std::size_t next_slot_ = 0;
};

}  // namespace

gpu::EngineFactory timeshare_factory() {
  return [](gpu::EngineEnv env) -> std::unique_ptr<gpu::SharingEngine> {
    const util::Duration switch_cost = env.arch.context_switch;
    return std::make_unique<SlotEngine>(std::move(env), "timeshare", 1, switch_cost);
  };
}

gpu::EngineFactory vgpu_factory(VgpuOptions opts) {
  return [opts](gpu::EngineEnv env) -> std::unique_ptr<gpu::SharingEngine> {
    return std::make_unique<SlotEngine>(std::move(env), "vgpu", opts.slots,
                                        util::Duration{0});
  };
}

}  // namespace faaspart::sched
