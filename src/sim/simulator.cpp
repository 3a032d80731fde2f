#include "sim/simulator.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace faaspart::sim {

void DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  FP_CHECK_MSG(d.ns >= 0, "negative delay");
  sim.schedule_in(d, [h] { h.resume(); });
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != EventHeap::kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

Simulator::Callback Simulator::retire_slot(std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  s.pending = false;
  if (s.weak) --weak_events_;
  s.weak = false;
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_events_;
  return cb;
}

Simulator::EventId Simulator::schedule_impl(TimePoint t, Callback cb,
                                            bool weak) {
  FP_CHECK_MSG(t >= now_, "event scheduled in the past");
  FP_CHECK_MSG(static_cast<bool>(cb), "null event callback");
  const std::uint32_t slot = acquire_slot();
  EventSlot& s = slots_[slot];
  const EventId id = (static_cast<EventId>(s.gen) << 32) | slot;
  s.cb = std::move(cb);
  s.pending = true;
  s.weak = weak;
  if (t == now_) {
    now_fifo_.push_back(id);
  } else {
    heap_.push(t, next_seq_++, slot);
  }
  ++live_events_;
  if (weak) ++weak_events_;
  return id;
}

Simulator::EventId Simulator::schedule_at(TimePoint t, Callback cb) {
  return schedule_impl(t, std::move(cb), /*weak=*/false);
}

Simulator::EventId Simulator::schedule_in(Duration d, Callback cb) {
  FP_CHECK_MSG(d.ns >= 0, "negative delay");
  return schedule_impl(now_ + d, std::move(cb), /*weak=*/false);
}

Simulator::EventId Simulator::schedule_weak_in(Duration d, Callback cb) {
  FP_CHECK_MSG(d.ns >= 0, "negative delay");
  return schedule_impl(now_ + d, std::move(cb), /*weak=*/true);
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  // A retired id's generation is behind its slot's, so it never matches.
  if (slot >= slots_.size() || !slots_[slot].pending ||
      slots_[slot].gen != gen_of(id)) {
    return false;
  }
  (void)heap_.erase(slot);  // O(log n), no tombstone; FIFO entries go stale
  (void)retire_slot(slot);
  return true;
}

bool Simulator::step() { return step_impl(/*run_weak_only=*/false); }

bool Simulator::now_fifo_live() {
  while (now_head_ < now_fifo_.size()) {
    const EventId id = now_fifo_[now_head_];
    if (slots_[slot_of(id)].gen == gen_of(id)) return true;
    ++now_head_;  // cancelled after it was queued
  }
  now_fifo_.clear();
  now_head_ = 0;
  return false;
}

bool Simulator::step_impl(bool run_weak_only) {
  if (live_events_ == 0) return false;
  // With nothing but weak observers pending, the simulation is done:
  // samplers would tick forever against a finished workload.
  if (!run_weak_only && live_events_ == weak_events_) return false;
  std::uint32_t slot = 0;
  if (!heap_.empty() && heap_.top().t == now_) {
    slot = heap_.pop();  // scheduled before the clock reached now_
  } else if (now_fifo_live()) {
    slot = slot_of(now_fifo_[now_head_++]);
  } else {
    FP_CHECK(heap_.top().t > now_);
    now_ = heap_.top().t;
    slot = heap_.pop();
  }
  Callback cb = retire_slot(slot);
  ++processed_;
  cb();
  return true;
}

void Simulator::run() {
  // A process may have failed synchronously (before its first suspension),
  // leaving nothing in the queue — surface that too.
  rethrow_failure_if_any();
  while (step()) rethrow_failure_if_any();
}

void Simulator::run_until(TimePoint t) {
  FP_CHECK_MSG(t >= now_, "run_until into the past");
  rethrow_failure_if_any();
  // The heap holds no cancelled entries, so its head is always a real event;
  // the FIFO is drained to live entries first, and so ends the loop empty.
  while (now_fifo_live() || (!heap_.empty() && heap_.top().t <= t)) {
    // Weak events inside the horizon still run: a bounded run_until() is a
    // live observation window, not a drain.
    step_impl(/*run_weak_only=*/true);
    rethrow_failure_if_any();
  }
  now_ = t;
}

void Simulator::rethrow_failure_if_any() {
  // Each failure is rethrown exactly once; all stay inspectable via
  // failures().
  if (next_failure_to_rethrow_ >= failures_.size()) return;
  const std::size_t i = next_failure_to_rethrow_++;
  std::rethrow_exception(failures_[i].error);
}

// The root driver, a friend of the Simulator: it runs the top-level
// Co<void>, funnels escaped exceptions into the simulator's failure list,
// and asks to be reaped when done.
struct RootDriver {
  /// Appends the awaiting frame's link to the root list without suspending.
  struct Enlist {
    Simulator::RootLink& link;
    Simulator::RootLink& roots;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> frame) const noexcept {
      link.frame = frame;
      link.prev = roots.prev;
      link.next = &roots;
      roots.prev->next = &link;
      roots.prev = &link;
      return false;
    }
    void await_resume() const noexcept {}
  };

  static Co<void> run(Simulator* sim, Co<void> proc, std::string name) {
    Simulator::RootLink link;
    co_await Enlist{link, sim->roots_};
    ++sim->live_processes_;
    try {
      co_await std::move(proc);
    } catch (...) {
      FP_LOG_DEBUG("process '" << name << "' terminated with exception");
      sim->failures_.push_back({std::move(name), std::current_exception()});
    }
    --sim->live_processes_;
    // Deferred: the frame is still running. It parks below until the
    // scheduled event destroys it, or ~Simulator does first; either way its
    // link leaves the list with it.
    sim->schedule_now([frame = link.frame] { frame.destroy(); });
    co_await std::suspend_always{};
  }
};

void Simulator::spawn(Co<void> proc, std::string name) {
  FP_CHECK_MSG(proc.valid(), "spawn of empty Co<void>");
  // The root frame enlists itself in roots_, which owns it from then on,
  // and runs synchronously to its first suspension.
  RootDriver::run(this, std::move(proc), std::move(name)).release().resume();
}

Simulator::~Simulator() {
  // Destroy still-suspended process chains. Their frame destructors may
  // interact with sync primitives (releasing leases, waking waiters) — the
  // wakeups land in the queue and are simply never run.
  while (roots_.next != &roots_) roots_.next->frame.destroy();
}

}  // namespace faaspart::sim
