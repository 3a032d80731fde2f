// The discrete-event simulation core.
//
// A Simulator owns a virtual clock and an event queue ordered by
// (time, insertion sequence): events at equal timestamps run in FIFO order,
// which makes every run bit-for-bit deterministic. All higher layers — GPU
// sharing engines, the FaaS executor, workload processes — advance time only
// through this queue.
//
// Two programming styles are supported and freely mixed:
//   * callback events  — schedule_in()/schedule_at()/cancel(), used by the
//     sharing engines that need to re-plan in-flight work;
//   * coroutine processes — Co<void> chains rooted at spawn(), used by
//     workloads and the FaaS runtime, suspending on delay() and Futures.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/co.hpp"
#include "sim/event_heap.hpp"
#include "util/units.hpp"

namespace faaspart::faults {
class FaultInjector;
}  // namespace faaspart::faults

namespace faaspart::obs {
class Telemetry;
}  // namespace faaspart::obs

namespace faaspart::sim {

using util::Duration;
using util::TimePoint;

class Simulator;

/// Awaitable returned by Simulator::delay().
struct DelayAwaiter {
  Simulator& sim;
  Duration d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

// NOTE (GCC 12.x): do not build non-trivially-destructible *braced-init*
// temporaries inside a co_await expression, e.g.
//     co_await ctx.launch(gpu::KernelDesc{...});   // miscompiled by GCC 12
// GCC 12 fails to place such temporaries in the coroutine frame, so their
// destructor runs on reused stack memory after resumption (heap corruption).
// Bind them to a named local first:
//     gpu::KernelDesc k{...};
//     co_await ctx.launch(k);
// Function-return temporaries and lvalue copies are unaffected.
class Simulator {
 public:
  using EventId = std::uint64_t;
  using Callback = std::function<void()>;

  Simulator() { roots_.prev = roots_.next = &roots_; }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Destroys still-suspended spawned processes (their frames cascade down
  /// the await chain), so a torn-down simulation leaks nothing.
  ~Simulator();

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `t` (must be >= now).
  EventId schedule_at(TimePoint t, Callback cb);

  /// Schedules `cb` after a non-negative delay.
  EventId schedule_in(Duration d, Callback cb);

  /// Schedules `cb` at the current instant, after already-queued events with
  /// the same timestamp.
  EventId schedule_now(Callback cb) { return schedule_in(Duration{0}, std::move(cb)); }

  /// Schedules a *weak* (observer) event after a non-negative delay. Weak
  /// events run in timestamp order like any other event while regular work
  /// remains, but do not keep the simulation alive: run() returns once only
  /// weak events are pending. Periodic samplers use these so instrumentation
  /// can tick forever without stalling queue drain — the in-sim analogue of
  /// a monitoring daemon that dies with the workload.
  EventId schedule_weak_in(Duration d, Callback cb);

  /// Cancels a pending event; true iff it was pending and is now removed.
  /// Cancelling is idempotent: an id that already fired, was cancelled, or
  /// was never issued changes nothing — not even its slot's next occupant.
  bool cancel(EventId id);

  /// Runs the next event. Returns false when the queue is empty or only weak
  /// events remain.
  bool step();

  /// Runs until the queue drains. Rethrows the first exception that escaped
  /// a spawned process.
  void run();

  /// Runs all events with time <= t, then advances the clock to exactly t.
  void run_until(TimePoint t);

  /// Starts a detached simulation process at the current instant. The
  /// process runs synchronously until its first suspension point. An
  /// exception escaping the process is recorded and rethrown from run().
  void spawn(Co<void> proc, std::string name = "process");

  /// Suspends the awaiting coroutine for `d` of virtual time.
  [[nodiscard]] DelayAwaiter delay(Duration d) { return DelayAwaiter{*this, d}; }

  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }
  [[nodiscard]] std::size_t live_processes() const { return live_processes_; }

  struct ProcessFailure {
    std::string name;
    std::exception_ptr error;
  };
  [[nodiscard]] const std::vector<ProcessFailure>& failures() const { return failures_; }

  /// Optional fault-injection layer. faults::FaultInjector installs itself
  /// here on construction and uninstalls on destruction; consumers (Device,
  /// executors, endpoints) do a single null check, so a run without faults
  /// pays nothing.
  void install_faults(faults::FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] faults::FaultInjector* faults() const { return faults_; }

  /// Optional telemetry layer, mirroring the fault hook: obs::Telemetry
  /// installs itself on construction and uninstalls on destruction.
  /// Instrumentation sites null-check once, so an uninstrumented run pays a
  /// single pointer load.
  void install_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  [[nodiscard]] obs::Telemetry* telemetry() const { return telemetry_; }

 private:
  // Pending events live in a slab of slots; the indexed 4-ary EventHeap
  // orders the pending slots by (time, seq), except those scheduled for
  // now(), which queue in `now_fifo_` instead. Every heap entry at now_ was
  // scheduled before the clock reached now_, so its seq is below that of
  // every FIFO entry: step() runs the heap's entries at now_, then the
  // FIFO, and only then advances the clock — exact (time, seq) order without
  // a heap push and pop per same-instant event. A cancel leaves its FIFO
  // entry behind, stale by generation and skipped when reached. An EventId encodes
  // (generation << 32 | slot): a slot's generation bumps every time the
  // event in it retires (fires or is cancelled), so stale ids can never
  // touch the slot's next occupant. Generations start at 1 so no valid id
  // is ever 0 — callers use 0 as a "no event" sentinel. Compared with the
  // old priority_queue + unordered_map design this removes the per-event
  // hash-map node allocation, the hash lookups on the pop path, and the
  // tombstones cancels used to leave in the queue.
  struct EventSlot {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t next_free = EventHeap::kNpos;
    bool pending = false;
    bool weak = false;
  };

  /// A spawned process's entry in `roots_`. It lives in the process's root
  /// frame, so spawning allocates no list node, and it unlinks itself when
  /// that frame is destroyed.
  struct RootLink {
    RootLink* prev = nullptr;
    RootLink* next = nullptr;
    std::coroutine_handle<> frame;

    RootLink() = default;
    RootLink(const RootLink&) = delete;
    RootLink& operator=(const RootLink&) = delete;
    ~RootLink() {
      if (prev != nullptr) {
        prev->next = next;
        next->prev = prev;
      }
    }
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  EventId schedule_impl(TimePoint t, Callback cb, bool weak);
  /// Drops stale entries at the FIFO's head; true if a live one remains.
  bool now_fifo_live();
  std::uint32_t acquire_slot();
  /// Marks `slot` retired (generation bump + free-list push) and returns
  /// its callback for the caller to run or drop.
  Callback retire_slot(std::uint32_t slot);
  bool step_impl(bool run_weak_only);
  void rethrow_failure_if_any();
  friend struct RootDriver;  // defined in simulator.cpp

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_events_ = 0;  // scheduled and not yet run/cancelled
  std::size_t weak_events_ = 0;  // subset of live_events_ that is weak
  std::size_t live_processes_ = 0;
  EventHeap heap_;
  // Drained before the clock moves, so it holds one instant's events; it
  // resets to empty, keeping its capacity, whenever it drains.
  std::vector<EventId> now_fifo_;
  std::size_t now_head_ = 0;
  std::vector<EventSlot> slots_;
  std::uint32_t free_head_ = EventHeap::kNpos;
  std::vector<ProcessFailure> failures_;
  std::size_t next_failure_to_rethrow_ = 0;

  // Root coroutine frames, owned by the simulator: reaped right after a
  // process finishes, destroyed wholesale (suspended mid-chain or not) when
  // the simulator goes away. A circular list through this sentinel, in
  // spawn order: the destructor walks it, and frame destructors can run
  // user code, so teardown must happen in spawn order (rule D2).
  RootLink roots_;

  faults::FaultInjector* faults_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace faaspart::sim
