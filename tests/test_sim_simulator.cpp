#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace faaspart::sim {
namespace {

using namespace util::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now().ns, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(3_s, [&] { order.push_back(3); });
  sim.schedule_in(1_s, [&] { order.push_back(1); });
  sim.schedule_in(2_s, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint{} + 3_s);
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(1_s, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_in(1_s, [&] {
    times.push_back(sim.now().ns);
    sim.schedule_in(1_s, [&] { times.push_back(sim.now().ns); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], (1_s).ns);
  EXPECT_EQ(times[1], (2_s).ns);
}

TEST(Simulator, ScheduleNowRunsAfterQueuedSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(0_s, [&] { order.push_back(1); });
  sim.schedule_now([&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_in(1_s, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  const auto id = sim.schedule_in(1_s, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_in(5_s, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint{} + 1_s, [] {}), util::Error);
  EXPECT_THROW(sim.schedule_in(util::Duration{-1}, [] {}), util::Error);
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int count = 0;
  sim.schedule_in(1_s, [&] { ++count; });
  sim.schedule_in(10_s, [&] { ++count; });
  sim.run_until(TimePoint{} + 5_s);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), TimePoint{} + 5_s);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(5_s, [&] { ran = true; });
  sim.run_until(TimePoint{} + 5_s);
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_in(1_s, [] {});
  sim.schedule_in(2_s, [&] { ran = true; });
  sim.cancel(id);
  sim.run_until(TimePoint{} + 3_s);
  EXPECT_TRUE(ran);
}

TEST(Simulator, ProcessedEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(util::seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.processed_events(), 5u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, NullCallbackRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(1_s, Simulator::Callback{}), util::Error);
}

// -- cancel of pending, retired and unknown ids -------------------------------

TEST(Simulator, CancelEventReportsCancelled) {
  Simulator sim;
  const auto id = sim.schedule_in(1_s, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelOfFiredEventReturnsFalse) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_in(1_s, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  // The slot is fully retired: no stale mapping for the id, and nothing
  // left pending.
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelOfUnknownIdReturnsFalse) {
  Simulator sim;
  // 0 is the "no event" sentinel used across the engines; huge ids name
  // slots that were never allocated.
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(0xdeadbeefdeadbeefull));
  sim.schedule_in(1_s, [] {});
  EXPECT_FALSE(sim.cancel(0));  // slot 0 is live, but generations start at 1
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, StaleIdAfterSlotReuseStaysStale) {
  Simulator sim;
  bool second_ran = false;
  const auto first = sim.schedule_in(1_s, [] {});
  sim.run();  // fires; its slot returns to the free list
  const auto second = sim.schedule_in(1_s, [&] { second_ran = true; });
  EXPECT_NE(first, second);  // generation bump keeps ids distinct
  // Cancelling the fired event's id must not touch the slot's new occupant.
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(second_ran);
}

TEST(Simulator, CancelFiredWeakEventKeepsAccounting) {
  Simulator sim;
  const auto weak = sim.schedule_weak_in(1_s, [] {});
  sim.schedule_in(2_s, [] {});
  sim.run();  // the weak tick fires at 1 s while strong work pends
  EXPECT_FALSE(sim.cancel(weak));
  // A fresh strong event still drains normally (weak counter not corrupted).
  bool ran = false;
  sim.schedule_in(1_s, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

// -- weak events (telemetry sampler ticks) ----------------------------------

TEST(Simulator, WeakEventsAloneDoNotKeepRunAlive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_weak_in(1_s, [&] { ++fired; });
  sim.run();  // drains immediately: only weak work is pending
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now().ns, 0);
}

TEST(Simulator, WeakEventsRunWhileStrongWorkPends) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_weak_in(1_s, [&] { order.push_back(1); });
  sim.schedule_weak_in(3_s, [&] { order.push_back(3); });
  sim.schedule_in(2_s, [&] { order.push_back(2); });
  sim.run();
  // The 1 s weak tick runs (strong work still pending at that point); the
  // 3 s one is beyond the last strong event and never fires.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), TimePoint{} + 2_s);
}

TEST(Simulator, RearmingWeakEventDoesNotSpinForever) {
  Simulator sim;
  int ticks = 0;
  // A self-rearming weak tick — the sampler pattern. Without the weak
  // accounting this would keep run() alive forever.
  std::function<void()> tick = [&] {
    ++ticks;
    sim.schedule_weak_in(1_s, tick);
  };
  sim.schedule_weak_in(1_s, tick);
  sim.schedule_in(5_s, [] {});
  sim.run();
  EXPECT_EQ(ticks, 4);  // t=1..4; the t=5 rearm outlives the strong work
  EXPECT_EQ(sim.now(), TimePoint{} + 5_s);
}

TEST(Simulator, WeakEventsInsideRunUntilHorizonStillFire) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.schedule_weak_in(1_s, tick);
  };
  sim.schedule_weak_in(1_s, tick);
  sim.run_until(TimePoint{} + 3_s + util::milliseconds(500));
  EXPECT_EQ(ticks, 3);  // run_until advances the clock, so ticks fire
  EXPECT_EQ(sim.now(), TimePoint{} + 3_s + util::milliseconds(500));
}

TEST(Simulator, CancelledWeakEventKeepsAccounting) {
  Simulator sim;
  const auto id = sim.schedule_weak_in(1_s, [] { FAIL() << "cancelled"; });
  EXPECT_TRUE(sim.cancel(id));
  sim.schedule_in(2_s, [] {});
  sim.run();  // would throw/hang if weak_events_ went out of sync
  EXPECT_EQ(sim.now(), TimePoint{} + 2_s);
}

// -- same-instant FIFO against a (time, seq) model ----------------------------

/// The plain reference: every event is a (time, seq) pair and the next to
/// fire is the pending minimum. A cancel removes the event iff it is still
/// pending, whatever the simulator has since done with its slot.
class TimeSeqModel {
 public:
  /// Records an event the simulator scheduled as `id`; returns its tag.
  int add(TimePoint t, bool weak, Simulator::EventId id) {
    const int tag = static_cast<int>(events_.size());
    events_.push_back(Event{t, next_seq_++, weak, id, Fate::kPending});
    return tag;
  }

  /// The pending minimum with time <= `horizon`, retired as fired; -1 if
  /// there is none (or, with `strong_only`, only weak events remain).
  int pop(TimePoint horizon, bool strong_only) {
    int best = -1;
    bool strong = false;
    for (int i = 0; i < static_cast<int>(events_.size()); ++i) {
      const Event& e = events_[static_cast<std::size_t>(i)];
      if (e.fate != Fate::kPending) continue;
      strong = strong || !e.weak;
      if (best < 0 || e.t < at(best).t || (e.t == at(best).t && e.seq < at(best).seq)) {
        best = i;
      }
    }
    if (best < 0 || at(best).t > horizon || (strong_only && !strong)) return -1;
    retire(best, Fate::kFired);
    now_ = at(best).t;
    return best;
  }

  bool cancel(int tag) {
    if (at(tag).fate != Fate::kPending) return false;
    retire(tag, Fate::kCancelled);
    return true;
  }

  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& e : events_) n += e.fate == Fate::kPending ? 1 : 0;
    return n;
  }
  [[nodiscard]] bool any_pending_at_or_before(TimePoint t) const {
    for (const auto& e : events_) {
      if (e.fate == Fate::kPending && e.t <= t) return true;
    }
    return false;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] Simulator::EventId id(int tag) { return at(tag).id; }
  [[nodiscard]] TimePoint now() const { return now_; }

 private:
  enum class Fate : std::uint8_t { kPending, kFired, kCancelled };
  struct Event {
    TimePoint t;
    std::uint64_t seq;
    bool weak;
    Simulator::EventId id;
    Fate fate;
  };

  Event& at(int tag) { return events_[static_cast<std::size_t>(tag)]; }
  void retire(int tag, Fate fate) { at(tag).fate = fate; }

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  TimePoint now_{};
};

/// Drives one simulator and the model through the same random schedule:
/// each fired event checks that it is the model's next, then draws a few
/// of schedule_at(now), schedule_in(0), schedule_in(d > 0), weak events and
/// cancels of pending, fired and cancelled ids, comparing every cancel
/// result and the pending count on the way.
class FifoProperty {
 public:
  explicit FifoProperty(std::uint64_t seed) : rng_(seed) {}

  void act() {
    const auto strong = [this](TimePoint t, bool at) {
      const int tag = static_cast<int>(model_.size());
      const auto id = at ? sim_.schedule_at(t, [this, tag] { fire(tag); })
                         : sim_.schedule_in(t - sim_.now(), [this, tag] { fire(tag); });
      model_.add(t, false, id);
    };
    const auto weak = [this](TimePoint t) {
      const int tag = static_cast<int>(model_.size());
      model_.add(t, true, sim_.schedule_weak_in(t - sim_.now(), [this, tag] { fire(tag); }));
    };
    const TimePoint now = sim_.now();
    const TimePoint later = now + util::microseconds(rng_.uniform_int(1, 3));
    switch (rng_.uniform_int(0, 6)) {
      case 0: strong(now, true); break;     // schedule_at(now)
      case 1: strong(now, false); break;    // schedule_in(0)
      case 2: strong(later, false); break;  // schedule_in(d > 0)
      case 3: strong(later, true); break;
      case 4: weak(rng_.chance(0.5) ? now : later); break;
      default: {                            // cancel any id issued so far
        if (model_.size() == 0) break;
        const int tag = static_cast<int>(
            rng_.uniform_int(0, static_cast<std::int64_t>(model_.size()) - 1));
        EXPECT_EQ(sim_.cancel(model_.id(tag)), model_.cancel(tag)) << "tag " << tag;
        break;
      }
    }
    EXPECT_EQ(sim_.pending_events(), model_.pending());
  }

  void fire(int tag) {
    EXPECT_EQ(tag, model_.pop(horizon_, strong_only_)) << "at " << sim_.now().ns;
    EXPECT_EQ(sim_.now(), model_.now());
    const int ops = budget_ > 0 ? static_cast<int>(rng_.uniform_int(0, 3)) : 0;
    for (int i = 0; i < ops; ++i, --budget_) act();
  }

  void run() {
    for (int i = 0; i < 12; ++i) act();
    // A bounded window runs weak events too, stops at exactly the horizon
    // and leaves nothing due at or before it.
    horizon_ = TimePoint{} + util::microseconds(4);
    strong_only_ = false;
    sim_.run_until(horizon_);
    EXPECT_EQ(model_.pop(horizon_, false), -1);
    EXPECT_EQ(sim_.now(), horizon_);
    EXPECT_FALSE(model_.any_pending_at_or_before(horizon_));
    EXPECT_EQ(sim_.pending_events(), model_.pending());
    // Same-instant work scheduled after the window still lands in order.
    for (int i = 0; i < 6; ++i) act();
    horizon_ = TimePoint{INT64_MAX};
    strong_only_ = true;
    sim_.run();
    EXPECT_EQ(model_.pop(horizon_, true), -1);
    EXPECT_EQ(sim_.pending_events(), model_.pending());
  }

 private:
  util::Rng rng_;
  Simulator sim_;
  TimeSeqModel model_;
  int budget_ = 400;
  TimePoint horizon_{};
  bool strong_only_ = false;
};

TEST(Simulator, SameInstantFifoMatchesTimeSeqModel) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    FifoProperty(seed).run();
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace faaspart::sim
