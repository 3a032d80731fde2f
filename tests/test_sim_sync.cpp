#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sync.hpp"
#include "util/error.hpp"

namespace faaspart::sim {
namespace {

using namespace util::literals;

// --------------------------------------------------------------------------
// Resource
// --------------------------------------------------------------------------

TEST(Resource, ImmediateAcquireWhenFree) {
  Simulator sim;
  Resource cores(sim, 4, "cpu");
  bool got = false;
  sim.spawn([](Resource& r, bool& flag) -> Co<void> {
    auto lease = co_await r.acquire(2);
    flag = true;
    EXPECT_EQ(r.available(), 2);
  }(cores, got));
  sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(cores.available(), 4);  // lease released at scope exit
}

TEST(Resource, WaitsUntilReleased) {
  Simulator sim;
  Resource r(sim, 1);
  std::vector<std::int64_t> acquire_times;

  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, Resource& res, std::vector<std::int64_t>& ts) -> Co<void> {
      auto lease = co_await res.acquire(1);
      ts.push_back(s.now().ns);
      co_await s.delay(10_s);
    }(sim, r, acquire_times));
  }
  sim.run();
  ASSERT_EQ(acquire_times.size(), 3u);
  EXPECT_EQ(acquire_times[0], 0);
  EXPECT_EQ(acquire_times[1], (10_s).ns);
  EXPECT_EQ(acquire_times[2], (20_s).ns);
}

TEST(Resource, FifoNoStarvationOfLargeRequest) {
  Simulator sim;
  Resource r(sim, 4);
  std::vector<std::string> order;

  // Holder takes 3 units until t=5s.
  sim.spawn([](Simulator& s, Resource& res) -> Co<void> {
    auto lease = co_await res.acquire(3);
    co_await s.delay(5_s);
  }(sim, r));

  // Big request (4 units) queued first; small (1 unit) would fit now but
  // must not overtake the queued big request.
  sim.spawn([](Simulator& s, Resource& res, std::vector<std::string>& ord) -> Co<void> {
    co_await s.delay(1_s);
    auto lease = co_await res.acquire(4);
    ord.push_back("big");
    co_await s.delay(1_s);
  }(sim, r, order));
  sim.spawn([](Simulator& s, Resource& res, std::vector<std::string>& ord) -> Co<void> {
    co_await s.delay(2_s);
    auto lease = co_await res.acquire(1);
    ord.push_back("small");
  }(sim, r, order));

  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "big");
  EXPECT_EQ(order[1], "small");
}

TEST(Resource, TryAcquire) {
  Simulator sim;
  Resource r(sim, 2);
  auto a = r.try_acquire(2);
  EXPECT_TRUE(a.held());
  auto b = r.try_acquire(1);
  EXPECT_FALSE(b.held());
  a.release();
  auto c = r.try_acquire(1);
  EXPECT_TRUE(c.held());
}

TEST(Resource, LeaseMoveTransfersOwnership) {
  Simulator sim;
  Resource r(sim, 2);
  {
    auto a = r.try_acquire(2);
    ResourceLease b = std::move(a);
    EXPECT_FALSE(a.held());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.held());
    EXPECT_EQ(r.available(), 0);
  }
  EXPECT_EQ(r.available(), 2);
}

TEST(Resource, ExplicitReleaseIsIdempotent) {
  Simulator sim;
  Resource r(sim, 1);
  auto lease = r.try_acquire(1);
  lease.release();
  lease.release();
  EXPECT_EQ(r.available(), 1);
}

TEST(Resource, OverCapacityRequestRejected) {
  Simulator sim;
  Resource r(sim, 2);
  sim.spawn([](Resource& res) -> Co<void> {
    EXPECT_THROW((void)co_await res.acquire(3), util::Error);
    co_return;
  }(r));
  sim.run();
}

TEST(Resource, QueueLengthVisible) {
  Simulator sim;
  Resource r(sim, 1);
  sim.spawn([](Simulator& s, Resource& res) -> Co<void> {
    auto lease = co_await res.acquire(1);
    co_await s.delay(10_s);
  }(sim, r));
  sim.spawn([](Resource& res) -> Co<void> {
    auto lease = co_await res.acquire(1);
  }(r));
  sim.run_until(TimePoint{} + 1_s);
  EXPECT_EQ(r.queue_length(), 1u);
  sim.run();
  EXPECT_EQ(r.queue_length(), 0u);
}

// --------------------------------------------------------------------------
// Mailbox
// --------------------------------------------------------------------------

TEST(Mailbox, PutThenGet) {
  Simulator sim;
  Mailbox<int> mb(sim);
  mb.put(1);
  mb.put(2);
  std::vector<int> got;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& out) -> Co<void> {
    out.push_back(co_await m.get());
    out.push_back(co_await m.get());
  }(mb, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Mailbox, GetBlocksUntilPut) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::int64_t got_at = -1;
  sim.spawn([](Simulator& s, Mailbox<int>& m, std::int64_t& t) -> Co<void> {
    (void)co_await m.get();
    t = s.now().ns;
  }(sim, mb, got_at));
  sim.schedule_in(4_s, [&] { mb.put(99); });
  sim.run();
  EXPECT_EQ(got_at, (4_s).ns);
}

TEST(Mailbox, MultipleConsumersEachGetOne) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Mailbox<int>& m, std::vector<int>& out) -> Co<void> {
      out.push_back(co_await m.get());
    }(mb, got));
  }
  sim.schedule_in(1_s, [&] {
    mb.put(10);
    mb.put(20);
    mb.put(30);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0] + got[1] + got[2], 60);
}

TEST(Mailbox, TryGet) {
  Simulator sim;
  Mailbox<int> mb(sim);
  int out = 0;
  EXPECT_FALSE(mb.try_get(out));
  mb.put(5);
  EXPECT_TRUE(mb.try_get(out));
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, CloseDrainsThenThrows) {
  Simulator sim;
  Mailbox<int> mb(sim);
  mb.put(1);
  mb.close();
  std::vector<int> got;
  bool threw = false;
  sim.spawn([](Mailbox<int>& m, std::vector<int>& out, bool& flag) -> Co<void> {
    out.push_back(co_await m.get());  // drains queued item
    try {
      (void)co_await m.get();
    } catch (const util::StateError&) {
      flag = true;
    }
  }(mb, got, threw));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1}));
  EXPECT_TRUE(threw);
}

TEST(Mailbox, CloseWakesBlockedConsumer) {
  Simulator sim;
  Mailbox<int> mb(sim);
  bool threw = false;
  sim.spawn([](Mailbox<int>& m, bool& flag) -> Co<void> {
    try {
      (void)co_await m.get();
    } catch (const util::StateError&) {
      flag = true;
    }
  }(mb, threw));
  sim.schedule_in(1_s, [&] { mb.close(); });
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(Mailbox, PutAfterCloseRejected) {
  Simulator sim;
  Mailbox<int> mb(sim);
  mb.close();
  EXPECT_THROW(mb.put(1), util::Error);
}

// --------------------------------------------------------------------------
// Gate
// --------------------------------------------------------------------------

TEST(Gate, OpenReleasesAllWaiters) {
  Simulator sim;
  Gate gate(sim);
  int released = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Gate& g, int& count) -> Co<void> {
      co_await g.wait();
      ++count;
    }(gate, released));
  }
  sim.run_until(TimePoint{} + 1_s);
  EXPECT_EQ(released, 0);
  EXPECT_EQ(gate.waiting(), 5u);
  gate.open();
  sim.run();
  EXPECT_EQ(released, 5);
}

TEST(Gate, OpenGatePassesImmediately) {
  Simulator sim;
  Gate gate(sim, /*open=*/true);
  bool passed = false;
  sim.spawn([](Gate& g, bool& flag) -> Co<void> {
    co_await g.wait();
    flag = true;
  }(gate, passed));
  // No events needed — passes synchronously at spawn.
  EXPECT_TRUE(passed);
}

TEST(Gate, CloseReArms) {
  Simulator sim;
  Gate gate(sim, /*open=*/true);
  gate.close();
  bool passed = false;
  sim.spawn([](Gate& g, bool& flag) -> Co<void> {
    co_await g.wait();
    flag = true;
  }(gate, passed));
  sim.run();
  EXPECT_FALSE(passed);
  gate.open();
  sim.run();
  EXPECT_TRUE(passed);
}

}  // namespace
}  // namespace faaspart::sim
