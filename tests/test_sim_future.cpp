#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/future.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace faaspart::sim {
namespace {

using namespace util::literals;

TEST(Future, ValueDeliveredToAwaiter) {
  Simulator sim;
  Promise<int> p(sim);
  int got = 0;
  sim.spawn([](Future<int> f, int& out) -> Co<void> {
    out = co_await f;
  }(p.future(), got));
  sim.schedule_in(1_s, [p] { p.set_value(7); });
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(Future, AwaitAlreadyCompleted) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(5);
  int got = 0;
  sim.spawn([](Future<int> f, int& out) -> Co<void> {
    out = co_await f;
  }(p.future(), got));
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(Future, MultipleAwaiters) {
  Simulator sim;
  Promise<std::string> p(sim);
  std::vector<std::string> got;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Future<std::string> f, std::vector<std::string>& out) -> Co<void> {
      out.push_back(co_await f);
    }(p.future(), got));
  }
  sim.schedule_in(2_s, [p] { p.set_value("shared"); });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& s : got) EXPECT_EQ(s, "shared");
}

TEST(Future, ExceptionRethrownInAwaiter) {
  Simulator sim;
  Promise<int> p(sim);
  bool caught = false;
  sim.spawn([](Future<int> f, bool& flag) -> Co<void> {
    try {
      (void)co_await f;
    } catch (const util::OutOfMemoryError&) {
      flag = true;
    }
  }(p.future(), caught));
  sim.schedule_in(1_s, [p] {
    p.set_exception(std::make_exception_ptr(util::OutOfMemoryError("test")));
  });
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Future, VoidFuture) {
  Simulator sim;
  Promise<> p(sim);
  bool done = false;
  sim.spawn([](Future<> f, bool& flag) -> Co<void> {
    co_await f;
    flag = true;
  }(p.future(), done));
  sim.schedule_in(3_s, [p] { p.set_value(); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), TimePoint{} + 3_s);
}

TEST(Future, ReadyAndFailedFlags) {
  Simulator sim;
  Promise<int> p(sim);
  auto f = p.future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  p.set_value(1);
  EXPECT_TRUE(f.ready());
  EXPECT_FALSE(f.failed());
  EXPECT_EQ(f.value(), 1);

  Promise<int> q(sim);
  auto g = q.future();
  q.set_exception(std::make_exception_ptr(util::StateError("x")));
  EXPECT_TRUE(g.ready());
  EXPECT_TRUE(g.failed());
  EXPECT_THROW((void)g.value(), util::StateError);
}

TEST(Future, DoubleCompletionRejected) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), util::Error);
  EXPECT_THROW(p.set_exception(std::make_exception_ptr(util::StateError("x"))),
               util::Error);
}

TEST(Future, WhenAllWaitsForLatest) {
  Simulator sim;
  std::vector<Promise<>> promises;
  std::vector<Future<>> futures;
  for (int i = 0; i < 4; ++i) {
    promises.emplace_back(sim);
    futures.push_back(promises.back().future());
  }
  TimePoint done_at{};
  sim.spawn([](Simulator& s, std::vector<Future<>> fs, TimePoint& out) -> Co<void> {
    co_await when_all(std::move(fs));
    out = s.now();
  }(sim, futures, done_at));
  for (int i = 0; i < 4; ++i) {
    sim.schedule_in(util::seconds(i + 1), [p = promises[static_cast<size_t>(i)]] {
      p.set_value();
    });
  }
  sim.run();
  EXPECT_EQ(done_at, TimePoint{} + 4_s);
}

TEST(Future, WhenAllPropagatesFirstError) {
  Simulator sim;
  Promise<> ok(sim);
  Promise<> bad(sim);
  bool caught = false;
  sim.spawn([](std::vector<Future<>> fs, bool& flag) -> Co<void> {
    try {
      co_await when_all(std::move(fs));
    } catch (const util::TaskFailedError&) {
      flag = true;
    }
  }(std::vector<Future<>>{ok.future(), bad.future()}, caught));
  sim.schedule_in(1_s, [bad] {
    bad.set_exception(std::make_exception_ptr(util::TaskFailedError("t")));
  });
  sim.schedule_in(2_s, [ok] { ok.set_value(); });
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Future, AwaitEmptyFutureRejected) {
  Simulator sim;
  Future<int> empty;
  EXPECT_FALSE(empty.valid());
  sim.spawn([](Future<int> f) -> Co<void> {
    EXPECT_THROW((void)co_await f, util::Error);
  }(empty));
  sim.run();
}

}  // namespace
}  // namespace faaspart::sim
