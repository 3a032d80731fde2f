// Direct tests for the workloads/serving request generators: Poisson
// open-loop determinism, closed-loop split fairness, and the failure
// accounting the closed loop folds as its tasks settle.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "faas/dfk.hpp"
#include "faas/executor.hpp"
#include "faas/provider.hpp"
#include "workloads/serving.hpp"

namespace faaspart::workloads {
namespace {

using namespace util::literals;

std::vector<util::TimePoint> poisson_submit_times(std::uint64_t seed,
                                                  double rate_hz,
                                                  util::Duration window) {
  sim::Simulator sim;
  auto times = std::make_shared<std::vector<util::TimePoint>>();
  spawn_open_loop_fn(sim, rate_hz, window, seed,
                     [&sim, times] { times->push_back(sim.now()); });
  sim.run();
  return *times;
}

TEST(ServingOpenLoop, SameSeedSameSubmitTimes) {
  const auto a = poisson_submit_times(42, 20.0, 30_s);
  const auto b = poisson_submit_times(42, 20.0, 30_s);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ServingOpenLoop, DifferentSeedsDiverge) {
  const auto a = poisson_submit_times(1, 20.0, 30_s);
  const auto b = poisson_submit_times(2, 20.0, 30_s);
  EXPECT_NE(a, b);
}

TEST(ServingOpenLoop, ArrivalsStayInsideTheWindowAtRoughlyTheRate) {
  const double rate = 50.0;
  const auto window = 60_s;
  const auto times = poisson_submit_times(7, rate, window);
  for (const auto t : times) EXPECT_LT(t, util::TimePoint{} + window);
  // Poisson(50/s * 60 s) = 3000 expected; 5 sigma is ~±275.
  EXPECT_NEAR(static_cast<double>(times.size()), rate * window.seconds(), 300);
}

TEST(ServingSplit, EvenSplitIsFairAndExhaustive) {
  const auto shares = split_evenly(10, 3);
  EXPECT_EQ(shares, (std::vector<int>{4, 3, 3}));
  for (const int total : {1, 7, 24, 100, 101}) {
    for (const int parts : {1, 2, 3, 7, 24}) {
      if (total < parts) continue;
      const auto s = split_evenly(total, parts);
      EXPECT_EQ(std::accumulate(s.begin(), s.end(), 0), total);
      const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
      EXPECT_LE(*hi - *lo, 1) << total << "/" << parts;
    }
  }
}

TEST(ServingSplit, RejectsZeroParts) {
  EXPECT_THROW((void)split_evenly(4, 0), util::Error);
}

struct ServingDfkFixture : ::testing::Test {
  sim::Simulator sim;
  faas::LocalProvider provider{sim, 8};
  faas::DataFlowKernel dfk{sim, faas::Config{}};

  void SetUp() override {
    faas::HighThroughputExecutor::Options opts;
    opts.label = "cpu";
    opts.cpu_workers = 4;
    auto ex = std::make_unique<faas::HighThroughputExecutor>(
        sim, provider, std::move(opts), nullptr, nullptr);
    ex->start();
    dfk.add_executor(std::move(ex));
  }

  static faas::AppDef compute_app(const std::string& name, util::Duration d) {
    faas::AppDef app;
    app.name = name;
    app.body = [d](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      co_await ctx.compute(d);
      co_return faas::AppValue{1.0};
    };
    return app;
  }
};

TEST_F(ServingDfkFixture, ClosedLoopBatchRunsEveryTask) {
  auto out = std::make_shared<BatchRunResult>();
  spawn_closed_loop_batch(sim, dfk, "cpu", compute_app("work", 100_ms),
                          /*clients=*/3, /*total_tasks=*/10, out);
  sim.run();
  EXPECT_EQ(out->tasks, 10u);
  EXPECT_EQ(out->failures, 0u);
  EXPECT_EQ(out->latency.count, 10u);
  EXPECT_NEAR(out->latency.mean, 0.1, 1e-6);
  EXPECT_GT(out->throughput(), 0.0);
}

TEST_F(ServingDfkFixture, ClosedLoopBatchCountsFailuresSeparately) {
  // Every third invocation throws; with retries off each is a failed task.
  auto calls = std::make_shared<int>(0);
  faas::AppDef app;
  app.name = "sometimes";
  app.body = [calls](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    if (++*calls % 3 == 0) throw util::TaskFailedError("boom");
    co_await ctx.compute(50_ms);
    co_return faas::AppValue{1.0};
  };
  auto out = std::make_shared<BatchRunResult>();
  spawn_closed_loop_batch(sim, dfk, "cpu", app, /*clients=*/1, /*total_tasks=*/5, out);
  sim.run();
  EXPECT_EQ(out->tasks, 5u);
  EXPECT_EQ(out->failures, 1u);
  // Failed tasks contribute to the failure count only — not to latency,
  // completion, or makespan.
  EXPECT_EQ(out->latency.count, 4u);
  EXPECT_EQ(out->completion.count, 4u);
  EXPECT_NEAR(out->latency.mean, 0.05, 1e-9);
  EXPECT_EQ(dfk.tasks_failed(), 1u);
  EXPECT_TRUE(dfk.records().empty());
}

TEST_F(ServingDfkFixture, OpenLoopKeepsOneOutcomePerSettledTask) {
  auto out = std::make_shared<std::vector<TaskOutcome>>();
  spawn_open_loop(sim, dfk, "cpu", compute_app("work", 100_ms), 5.0, 20_s, 3, out);
  sim.run();
  ASSERT_GT(out->size(), 0u);
  EXPECT_EQ(out->size(), dfk.tasks_submitted());
  EXPECT_TRUE(dfk.records().empty());
  for (const TaskOutcome& t : *out) {
    EXPECT_EQ(t.state, faas::TaskRecord::State::kDone);
    EXPECT_EQ(t.run, 100_ms);
    EXPECT_GE(t.completion, t.run);
  }
}

}  // namespace
}  // namespace faaspart::workloads
