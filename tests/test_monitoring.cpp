#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "faas/dfk.hpp"
#include "faas/monitoring.hpp"
#include "faas/provider.hpp"
#include "obs/chrome.hpp"
#include "util/error.hpp"

namespace faaspart::faas {
namespace {

using namespace util::literals;

struct MonitoringFixture : ::testing::Test {
  sim::Simulator sim;
  trace::Recorder rec;
  LocalProvider provider{sim, 8};
  DataFlowKernel dfk{sim, Config{}};

  MonitoringFixture() {
    HighThroughputExecutor::Options opts;
    opts.label = "cpu";
    opts.cpu_workers = 2;
    auto ex = std::make_unique<HighThroughputExecutor>(sim, provider,
                                                       std::move(opts), nullptr,
                                                       &rec);
    ex->start();
    dfk.add_executor(std::move(ex));
  }

  AppDef app(const std::string& name, util::Duration d, bool fail = false) {
    AppDef a;
    a.name = name;
    a.body = [d, fail](TaskContext& ctx) -> sim::Co<AppValue> {
      co_await ctx.compute(d);
      if (fail) throw util::TaskFailedError("nope");
      co_return AppValue{1.0};
    };
    return a;
  }

  std::string tmp_dir(const std::string& leaf) {
    const auto p = std::filesystem::temp_directory_path() /
                   ("faaspart-test-" + leaf);
    std::filesystem::remove_all(p);
    return p.string();
  }
};

TEST_F(MonitoringFixture, AppSummariesAggregate) {
  for (int i = 0; i < 4; ++i) (void)dfk.submit(app("fast", 1_s), "cpu");
  (void)dfk.submit(app("slow", 10_s), "cpu");
  (void)dfk.submit(app("bad", 1_s, /*fail=*/true), "cpu");
  sim.run();

  Monitoring mon(dfk, &rec, tmp_dir("summaries"));
  const auto apps = mon.app_summaries();
  ASSERT_EQ(apps.size(), 3u);  // sorted by name: bad, fast, slow
  EXPECT_EQ(apps[0].app, "bad");
  EXPECT_EQ(apps[0].failed, 1u);
  EXPECT_EQ(apps[1].app, "fast");
  EXPECT_EQ(apps[1].done, 4u);
  EXPECT_NEAR(apps[1].run_time.mean, 1.0, 1e-9);
  EXPECT_EQ(apps[2].app, "slow");
  EXPECT_NEAR(apps[2].run_time.mean, 10.0, 1e-9);
}

TEST_F(MonitoringFixture, WorkerSummariesCoverAllWorkers) {
  for (int i = 0; i < 6; ++i) (void)dfk.submit(app("w", 2_s), "cpu");
  sim.run();
  Monitoring mon(dfk, &rec, tmp_dir("workers"));
  const auto workers = mon.worker_summaries();
  ASSERT_EQ(workers.size(), 2u);
  std::size_t total = 0;
  for (const auto& w : workers) {
    total += w.tasks;
    EXPECT_GT(w.busy.ns, 0);
  }
  EXPECT_EQ(total, 6u);
}

TEST_F(MonitoringFixture, CsvExportWritesFiles) {
  (void)dfk.submit(app("t", 1_s), "cpu");
  sim.run();
  Monitoring mon(dfk, &rec, tmp_dir("csv"));
  const auto files = mon.export_csv();
  ASSERT_EQ(files.size(), 2u);  // tasks.csv + spans.csv
  for (const auto& f : files) {
    std::ifstream is(f);
    ASSERT_TRUE(is.good()) << f;
    std::string header;
    std::getline(is, header);
    EXPECT_FALSE(header.empty());
    std::string row;
    EXPECT_TRUE(static_cast<bool>(std::getline(is, row)));  // at least one row
  }
  // tasks.csv has the task row with app name and state.
  std::ifstream is(files[0]);
  std::stringstream all;
  all << is.rdbuf();
  EXPECT_NE(all.str().find(",t,"), std::string::npos);
  EXPECT_NE(all.str().find("done"), std::string::npos);
  std::filesystem::remove_all(mon.run_dir());
}

TEST_F(MonitoringFixture, CsvCarriesRetryColumnsAndQuotesAppNames) {
  (void)dfk.submit(app("llama2,13b", 1_s), "cpu");
  sim.run();
  Monitoring mon(dfk, nullptr, tmp_dir("retrycols"));
  const auto files = mon.export_csv();
  ASSERT_EQ(files.size(), 1u);
  std::ifstream is(files[0]);
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("backoff_s"), std::string::npos);
  EXPECT_NE(header.find("timed_out"), std::string::npos);
  std::stringstream rest;
  rest << is.rdbuf();
  // The comma-bearing app name must survive as one quoted field.
  EXPECT_NE(rest.str().find("\"llama2,13b\""), std::string::npos);
  std::filesystem::remove_all(mon.run_dir());
}

TEST_F(MonitoringFixture, AppSummariesCountRetriesAndKills) {
  (void)dfk.submit(app("plain", 1_s), "cpu");
  sim.run();
  Monitoring mon(dfk, nullptr, tmp_dir("retrysum"));
  const auto apps = mon.app_summaries();
  ASSERT_EQ(apps.size(), 1u);
  // No retries configured: the new aggregates must all read zero.
  EXPECT_EQ(apps[0].retries, 0u);
  EXPECT_EQ(apps[0].walltime_kills, 0u);
  EXPECT_EQ(apps[0].backoff_total.ns, 0);
}

TEST_F(MonitoringFixture, CsvWithoutRecorderSkipsSpans) {
  (void)dfk.submit(app("t", 1_s), "cpu");
  sim.run();
  Monitoring mon(dfk, nullptr, tmp_dir("nospans"));
  const auto files = mon.export_csv();
  EXPECT_EQ(files.size(), 1u);
  std::filesystem::remove_all(mon.run_dir());
}

TEST_F(MonitoringFixture, ChromeTraceIsWellFormed) {
  for (int i = 0; i < 3; ++i) (void)dfk.submit(app("traced", 1_s), "cpu");
  sim.run();
  std::ostringstream os;
  obs::write_enriched_chrome_trace(os, &rec, nullptr, nullptr, "test-run");
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("traced"), std::string::npos);
  EXPECT_NE(json.find("test-run"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(MonitoringFixture, ChromeTraceEscapesStrings) {
  trace::Recorder r2;
  const auto lane = r2.add_lane("lane \"quoted\"\n");
  r2.record(lane, "name\twith\ttabs", "cat\\slash", util::TimePoint{0},
            util::TimePoint{1000});
  std::ostringstream os;
  obs::write_enriched_chrome_trace(os, &r2, nullptr, nullptr);
  const std::string json = os.str();
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

}  // namespace
}  // namespace faaspart::faas
