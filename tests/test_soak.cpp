// Soak test: a virtual day of mixed multi-tenant operation with every
// moving part engaged at once — MPS partitions, weight cache, autoscaler,
// a CPU executor, open-loop serving and failure injection — asserting the
// global invariants that must survive long-horizon operation.
#include <gtest/gtest.h>

#include "core/autoscale.hpp"
#include "core/partitioner.hpp"
#include "core/weightcache.hpp"
#include "faults/faults.hpp"
#include "nvml/manager.hpp"
#include "util/error.hpp"
#include "workloads/dnn.hpp"
#include "workloads/llama.hpp"
#include "workloads/serving.hpp"

namespace faaspart {
namespace {

using namespace util::literals;

TEST(Soak, VirtualDayOfMixedOperation) {
  sim::Simulator sim;
  trace::Recorder rec;
  nvml::DeviceManager mgr(sim, &rec);
  mgr.add_device(gpu::arch::a100_80gb());
  faas::LocalProvider provider(sim, 24);
  core::GpuPartitioner part(mgr);
  core::Reconfigurer recon(mgr);
  core::WeightCache cache;
  faas::DataFlowKernel dfk(sim, faas::Config{.retries = 1});

  // A worker crash about every virtual hour, each inside a task that the
  // tenant serving then is running (DFK retries recover them). llm-a serves
  // the first two hours and llm-b the next two.
  faults::FaultPlan crashes;
  for (const auto& [minute, tenant] :
       {std::pair{61, "llm-a"}, std::pair{120, "llm-a"},
        std::pair{181, "llm-b"}}) {
    crashes.schedule.push_back({util::TimePoint{} + util::minutes(minute),
                                faults::FaultKind::kWorkerCrash, tenant, 0,
                                {}, 0});
  }
  faults::FaultInjector injector(sim, crashes);

  // Two GPU tenants at 50/50, autoscaled; one CPU executor whose six workers
  // cover the preprocessing load (0.5 Hz of ~8 s tasks keeps ~4 busy).
  const auto gpu_tenant = [&](const std::string& label) {
    faas::HtexConfig cfg;
    cfg.label = label;
    cfg.available_accelerators = {"0"};
    cfg.gpu_percentages = {50};
    return part.build_executor(sim, provider, cfg, &cache, &rec);
  };
  auto a_owned = gpu_tenant("llm-a");
  auto b_owned = gpu_tenant("llm-b");
  auto* llm_a = a_owned.get();
  auto* llm_b = b_owned.get();
  dfk.add_executor(std::move(a_owned));
  dfk.add_executor(std::move(b_owned));

  faas::HighThroughputExecutor::Options cpu_opts;
  cpu_opts.label = "cpu";
  cpu_opts.cpu_workers = 6;
  auto cpu_owned = std::make_unique<faas::HighThroughputExecutor>(
      sim, provider, std::move(cpu_opts), nullptr, &rec);
  cpu_owned->start();
  dfk.add_executor(std::move(cpu_owned));

  const util::TimePoint end = util::TimePoint{} + util::minutes(240);

  core::Autoscaler scaler(sim, recon,
                          {.interval = 60_s, .min_percentage = 20,
                           .min_delta = 15, .ewma_alpha = 0.6});
  scaler.add_tenant(*llm_a, 50);
  scaler.add_tenant(*llm_b, 50);
  sim.spawn(scaler.run(end), "autoscaler");

  // Load: two LLM tenants with different diurnal phases + CPU preprocessing.
  const auto llm_app = workloads::make_llama_completion_app(
      "chat", workloads::llama2_7b(), workloads::serving_config(), {64, 32});
  auto a_outcomes = std::make_shared<std::vector<workloads::TaskOutcome>>();
  auto b_outcomes = std::make_shared<std::vector<workloads::TaskOutcome>>();
  workloads::spawn_open_loop(sim, dfk, "llm-a", llm_app, 0.12,
                             util::minutes(120), 101, a_outcomes);
  sim.schedule_at(util::TimePoint{} + util::minutes(120), [&, llm_app] {
    workloads::spawn_open_loop(sim, dfk, "llm-b", llm_app, 0.12,
                               util::minutes(110), 103, b_outcomes);
  });

  faas::AppDef prep;
  prep.name = "preprocess";
  prep.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(ctx.rng().lognormal_duration(8_s, 0.4));
    co_return faas::AppValue{};
  };
  auto cpu_outcomes = std::make_shared<std::vector<workloads::TaskOutcome>>();
  workloads::spawn_open_loop(sim, dfk, "cpu", prep, 0.5, util::minutes(235),
                             107, cpu_outcomes);

  sim.run_until(end);
  sim.spawn(dfk.shutdown());
  sim.run();

  // ---- Global invariants ---------------------------------------------------
  // 1. Nothing is lost: every task settled exactly once, done or failed,
  //    and the DFK let go of each as it did.
  std::size_t done = 0;
  std::size_t failed = 0;
  for (const auto* outcomes : {a_outcomes.get(), b_outcomes.get(), cpu_outcomes.get()}) {
    for (const workloads::TaskOutcome& t : *outcomes) {
      ASSERT_TRUE(t.state == faas::TaskRecord::State::kDone ||
                  t.state == faas::TaskRecord::State::kFailed)
          << "task settled in state " << static_cast<int>(t.state);
      (t.state == faas::TaskRecord::State::kDone ? done : failed) += 1;
    }
  }
  EXPECT_EQ(done + failed, dfk.tasks_submitted());
  EXPECT_EQ(failed, dfk.tasks_failed());
  EXPECT_TRUE(dfk.records().empty()) << dfk.records().size() << " tasks never settled";
  EXPECT_GT(done, 100u);
  // 2. Retries absorbed the injected crashes (retries=1, crashes spaced out).
  EXPECT_EQ(failed, 0u);
  // 3. The control loop actually acted.
  EXPECT_GE(scaler.reconfigurations(), 1);
  // 4. The weight cache absorbed reconfigure reloads: at most one miss per
  //    pool scope per model, everything else hits.
  EXPECT_LE(cache.misses(), 2u);
  EXPECT_GT(cache.hits(), cache.misses());
  // 5. The GPU was busy for part of the day and never longer than the day.
  const util::Duration busy = mgr.device(0).busy_time();
  EXPECT_GT(busy.ns, 0);
  EXPECT_LE(busy, util::minutes(240));
  // 6. No device memory leaked through the day's restarts: only the cache's
  //    resident weights remain.
  EXPECT_EQ(mgr.device(0).memory().used(), cache.resident_bytes(mgr.device(0)));
  // 7. The crashes cost retries, and only retries.
  EXPECT_GE(dfk.retries_used(), 1u);
  //    Each crash hit a running task, so each cost exactly one retry.
  EXPECT_EQ(dfk.retries_used(), crashes.schedule.size());
}

}  // namespace
}  // namespace faaspart
