#include <gtest/gtest.h>

#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "gpu/device.hpp"
#include "nvml/manager.hpp"
#include "sched/engines.hpp"
#include "workloads/moldesign.hpp"
#include "workloads/serving.hpp"

namespace faaspart::workloads {
namespace {

using namespace util::literals;

struct MolFixture : ::testing::Test {
  sim::Simulator sim;
  trace::Recorder rec;
  nvml::DeviceManager mgr{sim, &rec};
  faas::LocalProvider provider{sim, 24};
  faas::DataFlowKernel dfk{sim, faas::Config{}};

  MolFixture() {
    mgr.add_device(gpu::arch::a100_sxm4_40gb());
    mgr.add_device(gpu::arch::a100_sxm4_40gb());

    faas::HighThroughputExecutor::Options cpu;
    cpu.label = "cpu";
    cpu.cpu_workers = 8;
    auto cpu_ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                                 std::move(cpu));
    cpu_ex->start();
    dfk.add_executor(std::move(cpu_ex));

    faas::HighThroughputExecutor::Options gpu_opts;
    gpu_opts.label = "gpu";
    for (int g = 0; g < 2; ++g) {
      faas::WorkerBinding b;
      b.device = &mgr.device(g);
      b.accelerator = "cuda:" + std::to_string(g);
      gpu_opts.bindings.push_back(std::move(b));
    }
    auto gpu_ex = std::make_unique<faas::HighThroughputExecutor>(
        sim, provider, std::move(gpu_opts), nullptr, &rec);
    gpu_ex->start();
    dfk.add_executor(std::move(gpu_ex));
  }

  MolDesignConfig quick_config() {
    MolDesignConfig cfg;
    cfg.rounds = 3;
    cfg.simulations_per_round = 6;
    cfg.candidate_pool = 1000;
    cfg.inference_chunk = 250;
    cfg.simulation_mean = 20_s;
    return cfg;
  }
};

TEST_F(MolFixture, CampaignCompletesAllPhases) {
  MolDesignCampaign campaign(dfk, "cpu", "gpu", quick_config(), &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();
  const auto& r = campaign.result();
  EXPECT_EQ(r.simulation_tasks, 18);  // 3 rounds × 6
  EXPECT_EQ(r.training_tasks, 3);
  EXPECT_EQ(r.inference_tasks, 12);  // 3 rounds × (1000 / 250)
  EXPECT_GT(r.makespan.ns, 0);
  EXPECT_EQ(dfk.tasks_failed(), 0u);
}

TEST_F(MolFixture, ActiveLearningImprovesBestIp) {
  auto cfg = quick_config();
  cfg.rounds = 4;
  MolDesignCampaign campaign(dfk, "cpu", "gpu", cfg, &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();
  const auto& best = campaign.result().best_ip_per_round;
  ASSERT_EQ(best.size(), 4u);
  for (std::size_t i = 1; i < best.size(); ++i) {
    EXPECT_GE(best[i], best[i - 1]);  // monotone: we never forget the best
  }
  // The emulator-guided rounds should find better molecules than the random
  // initial batch.
  EXPECT_GT(best.back(), best.front());
}

TEST_F(MolFixture, SimulationDominatesRuntime) {
  // Fig 3: the campaign is simulation-heavy, with training and inference
  // comparatively brief.
  MolDesignCampaign campaign(dfk, "cpu", "gpu", quick_config(), &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();
  const auto& r = campaign.result();
  EXPECT_GT(r.simulation_busy.ns, r.training_busy.ns);
  EXPECT_GT(r.simulation_busy.ns, r.inference_busy.ns);
}

TEST_F(MolFixture, GpusAreIdleDuringSimulationPhases) {
  // Fig 3's headline: "there are many white lines between inference
  // instances — there, the GPU is idle."
  MolDesignCampaign campaign(dfk, "cpu", "gpu", quick_config(), &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();
  const auto makespan = campaign.result().makespan;
  double total_util = 0;
  for (int g = 0; g < 2; ++g) {
    total_util += mgr.device(g).measured_utilization(util::TimePoint{},
                                                     util::TimePoint{} + makespan);
  }
  // Far below full: the GPUs wait on CPU simulations most of the time.
  EXPECT_LT(total_util / 2, 0.5);
  EXPECT_GT(total_util, 0.0);  // but they did run something
}

TEST_F(MolFixture, PhaseSpansRecorded) {
  MolDesignCampaign campaign(dfk, "cpu", "gpu", quick_config(), &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();
  EXPECT_EQ(rec.category_spans("phase:simulation").size(), 18u);
  EXPECT_EQ(rec.category_spans("phase:training").size(), 3u);
  EXPECT_EQ(rec.category_spans("phase:inference").size(), 12u);
}

TEST_F(MolFixture, PipelinedModeCompletesSameScience) {
  auto cfg = quick_config();
  cfg.pipelined = true;
  cfg.simulation_window = 6;
  cfg.retrain_every = 3;
  MolDesignCampaign campaign(dfk, "cpu", "gpu", cfg, &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();
  const auto& r = campaign.result();
  EXPECT_EQ(r.simulation_tasks, 18);  // same simulation budget as rounds mode
  EXPECT_GT(r.training_tasks, 0);
  EXPECT_GT(r.inference_tasks, 0);
  EXPECT_EQ(dfk.tasks_failed(), 0u);
  ASSERT_EQ(r.best_ip_per_round.size(), 3u);
  for (std::size_t i = 1; i < r.best_ip_per_round.size(); ++i) {
    EXPECT_GE(r.best_ip_per_round[i], r.best_ip_per_round[i - 1]);
  }
}

TEST_F(MolFixture, PipeliningShortensTheCampaign) {
  // §3.4: "Pipe-lining this application will yield higher accelerator
  // utilization" — and with the sim/train barrier gone, a shorter makespan.
  const auto run_mode = [&](bool pipelined) {
    sim::Simulator s2;
    trace::Recorder r2;
    nvml::DeviceManager m2(s2, &r2);
    m2.add_device(gpu::arch::a100_sxm4_40gb());
    faas::LocalProvider p2(s2, 24);
    faas::DataFlowKernel d2(s2, faas::Config{});
    faas::HighThroughputExecutor::Options cpu;
    cpu.label = "cpu";
    cpu.cpu_workers = 8;
    auto cx = std::make_unique<faas::HighThroughputExecutor>(s2, p2, std::move(cpu));
    cx->start();
    d2.add_executor(std::move(cx));
    faas::HighThroughputExecutor::Options g;
    g.label = "gpu";
    faas::WorkerBinding b;
    b.device = &m2.device(0);
    g.bindings.push_back(b);
    auto gx = std::make_unique<faas::HighThroughputExecutor>(s2, p2, std::move(g));
    gx->start();
    d2.add_executor(std::move(gx));
    MolDesignConfig cfg;
    cfg.rounds = 3;
    cfg.simulations_per_round = 8;
    cfg.candidate_pool = 1000;
    cfg.inference_chunk = 250;
    cfg.simulation_mean = 20_s;
    cfg.pipelined = pipelined;
    cfg.simulation_window = 8;
    cfg.retrain_every = 4;
    MolDesignCampaign c(d2, "cpu", "gpu", cfg);
    s2.spawn(c.run(), "campaign");
    s2.run();
    EXPECT_EQ(c.result().simulation_tasks, 24);
    return c.result().makespan.seconds();
  };
  const double rounds = run_mode(false);
  const double pipelined = run_mode(true);
  EXPECT_LT(pipelined, rounds);
}

TEST_F(MolFixture, DeterministicAcrossRuns) {
  auto run_once = [&]() {
    sim::Simulator s2;
    trace::Recorder r2;
    nvml::DeviceManager m2(s2, &r2);
    m2.add_device(gpu::arch::a100_sxm4_40gb());
    faas::LocalProvider p2(s2, 24);
    faas::DataFlowKernel d2(s2, faas::Config{});
    faas::HighThroughputExecutor::Options cpu;
    cpu.label = "cpu";
    cpu.cpu_workers = 8;
    auto cx = std::make_unique<faas::HighThroughputExecutor>(s2, p2, std::move(cpu));
    cx->start();
    d2.add_executor(std::move(cx));
    faas::HighThroughputExecutor::Options g;
    g.label = "gpu";
    faas::WorkerBinding b;
    b.device = &m2.device(0);
    g.bindings.push_back(b);
    auto gx = std::make_unique<faas::HighThroughputExecutor>(s2, p2, std::move(g));
    gx->start();
    d2.add_executor(std::move(gx));
    MolDesignCampaign c(d2, "cpu", "gpu", quick_config());
    s2.spawn(c.run(), "campaign");
    s2.run();
    return c.result().makespan.ns;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// serving generators
// ---------------------------------------------------------------------------

TEST_F(MolFixture, ClosedLoopBatchSplitsWork) {
  faas::AppDef app;
  app.name = "noop";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(1_s);
    co_return faas::AppValue{};
  };
  auto out = std::make_shared<BatchRunResult>();
  spawn_closed_loop_batch(sim, dfk, "cpu", app, 3, 10, out);
  sim.run();
  EXPECT_EQ(out->tasks, 10u);
  EXPECT_EQ(out->failures, 0u);
  EXPECT_GT(out->makespan.ns, 0);
  EXPECT_NEAR(out->latency.mean, 1.0, 1e-9);
  EXPECT_GT(out->throughput(), 0.0);
}

TEST_F(MolFixture, OpenLoopGeneratesRequests) {
  faas::AppDef app;
  app.name = "noop";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(100_ms);
    co_return faas::AppValue{};
  };
  auto out = std::make_shared<std::vector<TaskOutcome>>();
  spawn_open_loop(sim, dfk, "cpu", app, 2.0, 60_s, 42, out);
  sim.run();
  // ~120 expected at rate 2/s over 60 s; allow generous Poisson slack.
  EXPECT_GT(out->size(), 80u);
  EXPECT_LT(out->size(), 170u);
  // Every request settled, and the DFK let go of each as it did.
  EXPECT_EQ(out->size(), dfk.tasks_submitted());
  EXPECT_TRUE(dfk.records().empty());
}

}  // namespace
}  // namespace faaspart::workloads
