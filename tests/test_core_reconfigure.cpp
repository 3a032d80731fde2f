#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "core/reconfigure.hpp"
#include "core/weightcache.hpp"
#include "faults/faults.hpp"
#include "sched/engines.hpp"
#include "util/error.hpp"
#include "workloads/llama.hpp"

namespace faaspart::core {
namespace {

using namespace util::literals;

struct ReconFixture : ::testing::Test {
  sim::Simulator sim;
  nvml::DeviceManager mgr{sim};
  faas::LocalProvider provider{sim, 24};
  GpuPartitioner part{mgr};
  Reconfigurer recon{mgr};

  ReconFixture() { mgr.add_device(gpu::arch::a100_80gb()); }

  std::unique_ptr<faas::HighThroughputExecutor> mps_executor(
      int workers, faas::ModelLoader* loader = nullptr) {
    faas::HtexConfig cfg;
    cfg.label = "gpu";
    for (int i = 0; i < workers; ++i) {
      cfg.available_accelerators.push_back("0");
      cfg.gpu_percentages.push_back(100 / workers);
    }
    return part.build_executor(sim, provider, cfg, loader);
  }

  faas::AppDef llama_app() {
    return workloads::make_llama_completion_app(
        "chat", workloads::llama2_7b(), workloads::serving_config(), {16, 4});
  }

  /// Runs one task per worker so models are loaded/warm.
  void warm_up(faas::HighThroughputExecutor& ex, const faas::AppDef& app) {
    const auto shared = std::make_shared<const faas::AppDef>(app);
    for (std::size_t i = 0; i < ex.worker_count(); ++i) (void)ex.submit(shared);
    sim.run();
  }
};

TEST_F(ReconFixture, MpsPercentageChangeRestartsWorkers) {
  auto ex = mps_executor(2);
  warm_up(*ex, llama_app());
  auto report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    const std::vector<int> arg1{70, 30};
    *out = co_await r.change_mps_percentages(e, arg1);
  }(recon, *ex, report));
  sim.run();
  EXPECT_EQ(report->workers_restarted, 2);
  EXPECT_FALSE(report->gpu_reset);
  EXPECT_EQ(ex->worker_info(0).restarts, 1);
  // Verify the new split took effect.
  faas::AppDef probe;
  probe.name = "probe";
  probe.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_return faas::AppValue{static_cast<double>(ctx.sm_cap())};
  };
  const auto shared = std::make_shared<const faas::AppDef>(std::move(probe));
  auto a = ex->submit(shared);
  auto b = ex->submit(shared);
  sim.run();
  std::vector<double> caps{std::get<double>(a.future.value()),
                           std::get<double>(b.future.value())};
  std::sort(caps.begin(), caps.end());
  EXPECT_DOUBLE_EQ(caps[0], 32.0);  // 30 % of 108 ≈ 32
  EXPECT_DOUBLE_EQ(caps[1], 76.0);  // 70 % of 108 ≈ 76
}

TEST_F(ReconFixture, MpsReconfigureCostDominatedByModelReload) {
  // §6: changing the GPU% of an LLM worker costs 10–20 s because the model
  // reloads after the process restart.
  auto ex = mps_executor(1);
  warm_up(*ex, llama_app());
  auto report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    const std::vector<int> arg2{50};
    *out = co_await r.change_mps_percentages(e, arg2);
  }(recon, *ex, report));
  sim.run();
  // Restart itself is ~1 s; model reload happens on the next task.
  const auto app = std::make_shared<const faas::AppDef>(llama_app());
  auto h = ex->submit(app);
  sim.run();
  const double reload_s = h.record->cold_start.seconds();
  // fp16 7B footprint (~20 GB) at 5 GB/s ≈ 4 s, plus function init.
  EXPECT_GT(reload_s, 3.0);
}

TEST_F(ReconFixture, WeightCacheEliminatesReloadCost) {
  WeightCache cache;
  auto ex = mps_executor(1, &cache);
  warm_up(*ex, llama_app());
  EXPECT_EQ(cache.misses(), 1u);
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e) -> sim::Co<void> {
    const std::vector<int> arg3{50};
    (void)co_await r.change_mps_percentages(e, arg3);
  }(recon, *ex));
  sim.run();
  const auto app = std::make_shared<const faas::AppDef>(llama_app());
  auto h = ex->submit(app);
  sim.run();
  EXPECT_EQ(cache.hits(), 1u);
  // §7: attach instead of reload — cold start collapses to ~function init +
  // attach (well under a second of load).
  EXPECT_LT(h.record->cold_start.seconds(), 2.0);
}

TEST_F(ReconFixture, MigRelayoutResetsAndRebinds) {
  // Start on MIG: two 3g instances.
  sim.spawn([](nvml::DeviceManager& m) -> sim::Co<void> {
    const std::vector<std::string> arg4{"3g.40gb", "3g.40gb"};
    (void)co_await m.configure_mig(0, arg4);
  }(mgr));
  sim.run();
  faas::HtexConfig cfg;
  cfg.label = "gpu";
  for (const auto id : mgr.device(0).instance_ids()) {
    cfg.available_accelerators.push_back(mgr.device(0).instance(id).uuid);
  }
  auto ex = part.build_executor(sim, provider, cfg);
  warm_up(*ex, llama_app());

  auto report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    std::vector<Reconfigurer::TenantLayout> tenants{{&e, {"2g.20gb", "2g.20gb"}}};
    *out = co_await r.change_device_layout(std::move(tenants), 0);
  }(recon, *ex, report));
  sim.run();
  EXPECT_TRUE(report->gpu_reset);
  EXPECT_EQ(report->workers_restarted, 2);
  // §6: MIG re-layout adds the reset on top of worker restarts.
  EXPECT_GT(report->total_time, mgr.device(0).arch().mig_reset);
  // New layout live.
  EXPECT_EQ(mgr.device(0).used_compute_slices(), 4);
  // Workers serve again on the new instances.
  const auto app = std::make_shared<const faas::AppDef>(llama_app());
  auto h = ex->submit(app);
  sim.run();
  EXPECT_FALSE(h.future.failed());
}

TEST_F(ReconFixture, MigRelayoutSlowerThanMpsChange) {
  // Table 1 / §6: MIG reconfiguration costs strictly more than MPS (adds the
  // GPU reset and disturbs every tenant).
  auto ex = mps_executor(2);
  warm_up(*ex, llama_app());
  auto mps_report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    const std::vector<int> arg6{50, 50};
    *out = co_await r.change_mps_percentages(e, arg6);
  }(recon, *ex, mps_report));
  sim.run();

  // Second executor on a MIG device.
  mgr.add_device(gpu::arch::a100_80gb());
  sim.spawn([](nvml::DeviceManager& m) -> sim::Co<void> {
    const std::vector<std::string> arg7{"3g.40gb", "3g.40gb"};
    (void)co_await m.configure_mig(1, arg7);
  }(mgr));
  sim.run();
  faas::HtexConfig cfg;
  cfg.label = "mig";
  for (const auto id : mgr.device(1).instance_ids()) {
    cfg.available_accelerators.push_back(mgr.device(1).instance(id).uuid);
  }
  auto mig_ex = part.build_executor(sim, provider, cfg);
  warm_up(*mig_ex, llama_app());
  auto mig_report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    std::vector<Reconfigurer::TenantLayout> tenants{{&e, {"2g.20gb", "2g.20gb"}}};
    *out = co_await r.change_device_layout(std::move(tenants), 1);
  }(recon, *mig_ex, mig_report));
  sim.run();

  EXPECT_GT(mig_report->total_time.ns, mps_report->total_time.ns);
}

TEST_F(ReconFixture, MigCreateFailureDegradesToMps) {
  // Fault model §6.5: a failed instance creation during re-layout must not
  // strand the parked workers — the Reconfigurer descends the isolation
  // ladder to MPS percentage caps sized like the requested profiles.
  sim.spawn([](nvml::DeviceManager& m) -> sim::Co<void> {
    const std::vector<std::string> layout{"3g.40gb", "3g.40gb"};
    (void)co_await m.configure_mig(0, layout);
  }(mgr));
  sim.run();
  faas::HtexConfig cfg;
  cfg.label = "gpu";
  for (const auto id : mgr.device(0).instance_ids()) {
    cfg.available_accelerators.push_back(mgr.device(0).instance(id).uuid);
  }
  auto ex = part.build_executor(sim, provider, cfg);
  warm_up(*ex, llama_app());

  faults::FaultPlan plan;
  faults::FaultEvent arm;
  arm.at = sim.now();
  arm.kind = faults::FaultKind::kMigCreateFail;
  arm.target = "gpu:0";
  plan.schedule.push_back(arm);
  faults::FaultInjector fi(sim, plan);
  sim.run();  // delivers the arming event

  auto report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    std::vector<Reconfigurer::TenantLayout> tenants{{&e, {"2g.20gb", "2g.20gb"}}};
    *out = co_await r.change_device_layout(std::move(tenants), 0);
  }(recon, *ex, report));
  sim.run();

  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->requested, "mig");
  EXPECT_EQ(report->achieved, "mps");
  EXPECT_TRUE(report->gpu_reset);
  EXPECT_EQ(report->workers_restarted, 2);
  EXPECT_NE(report->degrade_reason.find("MIG instance-create"), std::string::npos);
  ASSERT_EQ(fi.degradations().size(), 1u);
  // The half-built layout was wiped (second reset)…
  EXPECT_TRUE(mgr.device(0).instance_ids().empty());
  // …and the workers serve again under capped MPS contexts.
  faas::AppDef probe;
  probe.name = "probe";
  probe.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_return faas::AppValue{static_cast<double>(ctx.sm_cap())};
  };
  auto h = ex->submit(std::make_shared<const faas::AppDef>(std::move(probe)));
  sim.run();
  const double cap = std::get<double>(h.future.value());
  EXPECT_GT(cap, 0.0);
  EXPECT_LT(cap, mgr.device(0).arch().total_sms);  // a 2g share, not the GPU
}

TEST_F(ReconFixture, MigCreateFailureWithDeadMpsFallsBackToTimeshare) {
  // Bottom rung of the ladder: MIG creation fails *and* the MPS control
  // daemon is dead, so the only mode left is plain timesharing.
  sim.spawn([](nvml::DeviceManager& m) -> sim::Co<void> {
    const std::vector<std::string> layout{"3g.40gb", "3g.40gb"};
    (void)co_await m.configure_mig(0, layout);
  }(mgr));
  sim.run();
  faas::HtexConfig cfg;
  cfg.label = "gpu";
  for (const auto id : mgr.device(0).instance_ids()) {
    cfg.available_accelerators.push_back(mgr.device(0).instance(id).uuid);
  }
  auto ex = part.build_executor(sim, provider, cfg);
  warm_up(*ex, llama_app());

  faults::FaultPlan plan;
  faults::FaultEvent daemon_death;
  daemon_death.at = sim.now();
  daemon_death.kind = faults::FaultKind::kMpsDaemonDeath;
  daemon_death.target = "gpu:0";
  plan.schedule.push_back(daemon_death);
  faults::FaultEvent arm = daemon_death;
  arm.kind = faults::FaultKind::kMigCreateFail;
  plan.schedule.push_back(arm);
  faults::FaultInjector fi(sim, plan);
  sim.run();
  EXPECT_FALSE(fi.mps_available("gpu:0"));

  auto report = std::make_shared<ReconfigureReport>();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e,
               std::shared_ptr<ReconfigureReport> out) -> sim::Co<void> {
    std::vector<Reconfigurer::TenantLayout> tenants{{&e, {"2g.20gb", "2g.20gb"}}};
    *out = co_await r.change_device_layout(std::move(tenants), 0);
  }(recon, *ex, report));
  sim.run();

  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->achieved, "timeshare");
  EXPECT_EQ(report->workers_restarted, 2);
  // Workers still make progress after the double fault.
  auto h = ex->submit(std::make_shared<const faas::AppDef>(llama_app()));
  sim.run();
  EXPECT_FALSE(h.future.failed());
}

TEST_F(ReconFixture, ValidationErrors) {
  auto ex = mps_executor(2);
  sim.run();
  sim.spawn([](Reconfigurer& r, faas::HighThroughputExecutor& e) -> sim::Co<void> {
    const std::vector<int> arg9{50};
    (void)co_await r.change_mps_percentages(e, arg9);  // wrong count
  }(recon, *ex));
  EXPECT_THROW(sim.run(), util::ConfigError);
}

// ---------------------------------------------------------------------------
// WeightCache unit behaviour
// ---------------------------------------------------------------------------

struct CacheFixture : ::testing::Test {
  sim::Simulator sim;
  gpu::Device dev{sim, gpu::arch::a100_80gb(), 0, sched::mps_factory()};
  WeightCache cache;

  faas::AppDef model_app(const std::string& key, util::Bytes bytes) {
    faas::AppDef app;
    app.name = key;
    app.model_bytes = bytes;
    app.model_key = key;
    app.body = [](faas::TaskContext&) -> sim::Co<faas::AppValue> {
      co_return faas::AppValue{};
    };
    return app;
  }

  util::Duration timed_load(gpu::ContextId ctx, const faas::AppDef& app) {
    const auto t0 = sim.now();
    sim.spawn([](WeightCache& c, gpu::Device& d, gpu::ContextId cx,
                 faas::AppDef a) -> sim::Co<void> {
      co_await c.load(d, cx, a);
    }(cache, dev, ctx, app));
    sim.run();
    return sim.now() - t0;
  }
};

TEST_F(CacheFixture, MissThenHit) {
  const auto ctx = dev.create_context("w1");
  const auto app = model_app("llama", 20 * util::GB);
  const auto miss_time = timed_load(ctx, app);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(miss_time.seconds(), 4.0, 0.5);  // 20 GB / 5 GB/s + attach

  const auto ctx2 = dev.create_context("w2");
  const auto hit_time = timed_load(ctx2, app);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_LT(hit_time.seconds(), 0.5);
  EXPECT_EQ(cache.resident_bytes(dev), 20 * util::GB);
}

TEST_F(CacheFixture, SurvivesContextDestruction) {
  const auto ctx = dev.create_context("w1");
  const auto app = model_app("llama", 20 * util::GB);
  (void)timed_load(ctx, app);
  cache.on_context_destroyed(dev, ctx);
  dev.destroy_context(ctx);
  EXPECT_EQ(cache.resident_bytes(dev), 20 * util::GB);  // still cached

  const auto ctx2 = dev.create_context("w1-reborn");
  (void)timed_load(ctx2, app);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(CacheFixture, LruEvictionUnderPressure) {
  const auto ctx = dev.create_context("w");
  (void)timed_load(ctx, model_app("a", 30 * util::GB));
  (void)timed_load(ctx, model_app("b", 30 * util::GB));
  // Touch "a" so "b" becomes LRU.
  (void)timed_load(ctx, model_app("a", 30 * util::GB));
  EXPECT_EQ(cache.hits(), 1u);
  // Loading "c" (30 GB) exceeds the 80 GB pool → evict "b".
  (void)timed_load(ctx, model_app("c", 30 * util::GB));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.resident_bytes(dev), 60 * util::GB);
  // "a" still hits; "b" misses again.
  (void)timed_load(ctx, model_app("a", 30 * util::GB));
  EXPECT_EQ(cache.hits(), 2u);
  (void)timed_load(ctx, model_app("b", 30 * util::GB));
  EXPECT_EQ(cache.misses(), 4u);
}

TEST_F(CacheFixture, TooBigForDeviceStillThrows) {
  const auto ctx = dev.create_context("w");
  bool threw = false;
  sim.spawn([](WeightCache& c, gpu::Device& d, gpu::ContextId cx,
               faas::AppDef a, bool& out) -> sim::Co<void> {
    try {
      co_await c.load(d, cx, a);
    } catch (const util::OutOfMemoryError&) {
      out = true;
    }
  }(cache, dev, ctx, model_app("huge", 100 * util::GB), threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST_F(CacheFixture, ExplicitEvict) {
  const auto ctx = dev.create_context("w");
  (void)timed_load(ctx, model_app("a", 10 * util::GB));
  cache.evict(dev, "a");
  EXPECT_EQ(cache.resident_bytes(dev), 0);
  EXPECT_THROW(cache.evict(dev, "a"), util::NotFoundError);
}

TEST_F(CacheFixture, ReleaseDeviceFreesDaemonContext) {
  const auto ctx = dev.create_context("w");
  (void)timed_load(ctx, model_app("a", 10 * util::GB));
  EXPECT_EQ(dev.context_count(), 2u);  // worker + cache daemon
  cache.release_device(dev);
  EXPECT_EQ(dev.context_count(), 1u);
  EXPECT_EQ(dev.memory().used(), 0);
}

}  // namespace
}  // namespace faaspart::core
