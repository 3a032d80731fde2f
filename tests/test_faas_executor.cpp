#include <gtest/gtest.h>

#include <optional>

#include "faas/dfk.hpp"
#include "faas/executor.hpp"
#include "faas/provider.hpp"
#include "faults/faults.hpp"
#include "gpu/device.hpp"
#include "sched/engines.hpp"
#include "util/error.hpp"

namespace faaspart::faas {
namespace {

using namespace util::literals;

AppDef sleep_app(const std::string& name, util::Duration d) {
  AppDef app;
  app.name = name;
  app.body = [d](TaskContext& ctx) -> sim::Co<AppValue> {
    co_await ctx.compute(d);
    co_return AppValue{d.seconds()};
  };
  return app;
}

AppDef failing_app(const std::string& name, int fail_times,
                   std::shared_ptr<int> counter) {
  AppDef app;
  app.name = name;
  app.body = [fail_times, counter](TaskContext&) -> sim::Co<AppValue> {
    if ((*counter)++ < fail_times) {
      throw util::TaskFailedError("transient");
    }
    co_return AppValue{1.0};
  };
  return app;
}

/// A fault plan that crashes worker 0 of executor `label` at `at`.
faults::FaultPlan worker_crash_at(const std::string& label, util::TimePoint at) {
  faults::FaultPlan plan;
  plan.schedule.push_back(
      {at, faults::FaultKind::kWorkerCrash, label, 0, {}, 0});
  return plan;
}

struct FaasFixture : ::testing::Test {
  sim::Simulator sim;
  LocalProvider provider{sim, 24};

  /// When a CPU worker has booted and takes its first task.
  [[nodiscard]] util::TimePoint cpu_boot() const {
    return util::TimePoint{} + provider.worker_launch_cost();
  }

  std::unique_ptr<HighThroughputExecutor> make_cpu_executor(int workers) {
    HighThroughputExecutor::Options opts;
    opts.label = "cpu";
    opts.cpu_workers = workers;
    auto ex = std::make_unique<HighThroughputExecutor>(sim, provider,
                                                       std::move(opts));
    ex->start();
    return ex;
  }
};

TEST_F(FaasFixture, TaskRunsAndReturnsValue) {
  auto ex = make_cpu_executor(1);
  auto h = ex->submit(std::make_shared<const AppDef>(sleep_app("s", 2_s)));
  sim.run();
  EXPECT_TRUE(h.future.ready());
  EXPECT_DOUBLE_EQ(std::get<double>(h.future.value()), 2.0);
  EXPECT_EQ(h.record->state, TaskRecord::State::kDone);
  EXPECT_EQ(h.record->run_time(), 2_s);
  EXPECT_EQ(ex->outstanding(), 0u);
  EXPECT_EQ(ex->worker_info(0).tasks_done, 1u);
}

TEST_F(FaasFixture, WorkerLaunchCostPrecedesFirstTask) {
  auto ex = make_cpu_executor(1);
  auto h = ex->submit(std::make_shared<const AppDef>(sleep_app("s", 1_s)));
  sim.run();
  // First task can only start after the worker process spawns (750 ms).
  EXPECT_GE(h.record->started.ns, provider.worker_launch_cost().ns);
}

TEST_F(FaasFixture, TasksRunConcurrentlyAcrossWorkers) {
  auto ex = make_cpu_executor(4);
  std::vector<AppHandle> hs;
  for (int i = 0; i < 4; ++i) {
    hs.push_back(ex->submit(std::make_shared<const AppDef>(sleep_app("s", 10_s))));
  }
  sim.run();
  // All four finish at the same virtual time — full parallelism.
  for (const auto& h : hs) {
    EXPECT_EQ(h.record->finished, hs[0].record->finished);
  }
}

TEST_F(FaasFixture, QueueingWhenWorkersBusy) {
  auto ex = make_cpu_executor(1);
  auto a = ex->submit(std::make_shared<const AppDef>(sleep_app("a", 5_s)));
  auto b = ex->submit(std::make_shared<const AppDef>(sleep_app("b", 5_s)));
  sim.run();
  EXPECT_EQ((b.record->finished - a.record->finished), 5_s);
  EXPECT_GT(b.record->queue_time().ns, 0);
}

TEST_F(FaasFixture, FunctionInitChargedOncePerWorker) {
  auto ex = make_cpu_executor(1);
  AppDef app = sleep_app("heavy", 1_s);
  app.function_init = 3_s;
  const auto shared = std::make_shared<const AppDef>(std::move(app));
  auto first = ex->submit(shared);
  auto second = ex->submit(shared);
  sim.run();
  EXPECT_EQ(first.record->cold_start, 3_s);   // paid
  EXPECT_EQ(second.record->cold_start.ns, 0); // warm
}

TEST_F(FaasFixture, CpuWorkerCannotUseAccelerator) {
  auto ex = make_cpu_executor(1);
  AppDef app;
  app.name = "gpu-app";
  app.body = [](TaskContext& ctx) -> sim::Co<AppValue> {
    (void)ctx.device();  // throws on a CPU worker
    co_return AppValue{};
  };
  auto h = ex->submit(std::make_shared<const AppDef>(std::move(app)));
  sim.run();
  EXPECT_TRUE(h.future.failed());
  EXPECT_EQ(h.record->state, TaskRecord::State::kFailed);
}

TEST_F(FaasFixture, SubmitAfterShutdownRejected) {
  auto ex = make_cpu_executor(1);
  sim.spawn(ex->shutdown());
  sim.run();
  EXPECT_THROW(
      (void)ex->submit(std::make_shared<const AppDef>(sleep_app("s", 1_s))),
      util::StateError);
}

TEST_F(FaasFixture, ShutdownDrainsQueuedTasks) {
  auto ex = make_cpu_executor(1);
  auto a = ex->submit(std::make_shared<const AppDef>(sleep_app("a", 2_s)));
  auto b = ex->submit(std::make_shared<const AppDef>(sleep_app("b", 2_s)));
  sim.spawn(ex->shutdown());
  sim.run();
  EXPECT_TRUE(a.future.ready());
  EXPECT_TRUE(b.future.ready());
  EXPECT_EQ(ex->outstanding(), 0u);
  EXPECT_FALSE(ex->worker_info(0).alive);
}

TEST_F(FaasFixture, WorkerPinsCpuCores) {
  // 24 cores, 8 per worker → only 3 of 4 workers can boot; the fourth waits
  // forever, but 3 workers still serve tasks.
  HighThroughputExecutor::Options opts;
  opts.label = "big";
  opts.cpu_workers = 4;
  opts.cpu_cores_per_worker = 8;
  HighThroughputExecutor ex(sim, provider, std::move(opts));
  ex.start();
  std::vector<AppHandle> hs;
  for (int i = 0; i < 3; ++i) {
    hs.push_back(ex.submit(std::make_shared<const AppDef>(sleep_app("s", 1_s))));
  }
  sim.run();
  for (const auto& h : hs) EXPECT_TRUE(h.future.ready());
  EXPECT_EQ(provider.cpu_cores().in_use(), 24);
}

// ---------------------------------------------------------------------------
// GPU-bound workers
// ---------------------------------------------------------------------------

struct GpuFaasFixture : FaasFixture {
  trace::Recorder rec;
  gpu::Device dev{sim, gpu::arch::a100_80gb(), 0, sched::mps_factory(), &rec};

  std::unique_ptr<HighThroughputExecutor> make_gpu_executor(
      std::vector<double> percentages, ModelLoader* loader = nullptr) {
    HighThroughputExecutor::Options opts;
    opts.label = "gpu";
    std::size_t i = 0;
    for (const double pct : percentages) {
      WorkerBinding b;
      b.device = &dev;
      b.ctx_opts.active_thread_percentage = pct;
      b.accelerator = "cuda:0#" + std::to_string(i++);
      opts.bindings.push_back(std::move(b));
    }
    auto ex = std::make_unique<HighThroughputExecutor>(sim, provider,
                                                       std::move(opts), loader);
    ex->start();
    return ex;
  }

  /// When a GPU worker has booted and takes its first task.
  [[nodiscard]] util::TimePoint gpu_boot() const {
    return cpu_boot() + dev.arch().context_create;
  }
};

gpu::KernelDesc app_kernel() {
  return gpu::KernelDesc{"k", gpu::KernelKind::kGemm, 1e11, 64 * util::MB, 40, 0.4};
}

/// kernel_app's kernel alone on the whole device.
util::Duration app_kernel_time(const gpu::Device& dev) {
  return gpu::solo_service_time(dev.arch(), app_kernel(),
                                gpu::KernelGrant{dev.arch().total_sms});
}

AppDef kernel_app(const std::string& name, util::Bytes model = 0) {
  AppDef app;
  app.name = name;
  app.model_bytes = model;
  app.body = [](TaskContext& ctx) -> sim::Co<AppValue> {
    gpu::KernelDesc k = app_kernel();
    co_await ctx.launch(std::move(k));
    co_return AppValue{static_cast<double>(ctx.sm_cap())};
  };
  return app;
}

TEST_F(GpuFaasFixture, WorkerCreatesContextWithPercentage) {
  auto ex = make_gpu_executor({50.0, 25.0});
  auto a = ex->submit(std::make_shared<const AppDef>(kernel_app("a")));
  auto b = ex->submit(std::make_shared<const AppDef>(kernel_app("b")));
  sim.run();
  // sm_cap reported by the task: 54 and 27 SMs in some order.
  std::vector<double> caps{std::get<double>(a.future.value()),
                           std::get<double>(b.future.value())};
  std::sort(caps.begin(), caps.end());
  EXPECT_DOUBLE_EQ(caps[0], 27.0);
  EXPECT_DOUBLE_EQ(caps[1], 54.0);
  EXPECT_EQ(dev.context_count(), 2u);
}

TEST_F(GpuFaasFixture, ModelLoadedOncePerWorker) {
  auto ex = make_gpu_executor({100.0});
  const auto app =
      std::make_shared<const AppDef>(kernel_app("m", 10 * util::GB));
  auto first = ex->submit(app);
  auto second = ex->submit(app);
  sim.run();
  // 10 GB at 5 GB/s = 2 s cold start on the first task only.
  EXPECT_NEAR(first.record->cold_start.seconds(), 2.0, 0.01);
  EXPECT_EQ(second.record->cold_start.ns, 0);
  EXPECT_EQ(dev.memory().used(), 10 * util::GB);
}

TEST_F(GpuFaasFixture, RestartReloadsModel) {
  auto ex = make_gpu_executor({100.0});
  const auto app =
      std::make_shared<const AppDef>(kernel_app("m", 10 * util::GB));
  auto first = ex->submit(app);
  sim.run();
  auto restart = ex->restart_worker(0, std::nullopt);
  sim.run();
  EXPECT_TRUE(restart.ready());
  EXPECT_EQ(ex->worker_info(0).restarts, 1);
  auto after = ex->submit(app);
  sim.run();
  // §6: reallocation forces the model reload.
  EXPECT_NEAR(after.record->cold_start.seconds(), 2.0, 0.01);
  (void)first;
}

TEST_F(GpuFaasFixture, RestartChangesPercentage) {
  auto ex = make_gpu_executor({100.0});
  gpu::ContextOptions opts;
  opts.active_thread_percentage = 25.0;
  auto f = ex->restart_worker(0, opts);
  sim.run();
  auto h = ex->submit(std::make_shared<const AppDef>(kernel_app("a")));
  sim.run();
  EXPECT_DOUBLE_EQ(std::get<double>(h.future.value()), 27.0);
  (void)f;
}

TEST_F(GpuFaasFixture, ParkedWorkerDefersTasks) {
  auto ex = make_gpu_executor({100.0});
  sim.run();  // boot
  auto parked = ex->park_worker(0);
  sim.run();
  EXPECT_TRUE(parked.ready());
  EXPECT_EQ(dev.context_count(), 0u);
  // Task submitted while parked waits for the restart.
  auto h = ex->submit(std::make_shared<const AppDef>(kernel_app("late")));
  sim.run_until(sim.now() + 60_s);
  EXPECT_FALSE(h.future.ready());
  (void)ex->restart_worker(0, std::nullopt);
  sim.run();
  EXPECT_TRUE(h.future.ready());
  EXPECT_FALSE(h.future.failed());
}

TEST_F(GpuFaasFixture, OomModelFailsTask) {
  auto ex = make_gpu_executor({100.0, 100.0});
  const auto big =
      std::make_shared<const AppDef>(kernel_app("big", 50 * util::GB));
  auto a = ex->submit(big);
  auto b = ex->submit(big);  // second worker: 100 GB > 80 GB pool
  sim.run();
  const int failures = (a.future.failed() ? 1 : 0) + (b.future.failed() ? 1 : 0);
  EXPECT_EQ(failures, 1);
}

TEST_F(FaasFixture, InterchangeIsFifo) {
  auto ex = make_cpu_executor(1);
  // Fill the single worker, then queue four tasks: they must start in submit
  // order, each the moment the one before it finishes.
  auto running = ex->submit(std::make_shared<const AppDef>(sleep_app("r", 10_s)));
  sim.run_until(sim.now() + 2_s);  // "r" is now executing on the worker
  std::vector<AppHandle> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(ex->submit(
        std::make_shared<const AppDef>(sleep_app("q" + std::to_string(i), 1_s))));
  }
  sim.run();
  util::TimePoint prev = running.record->finished;
  for (const auto& h : queued) {
    EXPECT_EQ(h.record->started, prev) << h.record->app;
    prev = h.record->finished;
  }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST_F(GpuFaasFixture, InjectedCrashFailsTaskAndRespawnsWorker) {
  // The booted worker takes the victim at once and crashes halfway through
  // its kernel.
  faults::FaultInjector fi(
      sim, worker_crash_at("gpu", gpu_boot() + app_kernel_time(dev) / 2));
  auto ex = make_gpu_executor({100.0});
  auto h = ex->submit(std::make_shared<const AppDef>(kernel_app("victim")));
  sim.run();
  EXPECT_TRUE(h.future.failed());
  EXPECT_NE(h.record->error.find("crashed"), std::string::npos);
  EXPECT_EQ(ex->worker_info(0).restarts, 1);
  EXPECT_TRUE(ex->worker_info(0).alive);
  // Next task succeeds on the respawned process.
  auto h2 = ex->submit(std::make_shared<const AppDef>(kernel_app("next")));
  sim.run();
  EXPECT_FALSE(h2.future.failed());
}

TEST_F(GpuFaasFixture, CrashWipesWarmState) {
  // The second task reaches the warm worker at 60 s, and the worker crashes
  // halfway through its kernel.
  const util::TimePoint lost_at = util::TimePoint{} + 60_s;
  faults::FaultInjector fi(
      sim, worker_crash_at("gpu", lost_at + app_kernel_time(dev) / 2));
  auto ex = make_gpu_executor({100.0});
  const auto app =
      std::make_shared<const AppDef>(kernel_app("m", 10 * util::GB));
  auto warm = ex->submit(app);
  sim.run_until(lost_at);
  EXPECT_NEAR(warm.record->cold_start.seconds(), 2.0, 0.01);
  auto lost = ex->submit(app);
  sim.run();
  EXPECT_TRUE(lost.future.failed());
  // Model must reload after the crash (process memory is gone).
  auto reload = ex->submit(app);
  sim.run();
  EXPECT_NEAR(reload.record->cold_start.seconds(), 2.0, 0.01);
}

TEST_F(FaasFixture, DfkRetryRecoversFromWorkerCrash) {
  // The worker crashes halfway through the first attempt.
  faults::FaultInjector fi(sim, worker_crash_at("cpu", cpu_boot() + 500_ms));
  Config cfg;
  cfg.retries = 1;
  DataFlowKernel dfk(sim, cfg);
  auto ex_owned = make_cpu_executor(1);
  auto* ex = ex_owned.get();
  dfk.add_executor(std::move(ex_owned));
  auto h = dfk.submit(sleep_app("resilient", 1_s), "cpu");
  sim.run();
  // First attempt lost to the crash; the retry lands on the respawned worker.
  EXPECT_FALSE(h.future.failed());
  EXPECT_EQ(h.record->tries, 2);
  EXPECT_EQ(ex->worker_info(0).restarts, 1);
}

TEST_F(FaasFixture, CrashedWorkerDoesNotLoseQueuedTasks) {
  // The worker crashes halfway through "a", with "b" queued behind it.
  faults::FaultInjector fi(sim, worker_crash_at("cpu", cpu_boot() + 500_ms));
  auto ex = make_cpu_executor(1);
  auto a = ex->submit(std::make_shared<const AppDef>(sleep_app("a", 1_s)));
  auto b = ex->submit(std::make_shared<const AppDef>(sleep_app("b", 1_s)));
  sim.run();
  EXPECT_TRUE(a.future.failed());   // lost to the crash
  EXPECT_FALSE(b.future.failed());  // served after respawn
}

// ---------------------------------------------------------------------------
// DataFlowKernel
// ---------------------------------------------------------------------------

TEST_F(FaasFixture, DfkRoutesByLabel) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(1));
  EXPECT_THROW((void)dfk.executor("nope"), util::NotFoundError);
  auto h = dfk.submit(sleep_app("s", 1_s), "cpu");
  sim.run();
  EXPECT_TRUE(h.future.ready());
  EXPECT_EQ(dfk.tasks_submitted(), 1u);
}

TEST_F(FaasFixture, DfkDuplicateLabelRejected) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(1));
  EXPECT_THROW(dfk.add_executor(make_cpu_executor(1)), util::ConfigError);
}

TEST_F(FaasFixture, DfkRetriesTransientFailure) {
  Config cfg;
  cfg.retries = 1;  // Listing 1
  DataFlowKernel dfk(sim, cfg);
  dfk.add_executor(make_cpu_executor(1));
  auto count = std::make_shared<int>(0);
  auto h = dfk.submit(failing_app("flaky", 1, count), "cpu");
  sim.run();
  EXPECT_FALSE(h.future.failed());
  EXPECT_EQ(h.record->tries, 2);
  EXPECT_EQ(dfk.tasks_failed(), 0u);
}

TEST_F(FaasFixture, DfkExhaustsRetries) {
  Config cfg;
  cfg.retries = 2;
  DataFlowKernel dfk(sim, cfg);
  dfk.add_executor(make_cpu_executor(1));
  auto count = std::make_shared<int>(0);
  auto h = dfk.submit(failing_app("hopeless", 100, count), "cpu");
  sim.run();
  EXPECT_TRUE(h.future.failed());
  EXPECT_EQ(h.record->tries, 3);  // 1 + 2 retries
  EXPECT_EQ(dfk.tasks_failed(), 1u);
  EXPECT_EQ(*count, 3);
}

TEST_F(FaasFixture, DfkDependenciesOrderExecution) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(4));
  auto a = dfk.submit(sleep_app("a", 5_s), "cpu");
  auto b = dfk.submit_after({a.future}, sleep_app("b", 1_s), "cpu");
  sim.run();
  EXPECT_GE(b.record->started.ns, a.record->finished.ns);
}

TEST_F(FaasFixture, DfkFailedDependencyFailsChild) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(2));
  auto count = std::make_shared<int>(0);
  auto bad = dfk.submit(failing_app("bad", 100, count), "cpu");
  auto child = dfk.submit_after({bad.future}, sleep_app("child", 1_s), "cpu");
  sim.run();
  EXPECT_TRUE(child.future.failed());
  EXPECT_EQ(child.record->error, "dependency failed");
}

TEST_F(FaasFixture, DfkShutdown) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(2));
  for (int i = 0; i < 5; ++i) (void)dfk.submit(sleep_app("s", 1_s), "cpu");
  sim.spawn(dfk.shutdown());
  sim.run();
  EXPECT_EQ(dfk.tasks_failed(), 0u);
  EXPECT_EQ(dfk.executor("cpu").outstanding(), 0u);
}

/// Awaits `wait` and stamps the virtual time it returned at.
sim::Co<void> stamp_return(sim::Simulator* sim, sim::Co<void> wait,
                           std::optional<util::TimePoint>* at) {
  co_await std::move(wait);
  *at = sim->now();
}

// The wait covers a task a running task submits from its body, and one a
// process awaiting that task submits in the same instant the count reaches
// zero.
TEST_F(FaasFixture, DfkWaitAllSettledCoversTasksSubmittedFromATaskBody) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(2));
  auto child = std::make_shared<AppHandle>();
  auto grandchild = std::make_shared<AppHandle>();
  AppDef parent;
  parent.name = "parent";
  parent.body = [&dfk, child, grandchild](TaskContext& ctx) -> sim::Co<AppValue> {
    co_await ctx.compute(1_s);
    *child = dfk.submit(sleep_app("child", 5_s), "cpu");
    ctx.sim().spawn([](DataFlowKernel& d, sim::Future<AppValue> settled,
                       std::shared_ptr<AppHandle> out) -> sim::Co<void> {
      co_await settled;
      *out = d.submit(sleep_app("grandchild", 2_s), "cpu");
    }(dfk, child->future, grandchild));
    co_return AppValue{1.0};
  };
  (void)dfk.submit(std::move(parent), "cpu");
  std::optional<util::TimePoint> returned;
  sim.spawn(stamp_return(&sim, dfk.wait_all_settled(), &returned));
  sim.run();
  ASSERT_TRUE(returned.has_value());
  ASSERT_TRUE(grandchild->future.ready());
  EXPECT_GE(*returned, child->record->finished);
  EXPECT_GE(*returned, grandchild->record->finished);
}

TEST_F(FaasFixture, DfkWaitAllSettledReturnsAtOnceWhenIdle) {
  DataFlowKernel dfk(sim, Config{});
  dfk.add_executor(make_cpu_executor(1));
  (void)dfk.submit(sleep_app("s", 1_s), "cpu");
  sim.run();
  const util::TimePoint idle_at = sim.now();
  std::optional<util::TimePoint> returned;
  sim.spawn(stamp_return(&sim, dfk.wait_all_settled(), &returned));
  sim.run();
  ASSERT_TRUE(returned.has_value());
  EXPECT_EQ(*returned, idle_at);
}

// ---------------------------------------------------------------------------
// Retry backoff (fault-recovery layer)
// ---------------------------------------------------------------------------

TEST_F(FaasFixture, DfkBackoffDoublesAndCaps) {
  Config cfg;
  cfg.retries = 4;
  cfg.retry_backoff = 20_s;
  DataFlowKernel dfk(sim, cfg);
  dfk.add_executor(make_cpu_executor(1));
  auto count = std::make_shared<int>(0);
  auto h = dfk.submit(failing_app("hopeless", 100, count), "cpu");
  sim.run();
  EXPECT_TRUE(h.future.failed());
  EXPECT_EQ(h.record->tries, 5);
  // Pauses between the five attempts double from the base and stop at the
  // 60 s cap: 20 + 40 + min(80, 60) + min(160, 60) = 180 s.
  EXPECT_EQ(h.record->backoff_total, 180_s);
}

}  // namespace
}  // namespace faaspart::faas
