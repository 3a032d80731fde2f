#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "faults/faults.hpp"
#include "federation/cluster.hpp"
#include "util/error.hpp"
#include "workloads/llama.hpp"

namespace faaspart::federation {
namespace {

using namespace util::literals;

struct FederationFixture : ::testing::Test {
  sim::Simulator sim;
  ComputeService service{sim};

  Endpoint& make_endpoint(const std::string& name, int gpus,
                          util::Duration rtt) {
    Endpoint::Options opts;
    opts.name = name;
    opts.cpu_cores = 24;
    opts.rtt = rtt;
    for (int g = 0; g < gpus; ++g) opts.gpus.push_back(gpu::arch::a100_80gb());
    auto ep = std::make_unique<Endpoint>(sim, std::move(opts));
    Endpoint& ref = service.register_endpoint(std::move(ep));
    faas::HtexConfig cfg;
    cfg.label = "gpu";
    for (int g = 0; g < gpus; ++g) {
      cfg.available_accelerators.push_back(std::to_string(g));
    }
    ref.add_gpu_executor(cfg);
    return ref;
  }

  faas::AppDef quick_app(util::Duration d = 1_s) {
    faas::AppDef app;
    app.name = "quick";
    app.body = [d](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      co_await ctx.compute(d);
      co_return faas::AppValue{1.0};
    };
    return app;
  }
};

TEST_F(FederationFixture, RegistrationAndLookup) {
  make_endpoint("hpc-site", 2, 40_ms);
  make_endpoint("edge-box", 1, 5_ms);
  EXPECT_EQ(service.endpoint_count(), 2u);
  EXPECT_EQ(service.endpoint("hpc-site").name(), "hpc-site");
  EXPECT_THROW((void)service.endpoint("nope"), util::NotFoundError);
  const auto names = service.endpoint_names();
  EXPECT_EQ(names.size(), 2u);
}

TEST_F(FederationFixture, DuplicateEndpointRejected) {
  make_endpoint("a", 1, 1_ms);
  Endpoint::Options opts;
  opts.name = "a";
  EXPECT_THROW(service.register_endpoint(std::make_unique<Endpoint>(sim, opts)),
               util::ConfigError);
}

TEST_F(FederationFixture, FunctionRegistry) {
  make_endpoint("site", 1, 10_ms);
  ClusterService cluster(sim, service);
  const auto id = service.register_function(quick_app());
  EXPECT_NE(id.find("quick"), std::string::npos);
  EXPECT_THROW((void)cluster.submit("fn-unknown", "gpu"), util::NotFoundError);
}

/// Awaits `f` and stamps the virtual time it settled at.
sim::Co<void> stamp_settle(sim::Simulator* sim, sim::Future<faas::AppValue> f,
                           std::shared_ptr<util::TimePoint> at) {
  co_await f;
  *at = sim->now();
}

TEST_F(FederationFixture, SubmitChargesWanRtt) {
  make_endpoint("site", 1, 100_ms);
  ClusterService cluster(sim, service);
  const auto fn = service.register_function(quick_app(1_s));
  auto settled_at = std::make_shared<util::TimePoint>();
  auto h = cluster.submit(fn, "gpu");
  sim.spawn(stamp_settle(&sim, h.future, settled_at));
  sim.run();
  EXPECT_FALSE(h.future.failed());
  // The run time itself excludes the WAN (endpoint-side measurement).
  EXPECT_NEAR(h.record->run_time().seconds(), 1.0, 1e-9);
  // The result settles only after the full round trip: the dispatch leg
  // precedes the endpoint-side start, the return leg follows the finish.
  EXPECT_GE(h.record->started.seconds() - h.record->submitted.seconds(), 0.05);
  EXPECT_GE(settled_at->seconds() - h.record->finished.seconds(), 0.05 - 1e-9);
}

TEST_F(FederationFixture, RoundRobinAlternates) {
  make_endpoint("a", 1, 1_ms);
  make_endpoint("b", 1, 1_ms);
  ClusterService cluster(sim, service, {.policy = ClusterPolicy::kRoundRobin});
  const auto fn = service.register_function(quick_app());
  for (int i = 0; i < 6; ++i) (void)cluster.submit(fn, "gpu");
  sim.run();
  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("a"), 3u);
  EXPECT_EQ(counts.at("b"), 3u);
}

TEST_F(FederationFixture, LeastLoadedPrefersIdleEndpoint) {
  make_endpoint("busy", 1, 1_ms);
  Endpoint& idle = make_endpoint("idle", 1, 1_ms);
  // Enough credits that only the load score, never a full endpoint, decides.
  ClusterService cluster(sim, service, {.policy = ClusterPolicy::kLeastLoaded,
                                        .inflight_per_slot = 8.0});
  const auto fn = service.register_function(quick_app(30_s));
  // The cluster counts its own dispatches as load, so pre-load "busy"
  // through it while "idle" does not serve the function.
  idle.set_serving(fn, false);
  for (int i = 0; i < 4; ++i) (void)cluster.submit(fn, "gpu");
  sim.run_until(sim.now() + 2_s);
  idle.set_serving(fn, true);
  cluster.notify_endpoints_changed();
  // Routed submissions now see the imbalance and pick the idle endpoint.
  for (int i = 0; i < 3; ++i) (void)cluster.submit(fn, "gpu");
  sim.run();
  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("busy"), 4u);
  EXPECT_EQ(counts.at("idle"), 3u);
}

TEST_F(FederationFixture, HeterogeneousEndpointsServeTheSameFunction) {
  make_endpoint("big", 2, 40_ms);
  make_endpoint("small", 1, 5_ms);
  const auto fn = service.register_function(workloads::make_llama_completion_app(
      "chat", workloads::llama2_7b(), workloads::serving_config(), {16, 4}));
  ClusterService cluster(sim, service, {.policy = ClusterPolicy::kRoundRobin});
  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 6; ++i) hs.push_back(cluster.submit(fn, "gpu"));
  sim.spawn(cluster.shutdown());
  sim.run();
  for (const auto& h : hs) {
    EXPECT_EQ(h.record->state, faas::TaskRecord::State::kDone);
  }
  EXPECT_EQ(cluster.stats().dispatched, 6u);
}

/// Awaits `wait` and stamps the virtual time it returned at.
sim::Co<void> stamp_return(sim::Simulator* sim, sim::Co<void> wait,
                           std::optional<util::TimePoint>* at) {
  co_await std::move(wait);
  *at = sim->now();
}

TEST_F(FederationFixture, ClusterShutdownWaitsForRequestsAdmittedDuringTheWait) {
  Endpoint& site = make_endpoint("site", 1, 200_ms);
  ClusterService cluster(sim, service);
  const auto fn = service.register_function(quick_app(1_s));
  (void)cluster.submit(fn, "gpu");
  auto late = std::make_shared<faas::AppHandle>();
  auto late_settled = std::make_shared<util::TimePoint>();
  // The late request waits in the cluster queue, with nothing outstanding
  // below it, until the endpoint serves the function again at 3 s.
  sim.schedule_at(util::TimePoint{} + 500_ms, [&, late, late_settled] {
    site.set_serving(fn, false);
    *late = cluster.submit(fn, "gpu");
    sim.spawn(stamp_settle(&sim, late->future, late_settled));
  });
  sim.schedule_at(util::TimePoint{} + 3_s, [&] {
    site.set_serving(fn, true);
    cluster.notify_endpoints_changed();
  });
  std::optional<util::TimePoint> returned;
  sim.spawn(stamp_return(&sim, cluster.shutdown(), &returned));
  sim.run();
  ASSERT_TRUE(returned.has_value());
  ASSERT_TRUE(late->future.ready());
  EXPECT_FALSE(late->future.failed());
  // The late request's result leg lands 100 ms after it finishes.
  EXPECT_GE(*returned, *late_settled);
  EXPECT_GT(*late_settled, late->record->finished);
}

TEST_F(FederationFixture, ClusterShutdownReturnsAtOnceWhenIdle) {
  make_endpoint("site", 1, 10_ms);
  ClusterService cluster(sim, service);
  const auto fn = service.register_function(quick_app(1_s));
  (void)cluster.submit(fn, "gpu");
  sim.run();
  const util::TimePoint idle_at = sim.now();
  std::optional<util::TimePoint> returned;
  sim.spawn(stamp_return(&sim, cluster.shutdown(), &returned));
  sim.run();
  ASSERT_TRUE(returned.has_value());
  EXPECT_EQ(*returned, idle_at);
}

TEST_F(FederationFixture, EndpointFailurePropagatesOverWan) {
  make_endpoint("site", 1, 10_ms);
  faas::AppDef bad;
  bad.name = "bad";
  bad.body = [](faas::TaskContext&) -> sim::Co<faas::AppValue> {
    throw util::TaskFailedError("boom");
    co_return faas::AppValue{};
  };
  ClusterService cluster(sim, service);
  const auto fn = service.register_function(std::move(bad));
  auto h = cluster.submit(fn, "gpu");
  sim.run();
  EXPECT_TRUE(h.future.failed());
  EXPECT_EQ(h.record->state, faas::TaskRecord::State::kFailed);
}

TEST_F(FederationFixture, CpuExecutorConvenience) {
  Endpoint::Options opts;
  opts.name = "cpu-only";
  opts.rtt = 1_ms;
  Endpoint& ep = service.register_endpoint(std::make_unique<Endpoint>(sim, opts));
  ep.add_cpu_executor("cpu", 4);
  ClusterService cluster(sim, service);
  const auto fn = service.register_function(quick_app());
  auto h = cluster.submit(fn, "cpu");
  sim.run();
  EXPECT_FALSE(h.future.failed());
  EXPECT_EQ(ep.devices().device_count(), 0u);
}

// Regression: with identical per-slot load, least-loaded must pick the
// lexicographically smallest endpoint name, whatever the registration
// order — the parallel-runner determinism goldens depend on it.
TEST_F(FederationFixture, LeastLoadedTieBreakPicksLowestName) {
  make_endpoint("b", 1, 1_ms);
  make_endpoint("a", 1, 1_ms);
  ClusterService cluster(sim, service, {.policy = ClusterPolicy::kLeastLoaded});
  const auto fn = service.register_function(quick_app(10_s));
  for (int i = 0; i < 3; ++i) (void)cluster.submit(fn, "gpu");
  sim.run();
  const auto counts = service.dispatch_counts();
  // Ties at (0,0) and (1,1) both go to "a"; the middle submit sees "a"
  // loaded and picks "b".
  EXPECT_EQ(counts.at("a"), 2u);
  EXPECT_EQ(counts.at("b"), 1u);
}

// Chaos property: routed dispatch never selects a WAN-partitioned endpoint
// while reachable ones exist — under either policy.
TEST_F(FederationFixture, RoutedDispatchAvoidsPartitionedEndpoint) {
  make_endpoint("near", 1, 1_ms);
  Endpoint& cut = make_endpoint("wan-cut", 1, 1_ms);
  const auto fn = service.register_function(quick_app(1_s));
  cut.partition_for(60_s);
  ClusterService least(sim, service, {.policy = ClusterPolicy::kLeastLoaded});
  ClusterService rotate(sim, service, {.policy = ClusterPolicy::kRoundRobin});
  for (int i = 0; i < 6; ++i) (void)least.submit(fn, "gpu");
  for (int i = 0; i < 4; ++i) (void)rotate.submit(fn, "gpu");
  sim.run();
  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("near"), 10u);
  EXPECT_EQ(counts.find("wan-cut"), counts.end());
  EXPECT_EQ(cut.wan_partitions(), 1u);
}

sim::Co<void> routed_arrivals(sim::Simulator* sim, ClusterService* cluster,
                              std::string fn, int n, util::Duration gap) {
  for (int i = 0; i < n; ++i) {
    (void)cluster->submit(fn, "gpu");
    co_await sim->delay(gap);
  }
}

std::map<std::string, std::size_t> counts_under_plan(std::uint64_t seed) {
  sim::Simulator sim;
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.wan_partition_rate_hz = 0.2;
  plan.wan_partition_mean = 2_s;
  plan.worker_crash_rate_hz = 0.1;
  plan.horizon = util::TimePoint{} + 30_s;
  // The injector must exist before the endpoints: they subscribe to
  // kWanPartition in their constructors via sim.faults().
  faults::FaultInjector injector(sim, plan);
  ComputeService service(sim);
  for (const std::string name : {"a", "b", "c"}) {
    Endpoint::Options opts;
    opts.name = name;
    opts.rtt = 5_ms;
    opts.gpus = {gpu::arch::a100_80gb()};
    Endpoint& ep =
        service.register_endpoint(std::make_unique<Endpoint>(sim, opts));
    faas::HtexConfig cfg;
    cfg.label = "gpu";
    cfg.available_accelerators = {"0"};
    ep.add_gpu_executor(cfg);
  }
  faas::AppDef app;
  app.name = "quick";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(1_s);
    co_return faas::AppValue{1.0};
  };
  const auto fn = service.register_function(std::move(app));
  ClusterService cluster(sim, service, {.policy = ClusterPolicy::kLeastLoaded});
  sim.spawn(routed_arrivals(&sim, &cluster, fn, 30, 500_ms), "arrivals");
  sim.run();
  return service.dispatch_counts();
}

// Chaos property: with the same seed and the same FaultPlan, routing
// decisions replay bit-for-bit — partitions, crashes and all.
TEST(FederationChaos, SameSeedSameFaultPlanSameDispatchCounts) {
  const auto first = counts_under_plan(11);
  const auto second = counts_under_plan(11);
  EXPECT_EQ(first, second);
  std::size_t total = 0;
  for (const auto& [name, n] : first) total += n;
  EXPECT_EQ(total, 30u);  // nothing silently dropped either
}

// Chaos property: a worker-crash storm never loses a routed future — every
// submit settles as kDone or (retries exhausted) kFailed.
TEST(FederationChaos, CrashStormEveryRoutedFutureSettles) {
  sim::Simulator sim;
  faults::FaultPlan plan;
  plan.seed = 5;
  plan.worker_crash_rate_hz = 1.0;
  plan.horizon = util::TimePoint{} + 60_s;
  faults::FaultInjector injector(sim, plan);
  ComputeService service(sim);
  for (const std::string name : {"left", "right"}) {
    Endpoint::Options opts;
    opts.name = name;
    opts.rtt = 2_ms;
    opts.gpus = {gpu::arch::a100_80gb()};
    opts.dfk_retries = 2;
    Endpoint& ep =
        service.register_endpoint(std::make_unique<Endpoint>(sim, opts));
    faas::HtexConfig cfg;
    cfg.label = "gpu";
    cfg.available_accelerators = {"0"};
    ep.add_gpu_executor(cfg);
  }
  faas::AppDef app;
  app.name = "sleepy";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(2_s);
    co_return faas::AppValue{1.0};
  };
  const auto fn = service.register_function(std::move(app));
  ClusterService cluster(sim, service, {.policy = ClusterPolicy::kLeastLoaded});
  std::vector<faas::AppHandle> handles;
  for (int i = 0; i < 20; ++i) handles.push_back(cluster.submit(fn, "gpu"));
  sim.run();
  EXPECT_GT(injector.stats().injected_total(), 0u);
  for (const auto& h : handles) {
    ASSERT_TRUE(h.future.ready());
    EXPECT_TRUE(h.record->state == faas::TaskRecord::State::kDone ||
                h.record->state == faas::TaskRecord::State::kFailed);
  }
}

}  // namespace
}  // namespace faaspart::federation
