// Chaos tests for the online Repartitioner (DESIGN.md §13): faults injected
// while the optimizer relays out devices under live load. The Reconfigurer's
// MIG→MPS→timeshare ladder must absorb MIG create failures and a dead MPS
// daemon, Poisson device errors must not break the settlement ledger, and
// no request may reach an endpoint mid-reset — the src/faults analogue of
// the clean-path properties in tests/prop/prop_repartition.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faults/faults.hpp"
#include "federation/cluster.hpp"
#include "federation/repartition.hpp"
#include "scenario/driver.hpp"
#include "util/strings.hpp"

namespace faaspart::federation {
namespace {

using namespace util::literals;

// Two-phase demand flip: fn-hot dense over [0, 3 s), fn-cold takes over on
// [3 s, 6 s). The first optimizer cycle (interval 1 s) sees ~13 Hz of hot
// demand against a balanced 3g+3g static layout whose hot capacity is far
// lower, so a relayout is guaranteed inside the horizon — deterministically,
// no search.
scenario::Trace chaos_trace() {
  scenario::Trace t;
  t.horizon = 8_s;
  federation::FunctionClass cls;
  cls.weight = 1.0;
  cls.service_estimate = 10_ms;
  t.catalog.push_back({"fn-hot", "interactive", cls});
  t.catalog.push_back({"fn-cold", "batch", cls});
  for (int i = 0; i < 40; ++i) {
    t.events.push_back({util::TimePoint{} + util::milliseconds(75 * i),
                        "fn-hot"});
  }
  for (int i = 0; i < 20; ++i) {
    t.events.push_back(
        {util::TimePoint{} + 3_s + util::milliseconds(150 * i), "fn-cold"});
  }
  return t;
}

faas::AppDef compute_app() {
  faas::AppDef app;
  // faaspart-lint: allow(C2) -- the lambda lives in AppDef::body for the
  // whole run and captures nothing.
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(10_ms);
    co_return faas::AppValue{1.0};
  };
  return app;
}

faas::AppDef kernel_app() {
  faas::AppDef app;
  // faaspart-lint: allow(C2) -- same AppDef::body lifetime as above.
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    // ~2 ms on a 3g slice; real GPU work so injected device errors have
    // in-flight kernels to abort.
    gpu::KernelDesc k{"chaos-k", gpu::KernelKind::kGemm, 1.2e12, 64 * util::MB,
                      108, 0.5};
    co_await ctx.launch(std::move(k));
    co_return faas::AppValue{1.0};
  };
  return app;
}

// The serving stack under test: 2 GPU endpoints, both tenants on 3g.40gb
// everywhere, the online Repartitioner replanning every virtual second.
// The FaultInjector is built from `plan` BEFORE the endpoints so the
// devices subscribe to device-error / MPS-death faults in their ctors.
struct ChaosWorld {
  sim::Simulator sim;
  faults::FaultInjector fi;
  ComputeService service{sim};
  std::unique_ptr<ClusterService> cluster;
  std::unique_ptr<scenario::TraceDriver> driver;
  std::unique_ptr<Repartitioner> repart;

  explicit ChaosWorld(faults::FaultPlan plan, bool gpu_kernels = false)
      : fi(sim, std::move(plan)) {
    const gpu::GpuArchSpec arch = gpu::arch::a100_80gb();
    for (const std::string name : {"ep-a", "ep-b"}) {
      Endpoint::Options eo;
      eo.name = name;
      eo.cpu_cores = 4;
      eo.rtt = 1_ms;
      eo.gpus = {arch};
      auto ep = std::make_unique<Endpoint>(sim, eo);
      ep->enable_weight_cache();
      gpu::Device& dev = ep->devices().device(0);
      dev.enable_mig();
      for (const char* label : {"g-hot", "g-cold"}) {
        faas::HtexConfig tenant;
        tenant.label = label;
        tenant.available_accelerators = {
            dev.instance(dev.create_instance("3g.40gb")).uuid};
        ep->add_gpu_executor(tenant);
      }
      service.register_endpoint(std::move(ep));
    }
    cluster = std::make_unique<ClusterService>(
        sim, service, ClusterOptions{.policy = ClusterPolicy::kLeastLoaded});
    driver = std::make_unique<scenario::TraceDriver>(sim, *cluster,
                                                     chaos_trace());
    driver->bind_all(
        [gpu_kernels](const scenario::TraceFunction&) {
          return gpu_kernels ? kernel_app() : compute_app();
        },
        [](const scenario::TraceFunction& f) {
          return std::string(f.name == "fn-hot" ? "g-hot" : "g-cold");
        });

    // Crafted scores: upgrading hot 3g→7g triples its capacity while cold
    // barely benefits, so the planner's first move is always the hot
    // upgrade — the relayout the armed faults then ambush.
    std::vector<RepartitionTenant> tenants(2);
    tenants[0].function_id = driver->function_id("fn-hot");
    tenants[0].executor_label = "g-hot";
    tenants[0].memory = 1 * util::GB;
    tenants[0].scores = {{"3g.40gb", 1.0, 1.0}, {"7g.80gb", 1.0 / 3.0, 3.0}};
    tenants[0].initial_profile = "3g.40gb";
    tenants[1].function_id = driver->function_id("fn-cold");
    tenants[1].executor_label = "g-cold";
    tenants[1].memory = 1 * util::GB;
    tenants[1].scores = {{"3g.40gb", 1.0, 1.0}, {"7g.80gb", 1.0 / 1.2, 1.2}};
    tenants[1].initial_profile = "3g.40gb";
    RepartitionerOptions ro;
    ro.interval = 1_s;
    ro.planner.reset_cost_s = 0.5;
    ro.planner.horizon_s = 60.0;
    ro.planner.min_gain_hz = 0.0;
    repart = std::make_unique<Repartitioner>(sim, *cluster, std::move(tenants),
                                             ro);
    repart->add_endpoint(service.endpoint("ep-a"));
    repart->add_endpoint(service.endpoint("ep-b"));
  }

  scenario::ReplayReport run() {
    sim.spawn(repart->run(util::TimePoint{} + driver->trace().horizon),
              "repartitioner");
    driver->start();
    sim.spawn(drain(driver->trace().horizon + 30_s), "chaos-drain");
    sim.run();
    return driver->report();
  }

  sim::Co<void> drain(util::Duration at_least) {
    co_await sim.delay(at_least);
    co_await cluster->shutdown();
  }
};

void expect_settled_exactly_once(const scenario::ReplayReport& rep,
                                 const ChaosWorld& w) {
  EXPECT_EQ(rep.submitted, w.driver->trace().events.size());
  EXPECT_EQ(rep.completed + rep.shed + rep.failed, rep.submitted)
      << "settlement leak: a request was lost or double-settled";
  EXPECT_EQ(rep.unsettled, 0u) << "request still pending after drain";
  EXPECT_EQ(w.cluster->stats().mid_reset_dispatches, 0u);
}

bool any_degradation_to(const faults::FaultInjector& fi,
                        const std::string& mode) {
  const std::string needle = "-> " + mode;
  return std::any_of(fi.degradations().begin(), fi.degradations().end(),
                     [&needle](const std::string& d) {
                       return d.find(needle) != std::string::npos;
                     });
}

TEST(RepartitionChaos, MigCreateFailureDuringLiveRelayoutDegradesToMps) {
  faults::FaultPlan plan;
  faults::FaultEvent arm;
  arm.kind = faults::FaultKind::kMigCreateFail;
  arm.target = "gpu:0";  // both endpoints' device 0 — first create consumes it
  plan.schedule.push_back(arm);
  ChaosWorld w(plan);
  const scenario::ReplayReport rep = w.run();

  ASSERT_GE(w.repart->applies(), 1u) << "the demand flip never triggered a "
                                        "relayout; the fault was not exercised";
  int degraded_cycles = 0;
  for (const RepartitionCycle& c : w.repart->cycles()) {
    degraded_cycles += c.degraded;
  }
  EXPECT_GE(degraded_cycles, 1);
  EXPECT_TRUE(any_degradation_to(w.fi, "mps"))
      << "expected a mig -> mps fallback in " << w.fi.degradations().size()
      << " degradation records";

  expect_settled_exactly_once(rep, w);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.completed, rep.submitted)
      << "requests were lost across the degraded relayout";
}

TEST(RepartitionChaos, DeadMpsDaemonPushesTheFallbackToTimeshare) {
  faults::FaultPlan plan;
  faults::FaultEvent daemon_death;
  daemon_death.kind = faults::FaultKind::kMpsDaemonDeath;
  daemon_death.target = "gpu:0";
  plan.schedule.push_back(daemon_death);
  faults::FaultEvent arm = daemon_death;
  arm.kind = faults::FaultKind::kMigCreateFail;
  plan.schedule.push_back(arm);
  ChaosWorld w(plan);
  const scenario::ReplayReport rep = w.run();

  ASSERT_GE(w.repart->applies(), 1u);
  EXPECT_FALSE(w.fi.mps_available("gpu:0"));
  EXPECT_TRUE(any_degradation_to(w.fi, "timeshare"))
      << "with MPS dead the ladder's bottom rung must catch the relayout";

  expect_settled_exactly_once(rep, w);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.completed, rep.submitted);
}

TEST(RepartitionChaos, PoissonDeviceErrorsKeepTheLedgerExact) {
  faults::FaultPlan plan;
  plan.seed = 7;
  plan.device_error_rate_hz = 1.0;
  plan.horizon = util::TimePoint{} + 8_s;
  ChaosWorld w(plan, /*gpu_kernels=*/true);
  const scenario::ReplayReport rep = w.run();

  EXPECT_GT(w.fi.stats().delivered[static_cast<int>(
                faults::FaultKind::kDeviceError)],
            0u)
      << "no device error delivered; the chaos run tested nothing";
  // Aborted kernels may fail their requests — but nothing may be lost,
  // double-settled, or dispatched into a mid-reset endpoint.
  expect_settled_exactly_once(rep, w);
  EXPECT_GT(rep.completed, 0u) << "the fleet never recovered";
}

}  // namespace
}  // namespace faaspart::federation
