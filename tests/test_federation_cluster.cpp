// The cluster serving layer (federation/cluster.hpp, DESIGN.md §9): WFQ
// arithmetic, token-bucket admission, every shed reason, the two rules the
// routing walk keeps (partitioned endpoints wait behind reachable ones under
// every policy; a request that waits leaves the round-robin cursor alone),
// sticky routing's reload advantage over round-robin, and the
// calibration-style property of admission — at 2x saturation, shedding
// keeps admitted-request p99 within 3x the unloaded p99.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "federation/cluster.hpp"
#include "trace/stats.hpp"
#include "util/error.hpp"
#include "workloads/serving.hpp"

namespace faaspart::federation {
namespace {

using namespace util::literals;

// -- WfqScheduler ------------------------------------------------------------

// Pop everything, returning the flow sequence. Items carry their flow name.
std::vector<std::string> drain(WfqScheduler<std::string>& q) {
  std::vector<std::string> order;
  while (!q.empty()) {
    const std::string flow = q.peek();  // copy before pop erases the owner
    order.push_back(q.pop(flow));
  }
  return order;
}

TEST(Wfq, BackloggedFlowsDrainInWeightProportion) {
  WfqScheduler<std::string> q;
  q.set_weight("heavy", 2.0);
  q.set_weight("light", 1.0);
  for (int i = 0; i < 6; ++i) q.push("heavy", 1.0, "heavy");
  for (int i = 0; i < 6; ++i) q.push("light", 1.0, "light");
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 12u);
  // Finish tags: heavy at 0.5, 1, ..., 3; light at 1, 2, ..., 6 — the first
  // nine dequeues give heavy its full 2:1 share.
  int heavy = 0;
  for (int i = 0; i < 9; ++i) heavy += order[static_cast<std::size_t>(i)] == "heavy";
  EXPECT_EQ(heavy, 6);
  EXPECT_EQ(q.queued("heavy"), 0u);
  EXPECT_EQ(q.queued("light"), 0u);
}

TEST(Wfq, FifoWithinOneFlow) {
  WfqScheduler<int> q;
  for (int i = 0; i < 5; ++i) q.push("f", 1.0, i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop("f"), i);
}

TEST(Wfq, LateArrivalStartsAtTheVirtualClockNotAtZero) {
  WfqScheduler<std::string> q;
  // Drain flow "a" far ahead, then let "b" arrive: its finish tag starts at
  // the virtual clock, so "a"'s backlog does not starve behind it — the two
  // then interleave fairly.
  for (int i = 0; i < 4; ++i) q.push("a", 1.0, "a");
  (void)q.pop("a");
  (void)q.pop("a");
  EXPECT_GT(q.virtual_time(), 0.0);
  q.push("b", 1.0, "b");
  q.push("b", 1.0, "b");
  const auto order = drain(q);
  // "b" does not jump the whole residual backlog: one "a" (tag 3) lands in
  // between (b tags start at V=2: 3 and 4).
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(Wfq, RejectsNonPositiveWeightAndCost) {
  WfqScheduler<int> q;
  EXPECT_THROW(q.set_weight("f", 0.0), util::Error);
  EXPECT_THROW(q.push("f", 0.0, 1), util::Error);
}

// -- TokenBucket -------------------------------------------------------------

TEST(TokenBucketTest, BurstThenSteadyRefill) {
  const util::TimePoint t0{};
  TokenBucket bucket(/*rate_hz=*/10.0, /*burst=*/5.0, t0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.try_take(t0)) << i;
  EXPECT_FALSE(bucket.try_take(t0));
  // 100 ms at 10 Hz refills exactly one token.
  EXPECT_TRUE(bucket.try_take(t0 + 100_ms));
  EXPECT_FALSE(bucket.try_take(t0 + 100_ms));
  // A long idle stretch caps at the burst, not at rate * elapsed.
  EXPECT_NEAR(bucket.tokens(t0 + 60_s), 5.0, 1e-9);
}

TEST(TokenBucketTest, RejectsBadParameters) {
  EXPECT_THROW(TokenBucket(0.0, 5.0), util::Error);
  EXPECT_THROW(TokenBucket(1.0, 0.5), util::Error);
}

// -- ClusterService on CPU endpoints ----------------------------------------

sim::Co<void> shutdown_after(sim::Simulator* sim, ClusterService* cluster,
                             util::Duration delay) {
  co_await sim->delay(delay);
  co_await cluster->shutdown();
}

/// A fresh simulator and ComputeService with CPU endpoints and a compute
/// function; a test that compares policies builds one per policy.
struct CpuFleet {
  sim::Simulator sim;
  ComputeService service{sim};

  Endpoint& make_cpu_endpoint(const std::string& name, int workers,
                              util::Duration rtt = 1_ms) {
    Endpoint::Options opts;
    opts.name = name;
    opts.rtt = rtt;
    Endpoint& ep =
        service.register_endpoint(std::make_unique<Endpoint>(sim, opts));
    ep.add_cpu_executor("cpu", workers);
    return ep;
  }

  std::string register_compute_fn(util::Duration d) {
    faas::AppDef app;
    app.name = "compute";
    app.body = [d](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      co_await ctx.compute(d);
      co_return faas::AppValue{1.0};
    };
    return service.register_function(std::move(app));
  }
};

struct ClusterFixture : ::testing::Test, CpuFleet {};

constexpr ClusterPolicy kEveryPolicy[] = {
    ClusterPolicy::kRoundRobin, ClusterPolicy::kLeastLoaded,
    ClusterPolicy::kSticky, ClusterPolicy::kSloAware};

TEST_F(ClusterFixture, RateLimitShedsWithShedErrorAndCountsReason) {
  make_cpu_endpoint("ep", 2);
  const auto fn = register_compute_fn(100_ms);
  ClusterService cluster(sim, service);
  FunctionClass cls;
  cls.rate_hz = 1.0;
  cls.burst = 1.0;
  cluster.configure_function(fn, cls);

  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 3; ++i) hs.push_back(cluster.submit(fn, "cpu"));
  sim.spawn(shutdown_after(&sim, &cluster, 1_s), "drain");
  sim.run();

  EXPECT_EQ(cluster.stats().submitted, 3u);
  EXPECT_EQ(cluster.stats().admitted, 1u);
  EXPECT_EQ(cluster.stats().shed, 2u);
  EXPECT_EQ(cluster.stats().shed_by_reason.at("rate-limit"), 2u);
  EXPECT_FALSE(hs[0].future.failed());
  for (int i = 1; i < 3; ++i) {
    EXPECT_TRUE(hs[static_cast<std::size_t>(i)].future.failed());
    EXPECT_EQ(hs[static_cast<std::size_t>(i)].record->state,
              faas::TaskRecord::State::kFailed);
    EXPECT_EQ(hs[static_cast<std::size_t>(i)].record->error,
              "shed: rate-limit");
  }
}

TEST_F(ClusterFixture, QueueCapShedsBeyondMaxQueue) {
  make_cpu_endpoint("ep", 1);
  const auto fn = register_compute_fn(10_s);
  ClusterService cluster(sim, service);
  FunctionClass cls;
  cls.max_queue = 2;
  cluster.configure_function(fn, cls);

  // All six land in the same instant. The first submit starts the pump,
  // which dispatches it on the spot; the pump then parks until the simulator
  // runs, so the next two queue and the remaining three bounce off the cap.
  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 6; ++i) hs.push_back(cluster.submit(fn, "cpu"));
  EXPECT_EQ(cluster.stats().shed_by_reason.at("queue-full"), 3u);
  sim.spawn(shutdown_after(&sim, &cluster, 1_ms), "drain");
  sim.run();
  EXPECT_EQ(cluster.stats().admitted, 3u);
  EXPECT_EQ(cluster.stats().dispatched, 3u);
}

TEST_F(ClusterFixture, QueuedRequestsPastTheirDeadlineShedAtDispatch) {
  make_cpu_endpoint("ep", 1);
  const auto fn = register_compute_fn(10_s);
  ClusterOptions opts;
  opts.inflight_per_slot = 0.5;  // exactly one dispatch credit
  ClusterService cluster(sim, service, opts);
  FunctionClass cls;
  cls.deadline = 5_s;
  cluster.configure_function(fn, cls);

  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 3; ++i) hs.push_back(cluster.submit(fn, "cpu"));
  sim.spawn(shutdown_after(&sim, &cluster, 30_s), "drain");
  sim.run();

  // One dispatched immediately; the credit frees after ~10 s, by which time
  // the two queued requests are past their 5 s deadline.
  EXPECT_EQ(cluster.stats().dispatched, 1u);
  EXPECT_EQ(cluster.stats().shed_by_reason.at("expired"), 2u);
  for (const auto& h : hs) {
    EXPECT_NE(h.record->state, faas::TaskRecord::State::kPending);
    EXPECT_NE(h.record->state, faas::TaskRecord::State::kRunning);
  }
}

TEST_F(ClusterFixture, PredictedWaitShedsAtAdmissionOnceServiceTimeIsKnown) {
  make_cpu_endpoint("ep", 1);
  const auto fn = register_compute_fn(1_s);
  ClusterOptions opts;
  opts.inflight_per_slot = 0.5;
  ClusterService cluster(sim, service, opts);
  FunctionClass cls;
  cls.deadline = 2_s;
  cluster.configure_function(fn, cls);

  // Warm the service-time EWMA with one observed completion.
  (void)cluster.submit(fn, "cpu");
  sim.run();
  ASSERT_EQ(cluster.stats().shed, 0u);

  // Now five back-to-back: the fifth predicts > 2 s of queue wait (three
  // already queued at ~1 s each over one slot) and sheds at admission.
  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 5; ++i) hs.push_back(cluster.submit(fn, "cpu"));
  EXPECT_GE(cluster.stats().shed_by_reason.at("deadline"), 1u);
  sim.spawn(shutdown_after(&sim, &cluster, 30_s), "drain");
  sim.run();
  EXPECT_EQ(cluster.stats().submitted, 6u);
  EXPECT_EQ(cluster.stats().shed + cluster.stats().dispatched, 6u);
}

TEST_F(ClusterFixture, PartitionedEndpointNeverChosenWhileAReachableOneExists) {
  // Ten requests outrun a's four credits, so b's credits sit free the whole
  // time; under every policy the queued ones still wait for a's.
  for (const ClusterPolicy policy : kEveryPolicy) {
    SCOPED_TRACE(to_string(policy));
    CpuFleet fleet;
    fleet.make_cpu_endpoint("a", 2);
    Endpoint& b = fleet.make_cpu_endpoint("b", 2);
    const auto fn = fleet.register_compute_fn(100_ms);
    b.partition_for(60_s);
    ClusterOptions opts;
    opts.policy = policy;
    ClusterService cluster(fleet.sim, fleet.service, opts);

    for (int i = 0; i < 10; ++i) (void)cluster.submit(fn, "cpu");
    fleet.sim.spawn(shutdown_after(&fleet.sim, &cluster, 5_s), "drain");
    fleet.sim.run();

    const auto counts = fleet.service.dispatch_counts();
    EXPECT_EQ(counts.at("a"), 10u);
    EXPECT_EQ(counts.find("b"), counts.end());
  }
}

TEST_F(ClusterFixture, RoundRobinSkipsPartitionedEndpoints) {
  make_cpu_endpoint("a", 2);
  Endpoint& b = make_cpu_endpoint("b", 2);
  make_cpu_endpoint("c", 2);
  const auto fn = register_compute_fn(100_ms);
  b.partition_for(60_s);
  ClusterOptions opts;
  opts.policy = ClusterPolicy::kRoundRobin;
  ClusterService cluster(sim, service, opts);

  for (int i = 0; i < 8; ++i) (void)cluster.submit(fn, "cpu");
  sim.spawn(shutdown_after(&sim, &cluster, 5_s), "drain");
  sim.run();

  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("a"), 4u);
  EXPECT_EQ(counts.at("c"), 4u);
  EXPECT_EQ(counts.find("b"), counts.end());
}

TEST_F(ClusterFixture, RoundRobinCursorStaysPutWhileARequestWaits) {
  make_cpu_endpoint("a", 1);
  make_cpu_endpoint("b", 1);
  make_cpu_endpoint("c", 1);
  const auto fn = register_compute_fn(100_ms);
  ClusterOptions opts;
  opts.policy = ClusterPolicy::kRoundRobin;
  opts.inflight_per_slot = 1.0;  // one credit per endpoint
  ClusterService cluster(sim, service, opts);

  // The first three take a, b and c and wrap the cursor back to a. The
  // fourth finds no credit and waits; all three credits free in the same
  // instant, and the cursor, untouched by the wait, still points at a.
  for (int i = 0; i < 4; ++i) (void)cluster.submit(fn, "cpu");
  sim.spawn(shutdown_after(&sim, &cluster, 5_s), "drain");
  sim.run();

  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("a"), 2u);
  EXPECT_EQ(counts.at("b"), 1u);
  EXPECT_EQ(counts.at("c"), 1u);
}

TEST_F(ClusterFixture, StickyWithoutAModelKeepsTheLastEndpointUntilItsCreditsRunOut) {
  make_cpu_endpoint("a", 2);
  make_cpu_endpoint("b", 2);
  make_cpu_endpoint("c", 2);
  const auto fn = register_compute_fn(100_ms);  // model_bytes == 0: never warm
  ClusterOptions opts;
  opts.policy = ClusterPolicy::kSticky;
  ClusterService cluster(sim, service, opts);

  // With no warm endpoint, sticky prefers the function's last endpoint: "a"
  // takes all four of its credits (2 workers x 2 per slot) before the fifth
  // falls back to the least-loaded rest, ties to the lowest name. Least-loaded
  // alone would spread the same burst 2/2/1.
  for (int i = 0; i < 5; ++i) (void)cluster.submit(fn, "cpu");
  sim.spawn(shutdown_after(&sim, &cluster, 5_s), "drain");
  sim.run();

  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("a"), 4u);
  EXPECT_EQ(counts.at("b"), 1u);
  EXPECT_EQ(counts.find("c"), counts.end());
}

TEST_F(ClusterFixture, SloAwareWithEveryEndpointPartitionedPicksTheLowestRtt) {
  Endpoint& a = make_cpu_endpoint("a", 2, 40_ms);
  Endpoint& b = make_cpu_endpoint("b", 2, 4_ms);
  const auto fn = register_compute_fn(100_ms);
  a.partition_for(1_s);
  b.partition_for(3_s);
  ClusterService cluster(sim, service);  // slo-aware default

  // Nothing is reachable, so the partitioned endpoints compete on score
  // alone: "b"'s RTT wins over the lower name, and the request waits out
  // b's longer partition instead of a's.
  const faas::AppHandle h = cluster.submit(fn, "cpu");
  sim.spawn(shutdown_after(&sim, &cluster, 10_s), "drain");
  sim.run();

  const auto counts = service.dispatch_counts();
  EXPECT_EQ(counts.at("b"), 1u);
  EXPECT_EQ(counts.find("a"), counts.end());
  ASSERT_EQ(h.record->state, faas::TaskRecord::State::kDone);
  EXPECT_GE(h.record->finished, util::TimePoint{} + 3_s + 100_ms);
}

// -- Admission edges ---------------------------------------------------------

sim::Co<void> submit_after(sim::Simulator* sim, ClusterService* cluster,
                           std::string fn, util::Duration delay) {
  co_await sim->delay(delay);
  (void)cluster->submit(fn, "cpu");
}

TEST_F(ClusterFixture, ExactCapacityBurstAdmitsTheWholeBurstAndShedsTheNext) {
  make_cpu_endpoint("ep", 4);
  const auto fn = register_compute_fn(10_ms);
  ClusterService cluster(sim, service);
  FunctionClass cls;
  cls.rate_hz = 1.0;
  cls.burst = 4.0;
  cluster.configure_function(fn, cls);

  // Exactly `burst` requests in the same instant drain the bucket to zero
  // without shedding; the (burst+1)-th is the first to bounce.
  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 5; ++i) hs.push_back(cluster.submit(fn, "cpu"));
  EXPECT_EQ(cluster.stats().admitted, 4u);
  EXPECT_EQ(cluster.stats().shed_by_reason.at("rate-limit"), 1u);

  // One token refills after exactly 1 s at 1 Hz — the boundary admits again.
  sim.spawn(submit_after(&sim, &cluster, fn, 1_s), "late-arrival");
  sim.spawn(shutdown_after(&sim, &cluster, 2_s), "drain");
  sim.run();
  EXPECT_EQ(cluster.stats().admitted, 5u);
  EXPECT_EQ(cluster.stats().shed, 1u);
}

TEST_F(ClusterFixture, ZeroDeadlineClassNeverShedsDeadlineOrExpired) {
  make_cpu_endpoint("ep", 1);
  const auto fn = register_compute_fn(100_ms);
  ClusterOptions opts;
  opts.inflight_per_slot = 1.0;  // deep service-side queue
  ClusterService cluster(sim, service, opts);
  FunctionClass cls;  // deadline == 0: no SLO, unlimited rate and queue
  cluster.configure_function(fn, cls);

  // A 12-deep same-instant backlog on one worker: ~1.2 s of queueing, which
  // would trip any non-zero deadline — with deadline 0 nothing sheds and
  // everything completes.
  std::vector<faas::AppHandle> hs;
  for (int i = 0; i < 12; ++i) hs.push_back(cluster.submit(fn, "cpu"));
  sim.spawn(shutdown_after(&sim, &cluster, 10_s), "drain");
  sim.run();

  EXPECT_EQ(cluster.stats().shed, 0u);
  EXPECT_TRUE(cluster.stats().shed_by_reason.empty());
  EXPECT_EQ(cluster.stats().dispatched, 12u);
  for (const auto& h : hs) {
    EXPECT_EQ(h.record->state, faas::TaskRecord::State::kDone);
  }
}

TEST_F(ClusterFixture, ShedTotalsReconcileWithEndpointRecords) {
  Endpoint& a = make_cpu_endpoint("a", 2);
  Endpoint& b = make_cpu_endpoint("b", 2);
  const auto fn = register_compute_fn(50_ms);
  ClusterOptions opts;
  opts.policy = ClusterPolicy::kRoundRobin;
  ClusterService cluster(sim, service, opts);
  FunctionClass cls;
  cls.rate_hz = 2.0;
  cls.burst = 6.0;
  cluster.configure_function(fn, cls);

  for (int i = 0; i < 10; ++i) (void)cluster.submit(fn, "cpu");
  sim.spawn(shutdown_after(&sim, &cluster, 5_s), "drain");
  sim.run();

  // The cluster's ledger and the endpoints' DFK task records describe the
  // same world: every dispatched request is exactly one endpoint task, sheds
  // never reach an endpoint, and nothing is lost between the two layers.
  const auto& st = cluster.stats();
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_EQ(st.shed_by_reason.at("rate-limit"), 10u - st.admitted);
  EXPECT_EQ(st.dispatched, st.admitted);  // nothing expired in-queue

  std::size_t ep_submitted = 0, ep_failed = 0;
  for (Endpoint* ep : {&a, &b}) {
    ep_submitted += ep->dfk().tasks_submitted();
    ep_failed += ep->dfk().tasks_failed();
    EXPECT_TRUE(ep->dfk().records().empty()) << "a settled task stayed in the DFK";
  }
  EXPECT_EQ(ep_submitted, st.dispatched);
  EXPECT_EQ(ep_failed, 0u);
  EXPECT_EQ(st.submitted, ep_submitted + st.shed);
}

// -- Sticky routing vs round-robin: weight reloads ---------------------------

sim::Co<void> submit_every(sim::Simulator* sim, ClusterService* cluster,
                           std::string fn, std::string label, int n,
                           util::Duration gap) {
  for (int i = 0; i < n; ++i) {
    (void)cluster->submit(fn, label);
    co_await sim->delay(gap);
  }
}

std::uint64_t total_reloads(ClusterPolicy policy) {
  sim::Simulator sim;
  ComputeService service(sim);
  std::vector<Endpoint*> eps;
  for (const std::string name : {"ep-a", "ep-b", "ep-c", "ep-d"}) {
    Endpoint::Options opts;
    opts.name = name;
    opts.rtt = 1_ms;
    opts.gpus = {gpu::arch::a100_80gb()};
    Endpoint& ep =
        service.register_endpoint(std::make_unique<Endpoint>(sim, opts));
    ep.enable_weight_cache(120_ms);
    faas::HtexConfig cfg;
    cfg.label = "gpu";
    cfg.available_accelerators = {"0"};
    ep.add_gpu_executor(cfg);
    eps.push_back(&ep);
  }
  faas::AppDef app;
  app.name = "model-fn";
  app.model_key = "weights-v1";
  app.model_bytes = 2 * util::GB;
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(50_ms);
    co_return faas::AppValue{1.0};
  };
  const auto fn = service.register_function(std::move(app));

  ClusterOptions opts;
  opts.policy = policy;
  ClusterService cluster(sim, service, opts);
  // Staggered arrivals (the 2 GB upload takes ~0.25 s): each request sees
  // the previous one's cache state, so warm routing has something to read.
  sim.spawn(submit_every(&sim, &cluster, fn, "gpu", 8, 2_s), "arrivals");
  sim.spawn(shutdown_after(&sim, &cluster, 60_s), "drain");
  sim.run();

  std::uint64_t misses = 0;
  for (Endpoint* ep : eps) misses += ep->weight_cache()->misses();
  return misses;
}

TEST(ClusterSticky, FewerWeightReloadsThanRoundRobin) {
  const auto sticky = total_reloads(ClusterPolicy::kSticky);
  const auto rr = total_reloads(ClusterPolicy::kRoundRobin);
  // Round-robin pulls the model onto every endpoint; sticky keeps the
  // function where its weights already live (first dispatch pins it via
  // last_endpoint, then the warm cache takes over).
  EXPECT_EQ(sticky, 1u);
  EXPECT_EQ(rr, 4u);
  EXPECT_LT(sticky, rr);
}

// -- The PR's calibration property: p99 stays bounded at 2x saturation -------

struct OverloadOutcome {
  trace::Summary latency;  // admitted-and-completed requests, seconds
  ClusterStats stats;
};

OverloadOutcome run_offered_load(double rate_hz, const FunctionClass& cls) {
  sim::Simulator sim;
  ComputeService service(sim);
  for (const std::string name : {"n0", "n1", "n2", "n3"}) {
    Endpoint::Options opts;
    opts.name = name;
    opts.rtt = 1_ms;
    Endpoint& ep =
        service.register_endpoint(std::make_unique<Endpoint>(sim, opts));
    ep.add_cpu_executor("cpu", 2);
  }
  faas::AppDef app;
  app.name = "serve";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(100_ms);
    co_return faas::AppValue{1.0};
  };
  const auto fn = service.register_function(std::move(app));

  ClusterOptions opts;
  opts.policy = ClusterPolicy::kLeastLoaded;
  opts.inflight_per_slot = 1.0;  // dispatched == running; the queue stays here
  ClusterService cluster(sim, service, opts);
  cluster.configure_function(fn, cls);

  auto handles = std::make_shared<std::vector<faas::AppHandle>>();
  workloads::spawn_open_loop_fn(sim, rate_hz, 20_s, /*seed=*/101,
                                [&cluster, &fn, handles] {
                                  handles->push_back(cluster.submit(fn, "cpu"));
                                });
  sim.spawn(shutdown_after(&sim, &cluster, 25_s), "drain");
  sim.run();

  std::vector<double> latencies;
  for (const auto& h : *handles) {
    if (h.record->state == faas::TaskRecord::State::kDone) {
      latencies.push_back((h.record->finished - h.record->submitted).seconds());
    }
  }
  return OverloadOutcome{trace::summarize(latencies), cluster.stats()};
}

TEST(ClusterOverload, SheddingKeepsAdmittedP99WithinThreeTimesUnloadedP99) {
  // 4 endpoints x 2 workers x 10 req/s per slot = 80 req/s saturation.
  const FunctionClass unlimited;
  const auto unloaded = run_offered_load(10.0, unlimited);
  ASSERT_GT(unloaded.latency.count, 100u);
  ASSERT_EQ(unloaded.stats.shed, 0u);

  FunctionClass limited;
  limited.max_queue = 12;
  limited.deadline = 250_ms;
  const auto overloaded = run_offered_load(160.0, limited);  // 2x saturation

  // Admission control turned real load away...
  EXPECT_GT(overloaded.stats.shed, overloaded.stats.submitted / 5);
  ASSERT_GT(overloaded.latency.count, 500u);
  // ...and that is exactly what keeps the admitted tail bounded.
  EXPECT_LE(overloaded.latency.p99, 3.0 * unloaded.latency.p99)
      << "unloaded p99=" << unloaded.latency.p99
      << " overloaded p99=" << overloaded.latency.p99;
}

}  // namespace
}  // namespace faaspart::federation
