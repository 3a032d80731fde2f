// Cluster-scale observability (DESIGN.md §12): the distributed trace a
// routed request leaves behind, the >=95% named-segment coverage acceptance
// bar, SLO monitor wiring, shed-reason spelling canonicalization, the flight
// recorder's request log, and the no-perturbation property (same workload,
// same virtual outcome, telemetry on or off, and no simulator event beyond
// the sampler's ticks).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "federation/cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"
#include "workloads/serving.hpp"

namespace faaspart::federation {
namespace {

using namespace util::literals;

sim::Co<void> shutdown_after(sim::Simulator* sim, ClusterService* cluster,
                             util::Duration delay) {
  co_await sim->delay(delay);
  co_await cluster->shutdown();
}

/// A small federated testbed: `endpoints` CPU sites behind a ClusterService,
/// one 50 ms compute function, a burst + open-loop mix that exercises the
/// service queue, the WAN legs, and endpoint execution.
struct Testbed {
  sim::Simulator sim;
  std::unique_ptr<obs::Telemetry> tel;
  std::unique_ptr<ComputeService> service;
  std::unique_ptr<ClusterService> cluster;
  std::string fn;
  std::vector<faas::AppHandle> handles;

  explicit Testbed(bool observability, bool flight = false,
                   bool tracing = true) {
    if (observability) {
      obs::TelemetryOptions topts;
      topts.flight = flight;
      topts.tracing = tracing;
      tel = std::make_unique<obs::Telemetry>(sim, topts);
    }
    service = std::make_unique<ComputeService>(sim);
    for (const std::string name : {"n0", "n1"}) {
      Endpoint::Options eopts;
      eopts.name = name;
      eopts.rtt = 4_ms;
      Endpoint& ep = service->register_endpoint(
          std::make_unique<Endpoint>(sim, eopts));
      ep.add_cpu_executor("cpu", 1);
    }
    faas::AppDef app;
    app.name = "serve";
    app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      co_await ctx.compute(50_ms);
      co_return faas::AppValue{1.0};
    };
    fn = service->register_function(std::move(app));

    ClusterOptions copts;
    copts.policy = ClusterPolicy::kLeastLoaded;
    copts.inflight_per_slot = 1.0;  // dispatched == running; queue stays here
    cluster = std::make_unique<ClusterService>(sim, *service, copts);
  }

  void run_burst(int requests, const FunctionClass& cls = {}) {
    cluster->configure_function(fn, cls);
    for (int i = 0; i < requests; ++i) {
      handles.push_back(cluster->submit(fn, "cpu"));
    }
    sim.spawn(shutdown_after(&sim, cluster.get(), 30_s), "drain");
    sim.run();
  }

  /// (state, finished_ns, error) per request — the outcome fingerprint the
  /// no-perturbation test compares across telemetry on/off.
  std::string outcome_digest() const {
    std::ostringstream os;
    for (const faas::AppHandle& h : handles) {
      os << static_cast<int>(h.record->state) << '|' << h.record->finished.ns
         << '|' << h.record->error << '\n';
    }
    return os.str();
  }
};

// -- The acceptance bar: >=95% of every request's latency has a name --------

TEST(ClusterObs, RequestTreesAttributeAtLeast95PercentOfLatency) {
  Testbed bed(/*observability=*/true);
  bed.run_burst(16);  // 16 requests onto 2 single-worker sites: deep queueing

  ASSERT_NE(bed.tel->tracer(), nullptr);
  const auto breakdowns =
      obs::analyze_requests(bed.tel->tracer()->spans());
  ASSERT_EQ(breakdowns.size(), 16u);  // one causal tree per request

  std::set<std::string> segments_seen;
  for (const obs::RequestBreakdown& b : breakdowns) {
    EXPECT_GE(b.coverage(), 0.95)
        << "request trace " << b.trace << " total " << b.total.seconds()
        << "s only attributed " << b.attributed().seconds() << "s";
    EXPECT_EQ(b.total, b.attributed() + (b.segments.count("other") != 0
                                             ? b.segments.at("other")
                                             : util::Duration{}));
    for (const auto& [segment, d] : b.segments) segments_seen.insert(segment);
  }
  // The burst exercised the whole path: service fair queue, WAN legs, and
  // endpoint execution all show up by name.
  EXPECT_TRUE(segments_seen.count("squeue"));
  EXPECT_TRUE(segments_seen.count("wan"));
  EXPECT_TRUE(segments_seen.count("exec"));
}

TEST(ClusterObs, RequestRootCarriesTenantPolicyAndOutcome) {
  Testbed bed(/*observability=*/true);
  FunctionClass cls;
  cls.tenant = "llm";
  bed.run_burst(4, cls);

  const auto breakdowns = obs::analyze_requests(bed.tel->tracer()->spans());
  ASSERT_EQ(breakdowns.size(), 4u);
  for (const obs::RequestBreakdown& b : breakdowns) {
    EXPECT_EQ(b.tenant, "llm");
    EXPECT_EQ(b.site, to_string(ClusterPolicy::kLeastLoaded));
    EXPECT_TRUE(b.note.empty()) << b.note;  // no shed / deadline annotations
  }
  // Aggregating by tenant yields one "llm" group covering every request.
  const auto groups =
      obs::aggregate_breakdowns(breakdowns, obs::GroupBy::kTenant);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].key, "llm");
  EXPECT_EQ(groups[0].requests, 4u);
  EXPECT_GE(groups[0].min_coverage, 0.95);
}

// -- Shed-reason spelling canonicalization (satellite regression) -----------

TEST(ClusterObs, ShedReasonSpellingsAreCanonicalEverywhere) {
  // The canonical table itself: admission.hpp is the single source of truth.
  EXPECT_STREQ(shed_reason_name(ShedReason::kRateLimit), "rate-limit");
  EXPECT_STREQ(shed_reason_name(ShedReason::kQueueFull), "queue-full");
  EXPECT_STREQ(shed_reason_name(ShedReason::kDeadline), "deadline");
  EXPECT_STREQ(shed_reason_name(ShedReason::kExpired), "expired");

  // End to end: a rate-limit shed must use the same spelling in the stats
  // map, the task error (what scenario::TraceDriver parses), the Prometheus
  // label, the SLO shed counter, and the trace annotation.
  Testbed bed(/*observability=*/true);
  FunctionClass cls;
  cls.rate_hz = 1.0;
  cls.burst = 1.0;
  bed.run_burst(3, cls);

  EXPECT_EQ(bed.cluster->stats().shed, 2u);
  EXPECT_EQ(bed.cluster->stats().shed_by_reason.at("rate-limit"), 2u);
  EXPECT_EQ(bed.handles[1].record->error, "shed: rate-limit");
  EXPECT_EQ(bed.tel->metrics()
                .counter("federation_shed_total",
                         {{"function", bed.fn}, {"reason", "rate-limit"}})
                .value(),
            2.0);
  EXPECT_EQ(bed.tel->metrics()
                .counter("slo_shed_total",
                         {{"function", bed.fn}, {"reason", "rate-limit"}})
                .value(),
            2.0);
  // The refused request still leaves a causal tree: a closed root annotated
  // with the canonical reason plus a "shed" child naming the refusing site.
  bool found_shed_root = false;
  bool found_shed_child = false;
  for (const obs::CausalSpan& s : bed.tel->tracer()->spans()) {
    if (s.kind == "request" && s.note == "shed: rate-limit" && !s.open) {
      found_shed_root = true;
    }
    if (s.kind == "shed" && s.site == "cluster:rate-limit") {
      found_shed_child = true;
    }
  }
  EXPECT_TRUE(found_shed_root);
  EXPECT_TRUE(found_shed_child);
}

// -- SLO monitor wiring ------------------------------------------------------

TEST(ClusterObs, ConfigureFunctionAutoRegistersTheSloKey) {
  Testbed bed(/*observability=*/true);
  FunctionClass cls;
  cls.tenant = "vision";
  cls.deadline = 2_s;  // roomy enough to absorb the first-touch cold start
  bed.run_burst(6, cls);

  ASSERT_TRUE(bed.tel->slo().configured(bed.fn));
  const obs::SloTarget* target = bed.tel->slo().target(bed.fn);
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->tenant, "vision");
  EXPECT_EQ(target->objective, 2_s);

  // Every settled request fed the SLI stream: goodput + breach counts must
  // reconcile with the admitted count.
  const obs::Labels labels{{"function", bed.fn}, {"tenant", "vision"}};
  const double good =
      bed.tel->metrics().counter("slo_good_total", labels).value();
  const double bad =
      bed.tel->metrics().counter("slo_breach_total", labels).value();
  EXPECT_EQ(static_cast<std::size_t>(good + bad),
            bed.cluster->stats().admitted);
  EXPECT_GT(good, 0.0);
}

// -- Flight recorder wiring --------------------------------------------------

TEST(ClusterObs, FlightRecorderLogsDispatchAndSettlePerRequest) {
  Testbed bed(/*observability=*/true, /*flight=*/true);
  bed.run_burst(5);

  ASSERT_NE(bed.tel->flight(), nullptr);
  // Dispatch and settle are logged in the per-endpoint rings, so a dump
  // localizes an incident to the site that served it.
  std::size_t dispatches = 0;
  std::size_t settles = 0;
  for (const std::string ep : {"n0", "n1"}) {
    for (const obs::FlightEvent& ev : bed.tel->flight()->ring(ep)) {
      dispatches += ev.kind == "dispatch";
      settles += ev.kind == "settle";
      EXPECT_NE(ev.trace, 0u);  // every entry is joinable to its causal tree
    }
  }
  EXPECT_EQ(dispatches, 5u);
  EXPECT_EQ(settles, 5u);
}

// -- Zero perturbation -------------------------------------------------------

TEST(ClusterObs, TelemetryOnAndOffProduceTheSameVirtualOutcome) {
  // Telemetry's only simulator events are its sampler's ticks, metrics-only
  // or traced: no metric, span or flight-recorder site schedules one.
  struct Run {
    std::string digest;
    std::uint64_t events = 0;
    std::size_t ticks = 0;
  };
  const auto run = [](bool obs_on, bool traced) {
    Testbed bed(obs_on, /*flight=*/traced, /*tracing=*/traced);
    FunctionClass cls;
    cls.tenant = "llm";
    cls.deadline = 500_ms;
    cls.max_queue = 8;
    bed.run_burst(24, cls);  // mixes admitted, queued, and queue-full sheds
    return Run{bed.outcome_digest(), bed.sim.processed_events(),
               obs_on ? bed.tel->sampler().tick_count() : 0};
  };
  const Run off = run(false, false);
  EXPECT_FALSE(off.digest.empty());
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "metrics-only");
    const Run on = run(true, traced);
    EXPECT_EQ(off.digest, on.digest);
    EXPECT_GT(on.ticks, 0u);
    EXPECT_EQ(on.events, off.events + on.ticks);
  }
}

}  // namespace
}  // namespace faaspart::federation
