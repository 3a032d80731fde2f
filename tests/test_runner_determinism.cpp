// Determinism goldens for the parallel replication runner: the fig2 / fig4
// / table1 point sets (reduced for test runtime) and the chaos soak with an
// active FaultPlan must produce byte-identical merged output and identical
// per-point makespans at --jobs 1, 2 and 8. This is the ctest target behind
// the PR's acceptance criterion; the binary carries the `chaos` label so
// the battery also re-runs under the ASan/UBSan tier (scripts/tier1.sh).
//
// The --jobs 1 output is itself pinned: each case checks the FNV-1a digest
// of its rendered text, and the joined per-point replay digests where the
// point set has them, against literals. A change that moves any simulated
// outcome fails here even when every sharding still agrees.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "runner/experiments.hpp"
#include "runner/runner.hpp"
#include "scenario/trace.hpp"

namespace faaspart::runner {
namespace {

const int kJobTiers[] = {1, 2, 8};

/// FNV-1a digest of `text` as a fixed-width hex literal.
std::string text_digest(const std::string& text) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(scenario::fnv1a(text)));
  return buf;
}

std::string joined(const std::vector<std::string>& digests) {
  std::string out;
  for (const auto& d : digests) {
    if (!out.empty()) out += ',';
    out += d;
  }
  return out;
}

TEST(RunnerDeterminism, Fig2PointSetByteIdenticalAcrossJobs) {
  std::vector<Fig2Point> points;
  for (const int sms : {2, 20, 108}) points.push_back(Fig2Point{sms, 5});

  std::string golden;
  std::vector<double> golden_latencies;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<Fig2Result>(
        static_cast<int>(points.size()),
        [&](int i) { return run_fig2_point(points[static_cast<std::size_t>(i)]); },
        jobs);
    const std::string text = render_fig2(results);
    std::vector<double> latencies;
    for (const auto& r : results) {
      latencies.push_back(r.t7_s);
      latencies.push_back(r.t13_s);
    }
    if (jobs == 1) {
      golden = text;
      golden_latencies = latencies;
      EXPECT_NE(golden.find("Knee check"), std::string::npos);
      EXPECT_EQ(text_digest(text), "0x07162e4472ddedea") << text;
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
      EXPECT_EQ(latencies, golden_latencies) << "jobs=" << jobs;
    }
  }
}

TEST(RunnerDeterminism, Fig4PointSetByteIdenticalAcrossJobs) {
  auto points = fig4_points();
  for (auto& p : points) p.total_completions = 12;

  std::string golden;
  std::vector<std::int64_t> golden_makespans;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<workloads::MultiplexRunResult>(
        static_cast<int>(points.size()),
        [&](int i) { return run_fig4_point(points[static_cast<std::size_t>(i)]); },
        jobs);
    const std::string text = render_fig4(results);
    std::vector<std::int64_t> makespans;
    for (const auto& r : results) makespans.push_back(r.batch.makespan.ns);
    if (jobs == 1) {
      golden = text;
      golden_makespans = makespans;
      EXPECT_EQ(text_digest(text), "0x9351f2d7e1e25ae0") << text;
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
      EXPECT_EQ(makespans, golden_makespans) << "jobs=" << jobs;
    }
  }
}

TEST(RunnerDeterminism, Table1PointSetByteIdenticalAcrossJobs) {
  Table1Options opts;
  opts.window = util::seconds(10);
  opts.llama_completions = 2;
  const auto techniques = table1_points();

  std::string golden;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<Table1Result>(
        static_cast<int>(techniques.size()),
        [&](int i) {
          return run_table1_point(techniques[static_cast<std::size_t>(i)], opts);
        },
        jobs);
    const std::string text = render_table1(results);
    if (jobs == 1) {
      golden = text;
      EXPECT_NE(golden.find("mps-percentage"), std::string::npos);
      EXPECT_EQ(text_digest(text), "0x9955464066ba52c8") << text;
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
    }
  }
}

// The cluster-serving sweep is the heaviest composition in the repo (WFQ +
// admission control + per-endpoint autoscalers + weight caches, all behind
// the routing policies): its merged table and per-point tail latencies must
// not depend on how the points shard across the pool.
TEST(RunnerDeterminism, ClusterServingSweepByteIdenticalAcrossJobs) {
  ClusterServingOptions opts;
  opts.endpoints = 3;
  opts.window = util::seconds(15);
  opts.llama_rate_hz = 2.0;
  opts.resnet_rate_hz = 12.0;
  const auto points = cluster_serving_points(opts);

  std::string golden;
  std::vector<double> golden_tails;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<ClusterServingResult>(
        static_cast<int>(points.size()),
        [&](int i) {
          return run_cluster_serving_point(points[static_cast<std::size_t>(i)]);
        },
        jobs);
    const std::string text = render_cluster_serving(results);
    std::vector<double> tails;
    for (const auto& r : results) {
      tails.push_back(r.p99_s);
      tails.push_back(r.shed_rate);
    }
    if (jobs == 1) {
      golden = text;
      golden_tails = tails;
      EXPECT_NE(golden.find("sticky"), std::string::npos);
      EXPECT_EQ(text_digest(text), "0x9afd7299127221e3") << text;
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
      EXPECT_EQ(tails, golden_tails) << "jobs=" << jobs;
    }
  }
}

// The scenario sweep replays a synthesized .fstrace (modulated-Poisson
// phases x Zipf popularity) through all four routing policies; its rendered
// table and the per-point replay-outcome digests must survive any sharding
// — this is the trace-driven analogue of the cluster-serving golden and the
// pin behind `bench/scenario_serving --jobs N`.
TEST(RunnerDeterminism, ScenarioServingSweepByteIdenticalAcrossJobs) {
  ScenarioServingOptions opts;
  opts.endpoints = 3;
  opts.workers_per_endpoint = 2;
  opts.functions = 4;
  opts.base_rate_hz = 30.0;
  opts.phase_len = util::seconds(5);
  const auto points = scenario_serving_points(opts);

  std::string golden;
  std::vector<std::string> golden_digests;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<ScenarioServingResult>(
        static_cast<int>(points.size()),
        [&](int i) {
          return run_scenario_serving_point(points[static_cast<std::size_t>(i)]);
        },
        jobs);
    const std::string text = render_scenario_serving(results);
    std::vector<std::string> digests;
    for (const auto& r : results) digests.push_back(r.digest);
    if (jobs == 1) {
      golden = text;
      golden_digests = digests;
      EXPECT_NE(golden.find(".fstrace"), std::string::npos);
      // All four policies replay the same offered load...
      for (const auto& r : results) EXPECT_EQ(r.offered, results[0].offered);
      // ...but route it differently, so outcomes must not all collapse.
      EXPECT_NE(digests[0], digests[2]);  // round-robin vs sticky
      EXPECT_EQ(text_digest(text), "0x0f111883ed8c9d84") << text;
      EXPECT_EQ(joined(digests),
                "5142ded66f38cb6c,45d286a41f4f5bb0,"
                "6531458614d8eea0,45d286a41f4f5bb0");
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
      EXPECT_EQ(digests, golden_digests) << "jobs=" << jobs;
    }
  }
}

// The repartition ablation layers the online optimizer (MpsProbe scores →
// PartitionPlanner → live relayouts) on top of the serving stack; its
// rendered table and per-point replay digests must survive any sharding,
// and the digests must not move when the Telemetry hub is installed — the
// observability-off byte-identity pin mirroring bench/obs_overhead.
TEST(RunnerDeterminism, RepartitionSweepByteIdenticalAcrossJobs) {
  RepartitionOptions opts;
  opts.phase = util::seconds(60);
  opts.interval = util::seconds(15);
  const auto points = repartition_points(opts);

  std::string golden;
  std::vector<std::string> golden_digests;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<RepartitionResult>(
        static_cast<int>(points.size()),
        [&](int i) {
          return run_repartition_point(points[static_cast<std::size_t>(i)]);
        },
        jobs);
    const std::string text = render_repartition(results);
    std::vector<std::string> digests;
    for (const auto& r : results) {
      digests.push_back(r.digest);
      EXPECT_EQ(r.mid_reset_dispatches, 0u) << r.point.mode;
    }
    if (jobs == 1) {
      golden = text;
      golden_digests = digests;
      EXPECT_NE(golden.find("online"), std::string::npos);
      // The optimizer actually moved layouts in the reduced config...
      EXPECT_GT(results.back().applies, 0u);
      // ...and the modes don't collapse into one outcome.
      EXPECT_NE(digests[0], digests[3]);  // static-balanced vs online
      EXPECT_EQ(text_digest(text), "0x65ac26e48677513b") << text;
      EXPECT_EQ(joined(digests),
                "241afe72179b9fac,c3db9515d1820f54,"
                "24921ac94468216a,c241cf5ce85615dc");
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
      EXPECT_EQ(digests, golden_digests) << "jobs=" << jobs;
    }
  }

  // Observability must be a pure observer: the online point's replay digest
  // is byte-identical with the Telemetry hub installed.
  RepartitionPoint online = points.back();
  online.opts.observability = true;
  EXPECT_EQ(run_repartition_point(online).digest, golden_digests.back());
}

// The LLM serving sweep (continuous batching + disaggregation + the pool
// balancer's mid-run MIG relayouts vs run-to-completion) must shard
// freely: the rendered table and the per-point replay-outcome digests are
// byte-identical at --jobs 1/2/8, and installing the Telemetry hub must
// not move a digest — the pin behind bench/llm_serving's JSON artifact.
TEST(RunnerDeterminism, LlmServingSweepByteIdenticalAcrossJobs) {
  LlmServingOptions opts;
  opts.window = util::seconds(60);
  const auto modes = llm_serving_modes();
  std::vector<LlmServingPoint> points;
  for (const auto& mode : modes) points.push_back({mode, 1.0, opts});

  std::string golden;
  std::vector<std::string> golden_digests;
  for (const int jobs : kJobTiers) {
    const auto results = run_points<LlmServingResult>(
        static_cast<int>(points.size()),
        [&](int i) {
          return run_llm_serving_point(points[static_cast<std::size_t>(i)]);
        },
        jobs);
    const std::string text = render_llm_serving(results);
    std::vector<std::string> digests;
    for (const auto& r : results) digests.push_back(r.digest);
    if (jobs == 1) {
      golden = text;
      golden_digests = digests;
      EXPECT_NE(golden.find("disagg"), std::string::npos);
      // Same offered arrivals in every mode, different serving outcomes.
      for (const auto& r : results) EXPECT_EQ(r.offered, results[0].offered);
      EXPECT_NE(digests[0], digests[1]);  // rtc vs continuous
      EXPECT_EQ(text_digest(text), "0x37d55ecb47a69b6e") << text;
      EXPECT_EQ(joined(digests),
                "7925985a7f330780,d887683b4acd237a,"
                "19d47d2a4611f9a4,c18a1561be0dd02b");
    } else {
      EXPECT_EQ(text, golden) << "jobs=" << jobs;
      EXPECT_EQ(digests, golden_digests) << "jobs=" << jobs;
    }
  }

  // Observability stays a pure observer for the serving engine too.
  LlmServingPoint continuous = points[1];
  continuous.opts.observability = true;
  EXPECT_EQ(run_llm_serving_point(continuous).digest, golden_digests[1]);
}

// The chaos soak runs with an *active* FaultPlan (worker crashes + device
// errors at several Poisson rates): fault delivery, DFK retries and
// backoff must all land identically whether the replications share one
// thread or race across eight.
TEST(RunnerDeterminism, ChaosSoakWithActiveFaultPlanAcrossJobs) {
  std::string golden;
  bool golden_pass = false;
  for (const int jobs : kJobTiers) {
    ChaosSoakOptions opts;
    opts.jobs = jobs;
    opts.completions = 8;
    const ChaosSoakReport report = run_chaos_soak(opts);
    if (jobs == 1) {
      golden = report.text;
      golden_pass = report.pass;
      // The reduced configuration still injects real faults.
      EXPECT_NE(golden.find("faults"), std::string::npos);
      EXPECT_EQ(golden.find("DIVERGED"), std::string::npos);
      EXPECT_EQ(golden.find("MISMATCH"), std::string::npos);
      EXPECT_EQ(text_digest(report.text), "0xf5fc4f1abbe43ee4") << report.text;
    } else {
      EXPECT_EQ(report.text, golden) << "jobs=" << jobs;
      EXPECT_EQ(report.pass, golden_pass) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace faaspart::runner
