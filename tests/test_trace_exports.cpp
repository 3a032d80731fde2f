// Pins the two text exports of a trace::Recorder — the enriched Chrome
// trace and the ASCII Gantt chart — over one small run that records kernel,
// task, cold-start, phase, fault and degrade spans. The digests were taken
// before spans were stored as interned label ids; any change to how the span
// log is stored must leave these bytes alone. The Chrome exporter's
// well-formedness and string escaping are checked on a small CPU run too.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "faults/faults.hpp"
#include "nvml/manager.hpp"
#include "obs/chrome.hpp"
#include "scenario/trace.hpp"
#include "sched/engines.hpp"
#include "trace/gantt.hpp"
#include "workloads/moldesign.hpp"

namespace faaspart::trace {
namespace {

using namespace util::literals;

faults::FaultPlan fault_plan() {
  // A WAN partition aimed at an endpoint that does not exist: delivered (so
  // it lands on the "faults" lane) without disturbing the campaign.
  faults::FaultPlan plan;
  faults::FaultEvent ev;
  ev.at = util::TimePoint{} + 5_s;
  ev.kind = faults::FaultKind::kWanPartition;
  ev.target = "endpoint:nowhere";
  plan.schedule.push_back(ev);
  return plan;
}

/// A quick Fig 3 campaign: CPU simulations plus GPU training and inference
/// on two A100s, one time-shared and one under MPS, with every span source
/// feeding one Recorder.
struct ExportRun {
  sim::Simulator sim;
  Recorder rec;
  faults::FaultInjector faults{sim, fault_plan(), &rec};
  nvml::DeviceManager mgr{sim, &rec};
  faas::LocalProvider provider{sim, 24};
  faas::DataFlowKernel dfk{sim, faas::Config{}};

  ExportRun() {
    mgr.add_device(gpu::arch::a100_sxm4_40gb());
    mgr.add_device(gpu::arch::a100_sxm4_40gb());
    mgr.device(1).set_engine_factory(sched::mps_factory());

    faas::HighThroughputExecutor::Options cpu;
    cpu.label = "cpu";
    cpu.cpu_workers = 8;
    auto cpu_ex = std::make_unique<faas::HighThroughputExecutor>(
        sim, provider, std::move(cpu), nullptr, &rec);
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

    workloads::MolDesignConfig cfg;
    cfg.rounds = 2;
    cfg.simulations_per_round = 4;
    cfg.candidate_pool = 500;
    cfg.inference_chunk = 250;
    cfg.simulation_mean = 20_s;
    workloads::MolDesignCampaign campaign(dfk, "cpu", "gpu", cfg, &rec);
    sim.spawn(campaign.run(), "campaign");
    sim.run();
    faults.note_degradation("gpu:1", "mps", "timeshare", "export pin");
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(RecorderExports, RunCoversEverySpanSource) {
  const ExportRun run;
  for (const char* category :
       {"kernel:gemm", "task:simulate_molecule", "task:train_emulator",
        "cold:train_emulator", "cold:infer_emulator", "phase:simulation",
        "phase:training", "phase:inference", "fault", "degrade"}) {
    EXPECT_FALSE(run.rec.category_spans(category).empty()) << category;
  }
}

TEST(RecorderExports, ChromeTraceDigestIsPinned) {
  const ExportRun run;
  std::ostringstream os;
  obs::write_enriched_chrome_trace(os, &run.rec, nullptr, nullptr);
  EXPECT_EQ(hex(scenario::fnv1a(os.str())), "0xbc47ee4a72191710")
      << os.str().size() << " bytes";
}

TEST(RecorderExports, GanttDigestIsPinned) {
  const ExportRun run;
  std::ostringstream os;
  render_gantt(os, run.rec);
  EXPECT_EQ(hex(scenario::fnv1a(os.str())), "0x4a101bbc6128f929") << os.str();
}

/// A two-worker CPU executor whose task spans feed one Recorder.
struct CpuTraceFixture : ::testing::Test {
  sim::Simulator sim;
  trace::Recorder rec;
  faas::LocalProvider provider{sim, 8};
  faas::DataFlowKernel dfk{sim, faas::Config{}};

  CpuTraceFixture() {
    faas::HighThroughputExecutor::Options opts;
    opts.label = "cpu";
    opts.cpu_workers = 2;
    auto ex = std::make_unique<faas::HighThroughputExecutor>(
        sim, provider, std::move(opts), nullptr, &rec);
    ex->start();
    dfk.add_executor(std::move(ex));
  }

  faas::AppDef app(const std::string& name, util::Duration d) {
    faas::AppDef a;
    a.name = name;
    a.body = [d](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      co_await ctx.compute(d);
      co_return faas::AppValue{1.0};
    };
    return a;
  }
};

TEST_F(CpuTraceFixture, ChromeTraceIsWellFormed) {
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

TEST_F(CpuTraceFixture, ChromeTraceEscapesStrings) {
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
}  // namespace faaspart::trace
