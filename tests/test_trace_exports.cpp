// Pins the three text exports of a trace::Recorder — the enriched Chrome
// trace, the ASCII Gantt chart and faas::Monitoring's spans.csv — over one
// small run that records kernel, task, cold-start, phase, fault and degrade
// spans. The digests were taken before spans were stored as interned label
// ids; any change to how the span log is stored must leave these bytes alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "faas/dfk.hpp"
#include "faas/monitoring.hpp"
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

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
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

TEST(RecorderExports, MonitoringSpansCsvDigestIsPinned) {
  const ExportRun run;
  const auto dir = std::filesystem::temp_directory_path() / "faaspart-test-export-pin";
  std::filesystem::remove_all(dir);
  faas::Monitoring mon(run.dfk, &run.rec, dir.string());
  std::string csv;
  for (const auto& path : mon.export_csv()) {
    if (std::filesystem::path(path).filename() == "spans.csv") csv = slurp(path);
  }
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(hex(scenario::fnv1a(csv)), "0x31f27caf699c03ee")
      << csv.size() << " bytes";
}

}  // namespace
}  // namespace faaspart::trace
