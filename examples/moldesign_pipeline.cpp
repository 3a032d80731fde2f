// Molecular-design pipeline — the paper's §3.1 scientific-computing
// workload end to end: a Colmena-style active-learning campaign over a
// Parsl-style DataFlowKernel, with the accelerator side multiplexed so the
// Fig 3 idle gaps can be filled by a co-located tenant.
//
// The example runs the campaign twice: GPUs dedicated (the paper's
// baseline) and GPUs shared via MPS with a co-located ResNet serving tenant
// soaking up the idle time — showing the utilization recovery the paper
// argues for.
#include <iostream>

#include "core/partitioner.hpp"
#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "trace/gantt.hpp"
#include "trace/table.hpp"
#include "util/strings.hpp"
#include "workloads/dnn.hpp"
#include "workloads/moldesign.hpp"
#include "workloads/serving.hpp"

using namespace faaspart;
using namespace util::literals;

namespace {

struct RunOutcome {
  workloads::MolDesignResult campaign;
  double gpu_utilization = 0;
  std::size_t co_tenant_tasks = 0;
};

RunOutcome run(bool co_locate, bool show_timeline) {
  sim::Simulator sim;
  trace::Recorder rec;
  nvml::DeviceManager devices(sim, &rec);
  devices.add_device(gpu::arch::a100_sxm4_40gb());
  devices.add_device(gpu::arch::a100_sxm4_40gb());
  faas::LocalProvider provider(sim, 24);
  core::GpuPartitioner partitioner(devices);
  faas::DataFlowKernel dfk(sim, faas::Config{});

  {
    faas::HighThroughputExecutor::Options cpu;
    cpu.label = "cpu";
    cpu.cpu_workers = 16;
    auto ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                             std::move(cpu));
    ex->start();
    dfk.add_executor(std::move(ex));
  }
  {
    faas::HtexConfig gpu_cfg;
    gpu_cfg.label = "gpu";
    if (co_locate) {
      // Each GPU split 60/40 between the campaign and a serving tenant.
      gpu_cfg.available_accelerators = {"0", "1"};
      gpu_cfg.gpu_percentages = {60, 60};
    } else {
      gpu_cfg.available_accelerators = {"0", "1"};
    }
    dfk.add_executor(
        partitioner.build_executor(sim, provider, gpu_cfg, nullptr, &rec));
  }
  std::shared_ptr<std::vector<workloads::TaskOutcome>> serving_outcomes;
  if (co_locate) {
    faas::HtexConfig serve_cfg;
    serve_cfg.label = "serving";
    serve_cfg.available_accelerators = {"0", "1"};
    serve_cfg.gpu_percentages = {40, 40};
    dfk.add_executor(
        partitioner.build_executor(sim, provider, serve_cfg, nullptr, &rec));

    faas::AppDef resnet;
    resnet.name = "resnet-serve";
    resnet.function_init = 500_ms;
    resnet.model_bytes = 2 * util::GB;
    const auto kernels = workloads::models::resnet50().inference_kernels(8);
    // faaspart-lint: allow(C2) -- the lambda is stored in AppDef::body for
    // the app's whole lifetime; every coroutine it starts finishes while the
    // owning AppDef (and so the captures) is still alive
    resnet.body = [kernels](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      for (const auto& k : kernels) co_await ctx.launch(k);
      co_return faas::AppValue{};
    };
    serving_outcomes = std::make_shared<std::vector<workloads::TaskOutcome>>();
    workloads::spawn_open_loop(sim, dfk, "serving", resnet, 8.0, 280_s, 99,
                               serving_outcomes);
  }

  workloads::MolDesignConfig cfg;
  cfg.rounds = 4;
  cfg.simulations_per_round = 12;
  workloads::MolDesignCampaign campaign(dfk, "cpu", "gpu", cfg, &rec);
  sim.spawn(campaign.run(), "campaign");
  sim.run();

  if (show_timeline) {
    std::cout << "phase timeline (s/t/i = campaign phases):\n";
    trace::render_gantt(std::cout, rec,
                        {.width = 100,
                         .category_prefix = "phase:",
                         .hide_empty_lanes = true});
    std::cout << "\n";
  }

  RunOutcome out;
  out.campaign = campaign.result();
  for (int g = 0; g < 2; ++g) {
    out.gpu_utilization +=
        devices.device(g).measured_utilization(rec.first_start(), rec.last_end()) /
        2;
  }
  if (serving_outcomes) {
    for (const auto& t : *serving_outcomes) {
      if (t.state == faas::TaskRecord::State::kDone) ++out.co_tenant_tasks;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "== molecular-design campaign: dedicated vs multiplexed GPUs ==\n\n";
  const auto dedicated = run(/*co_locate=*/false, /*show_timeline=*/true);
  const auto shared = run(/*co_locate=*/true, /*show_timeline=*/false);

  trace::Table table({"deployment", "campaign makespan (s)", "best IP found",
                      "mean GPU util", "co-tenant tasks served"});
  const auto row = [&](const char* name, const RunOutcome& o) {
    table.add_row({name, util::fixed(o.campaign.makespan.seconds(), 1),
                   util::fixed(o.campaign.best_ip_per_round.back(), 3),
                   util::fixed(100 * o.gpu_utilization, 1) + "%",
                   std::to_string(o.co_tenant_tasks)});
  };
  row("dedicated GPUs (paper baseline)", dedicated);
  row("MPS 60/40 with serving co-tenant", shared);
  table.print(std::cout);

  std::cout << "\nthe campaign barely slows down while the formerly idle GPU"
               " time (Fig 3's white gaps) now serves "
            << shared.co_tenant_tasks << " inference requests.\n";
  return 0;
}
