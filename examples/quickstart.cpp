// Quickstart — the paper's Listing 1 shape in faaspart.
//
// Builds a Config with a CPU executor (max_workers=16) and a GPU executor,
// registers two apps, submits work, and prints the task table. Everything
// runs on virtual time: the program finishes in milliseconds of wall time
// while reporting seconds of simulated time.
#include <iostream>

#include "core/partitioner.hpp"
#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "trace/table.hpp"
#include "util/strings.hpp"
#include "workloads/dnn.hpp"

using namespace faaspart;
using namespace util::literals;

int main() {
  // --- the node: 24 CPU cores, one A100 (the §5.1 testbed, halved) --------
  sim::Simulator sim;
  trace::Recorder rec;
  nvml::DeviceManager devices(sim, &rec);
  devices.add_device(gpu::arch::a100_sxm4_40gb());
  faas::LocalProvider provider(sim, 24);
  core::GpuPartitioner partitioner(devices);

  // --- Listing 1: two executors, routed by label ---------------------------
  faas::Config config;
  config.retries = 1;
  faas::DataFlowKernel dfk(sim, config);

  {
    faas::HighThroughputExecutor::Options cpu;
    cpu.label = "cpu";
    cpu.cpu_workers = 16;  // max_workers=16
    auto ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                             std::move(cpu));
    ex->start();
    dfk.add_executor(std::move(ex));
  }
  {
    faas::HtexConfig gpu_cfg;
    gpu_cfg.label = "gpu";
    gpu_cfg.available_accelerators = {"0"};  // available_accelerators=1
    dfk.add_executor(partitioner.build_executor(sim, provider, gpu_cfg));
  }

  // --- two apps: a CPU preprocessing step and a GPU inference -------------
  faas::AppDef preprocess;
  preprocess.name = "preprocess";
  preprocess.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(200_ms);  // decode + resize a batch of images
    co_return faas::AppValue{8.0};
  };

  faas::AppDef classify;
  classify.name = "classify";
  classify.function_init = 800_ms;       // torch import on first call
  classify.model_bytes = 2 * util::GB;   // ResNet-50 weights + runtime
  classify.model_key = "resnet50";
  const auto kernels = workloads::models::resnet50().inference_kernels(8);
  // faaspart-lint: allow(C2) -- the lambda is stored in AppDef::body for the
  // app's whole lifetime; every coroutine it starts finishes while the
  // owning AppDef (and so the captures) is still alive
  classify.body = [kernels](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    for (const auto& k : kernels) co_await ctx.launch(k);
    co_return faas::AppValue{std::string("8 labels")};
  };

  // --- a tiny dataflow: classify depends on preprocess --------------------
  // The handles are the task table: the DFK keeps no task once it settles.
  std::vector<faas::AppHandle> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(dfk.submit(preprocess, "cpu"));
    tasks.push_back(dfk.submit_after({tasks.back().future}, classify, "gpu"));
  }
  sim.spawn(dfk.shutdown());
  sim.run();

  // --- report --------------------------------------------------------------
  trace::Table table({"task", "app", "worker", "queue (s)", "cold start (s)",
                      "run (s)", "state"});
  for (const faas::AppHandle& task : tasks) {
    const faas::TaskRecord* record = task.record.get();
    table.add_row(
        {std::to_string(record->id), record->app, record->worker,
         util::fixed(record->queue_time().seconds(), 2),
         util::fixed(record->cold_start.seconds(), 2),
         util::fixed(record->run_time().seconds(), 3),
         record->state == faas::TaskRecord::State::kDone ? "done" : "FAILED"});
  }
  table.print(std::cout);
  std::cout << "\nvirtual time elapsed: " << util::format_duration(sim.now() - util::TimePoint{})
            << " (notice the one-time cold start on the first classify task)\n";
  return 0;
}
