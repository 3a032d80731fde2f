// MIG partitioning walkthrough — the paper's §4.2 path: put a GPU in MIG
// mode, create instances, hand their UUIDs to the executor (Listing 3),
// serve tenants with hard isolation, then re-layout the GPU at runtime and
// observe the §6 costs with and without the §7 weight cache.
#include <iostream>

#include "core/partitioner.hpp"
#include "core/reconfigure.hpp"
#include "core/weightcache.hpp"
#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "nvml/smi.hpp"
#include "trace/table.hpp"
#include "util/strings.hpp"
#include "workloads/llama.hpp"

using namespace faaspart;

int main() {
  sim::Simulator sim;
  nvml::DeviceManager devices(sim);
  devices.add_device(gpu::arch::a100_80gb());
  faas::LocalProvider provider(sim, 24);
  core::GpuPartitioner partitioner(devices);
  core::Reconfigurer reconfigurer(devices);
  core::WeightCache cache;

  std::cout << "== MIG partitioning on " << devices.device(0).arch().name
            << " ==\n\navailable profiles:";
  for (const auto& p : gpu::mig_profiles(devices.device(0).arch())) {
    std::cout << " " << p.name;
  }
  std::cout << "\n\n";

  // 1. nvidia-smi mig: enable MIG and carve two 3g.40gb instances.
  sim.spawn([](nvml::DeviceManager& m) -> sim::Co<void> {
    const std::vector<std::string> layout{"3g.40gb", "3g.40gb"};
    const auto uuids = co_await m.configure_mig(0, layout);
    std::cout << "created instances (GPU reset took "
              << util::format_duration(m.device(0).arch().mig_reset) << "):\n";
    for (const auto& u : uuids) std::cout << "  " << u << "\n";
  }(devices));
  sim.run();

  // 2. Listing 3: the UUIDs become available_accelerators.
  faas::HtexConfig cfg;
  cfg.label = "gpu";
  for (const auto id : devices.device(0).instance_ids()) {
    cfg.available_accelerators.push_back(devices.device(0).instance(id).uuid);
  }
  faas::DataFlowKernel dfk(sim, faas::Config{});
  auto ex_owned = partitioner.build_executor(sim, provider, cfg, &cache);
  auto* ex = ex_owned.get();
  dfk.add_executor(std::move(ex_owned));

  // 3. Serve two isolated tenants.
  const auto app = workloads::make_llama_completion_app(
      "chat", workloads::llama2_7b(), workloads::serving_config(), {64, 32});
  auto a = dfk.submit(app, "gpu");
  auto b = dfk.submit(app, "gpu");
  sim.run();
  std::cout << "\n" << nvml::format_smi(devices);
  std::cout << "\ntwo tenants served on isolated 3g instances: "
            << util::fixed(a.record->run_time().seconds(), 2) << " s and "
            << util::fixed(b.record->run_time().seconds(), 2)
            << " s (memory isolated per instance: bare-device pool holds "
            << util::format_bytes(devices.device(0).memory().used()) << ")\n";

  // 4. Re-layout to 2g.20gb x3 at runtime (the §6 operation), weight cache
  //    absorbing the model reloads... except the layout changes the pool
  //    scopes, so the first load per new instance is a miss — exactly what
  //    a per-instance cache must do.
  std::cout << "\nre-layout 2x3g.40gb -> 2x2g.20gb (GPU reset + worker"
               " restarts):\n";
  auto report = std::make_shared<core::ReconfigureReport>();
  sim.spawn([](core::Reconfigurer& r, faas::HighThroughputExecutor& e,
               core::WeightCache& c,
               std::shared_ptr<core::ReconfigureReport> out) -> sim::Co<void> {
    std::vector<core::Reconfigurer::TenantLayout> tenants{
        {&e, {"2g.20gb", "2g.20gb"}}};
    *out = co_await r.change_device_layout(std::move(tenants), 0, &c);
  }(reconfigurer, *ex, cache, report));
  sim.run();
  std::cout << "  workers restarted: " << report->workers_restarted
            << ", total downtime: "
            << util::format_duration(report->total_time) << "\n";

  auto c = dfk.submit(app, "gpu");
  sim.run();
  std::cout << "  first task on the new layout: cold start "
            << util::fixed(c.record->cold_start.seconds(), 2)
            << " s (model re-upload into the new instance), run "
            << util::fixed(c.record->run_time().seconds(), 2) << " s\n";

  sim.spawn(dfk.shutdown());
  sim.run();
  std::cout << "\ntotal virtual time: "
            << util::format_duration(sim.now() - util::TimePoint{}) << "\n";
  return 0;
}
