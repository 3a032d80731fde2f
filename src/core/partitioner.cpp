#include "core/partitioner.hpp"

#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::core {

nvml::MpsControl& GpuPartitioner::mps(int device_index) {
  auto it = daemons_.find(device_index);
  if (it == daemons_.end()) {
    it = daemons_
             .emplace(device_index, std::make_unique<nvml::MpsControl>(
                                        manager_.device(device_index)))
             .first;
  }
  return *it->second;
}

std::vector<faas::WorkerBinding> GpuPartitioner::resolve(
    const faas::HtexConfig& cfg) {
  const bool with_percentages = !cfg.gpu_percentages.empty();
  if (with_percentages &&
      cfg.gpu_percentages.size() != cfg.available_accelerators.size()) {
    throw util::ConfigError(util::strf(
        "executor '", cfg.label, "': gpu_percentages has ",
        cfg.gpu_percentages.size(), " entries but available_accelerators has ",
        cfg.available_accelerators.size()));
  }
  if (with_percentages) {
    for (const int pct : cfg.gpu_percentages) {
      if (pct <= 0 || pct > 100) {
        throw util::ConfigError(util::strf("executor '", cfg.label,
                                           "': GPU percentage ", pct,
                                           " outside (0, 100]"));
      }
    }
  }

  std::vector<faas::WorkerBinding> bindings;
  std::set<int> devices_needing_mps;

  for (std::size_t i = 0; i < cfg.available_accelerators.size(); ++i) {
    const AcceleratorRef ref = AcceleratorRef::parse(cfg.available_accelerators[i]);
    faas::WorkerBinding b;
    b.accelerator = cfg.available_accelerators[i];
    if (ref.kind == AcceleratorRef::Kind::kGpu) {
      b.device = &manager_.device(ref.gpu_index);
      if (with_percentages) {
        b.ctx_opts.active_thread_percentage = cfg.gpu_percentages[i];
        devices_needing_mps.insert(ref.gpu_index);
      }
    } else {
      const int dev_index = manager_.device_of_instance(ref.mig_uuid);
      gpu::Device& dev = manager_.device(dev_index);
      b.device = &dev;
      b.ctx_opts.instance = dev.instance_by_uuid(ref.mig_uuid);
      if (with_percentages) {
        // MPS inside a MIG instance: the percentage applies to the slice.
        b.ctx_opts.active_thread_percentage = cfg.gpu_percentages[i];
      }
    }
    bindings.push_back(std::move(b));
  }

  // "We need to make sure that nvidia-cuda-mps-control is launched in the
  // compute node before any function with GPU code runs" (§4.1).
  for (const int dev : devices_needing_mps) {
    nvml::MpsControl& daemon = mps(dev);
    if (!daemon.running()) {
      daemon.start();
      manager_.simulator().run_until(manager_.simulator().now() +
                                     daemon.startup_cost());
    }
  }
  return bindings;
}

std::unique_ptr<faas::HighThroughputExecutor> GpuPartitioner::build_executor(
    sim::Simulator& sim, faas::LocalProvider& provider,
    const faas::HtexConfig& cfg, faas::ModelLoader* loader,
    trace::Recorder* rec, std::uint64_t seed) {
  faas::HighThroughputExecutor::Options opts;
  opts.label = cfg.label;
  opts.cpu_workers = cfg.max_workers;
  opts.cpu_cores_per_worker = cfg.cpu_cores_per_worker;
  opts.bindings = resolve(cfg);
  opts.seed = seed;
  auto ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                           std::move(opts),
                                                           loader, rec);
  ex->start();
  return ex;
}

}  // namespace faaspart::core
