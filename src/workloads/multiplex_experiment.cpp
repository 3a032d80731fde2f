#include "workloads/multiplex_experiment.hpp"

#include <memory>
#include <sstream>

#include "core/partitioner.hpp"
#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "obs/chrome.hpp"
#include "obs/dashboard.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::workloads {

const char* multiplex_mode_name(MultiplexMode mode) {
  switch (mode) {
    case MultiplexMode::kSingle: return "single";
    case MultiplexMode::kTimeshare: return "timeshare";
    case MultiplexMode::kMps: return "mps";
    case MultiplexMode::kMig: return "mig";
  }
  return "?";
}

std::string mig_profile_for_processes(int processes) {
  switch (processes) {
    case 1: return "7g.80gb";
    case 2: return "3g.40gb";
    case 3: return "2g.20gb";
    case 4: return "1g.20gb";
    default:
      throw util::ConfigError(util::strf("no MIG layout for ", processes,
                                         " processes on one A100"));
  }
}

MultiplexRunResult run_multiplex_experiment(const MultiplexRunConfig& cfg) {
  FP_CHECK_MSG(cfg.processes >= 1, "need at least one process");
  FP_CHECK_MSG(
      static_cast<util::Bytes>(cfg.processes) *
              llama_memory_footprint(cfg.model, cfg.run) <=
          cfg.arch.memory,
      "instances exceed device memory (only four 7B fit an 80 GB A100, §5.2)");
  if (cfg.mode == MultiplexMode::kSingle) {
    FP_CHECK_MSG(cfg.processes == 1, "single mode means one process");
  }

  sim::Simulator sim;
  trace::Recorder rec;
  // Telemetry before everything it observes (destroyed after them, so device
  // destructors can still detach their sampler sources).
  std::unique_ptr<obs::Telemetry> telemetry;
  if (cfg.observability) {
    obs::TelemetryOptions topts;
    topts.sample_period = cfg.obs_sample_period;
    topts.tracing = cfg.obs_tracing;
    telemetry = std::make_unique<obs::Telemetry>(sim, topts);
  }
  // The injector outlives the devices/executors that subscribe to it
  // (declared before DeviceManager so it is destroyed after them).
  std::unique_ptr<faults::FaultInjector> injector;
  if (cfg.faults.enabled()) {
    injector = std::make_unique<faults::FaultInjector>(sim, cfg.faults, &rec);
  }
  nvml::DeviceManager mgr(sim, &rec);
  const int gpu = mgr.add_device(cfg.arch);
  faas::LocalProvider provider(sim, 24);  // §5.1 testbed
  core::GpuPartitioner part(mgr);
  faas::Config dfk_cfg;
  dfk_cfg.retries = cfg.retries;
  dfk_cfg.retry_backoff = cfg.retry_backoff_base;
  faas::DataFlowKernel dfk(sim, dfk_cfg);

  faas::HtexConfig htex;
  htex.label = "gpu";
  switch (cfg.mode) {
    case MultiplexMode::kSingle:
      htex.available_accelerators = {"0"};
      break;
    case MultiplexMode::kTimeshare:
      // Repeat the GPU id, no percentages: NVIDIA's default sharing.
      for (int i = 0; i < cfg.processes; ++i) {
        htex.available_accelerators.push_back("0");
      }
      break;
    case MultiplexMode::kMps:
      // Listing 2: equal split — 50 % each at 2, 33 % at 3, 25 % at 4.
      for (int i = 0; i < cfg.processes; ++i) {
        htex.available_accelerators.push_back("0");
        htex.gpu_percentages.push_back(100 / cfg.processes);
      }
      break;
    case MultiplexMode::kMig: {
      const std::string profile = mig_profile_for_processes(cfg.processes);
      gpu::Device& dev = mgr.device(gpu);
      dev.enable_mig();
      for (int i = 0; i < cfg.processes; ++i) {
        const auto id = dev.create_instance(profile);
        htex.available_accelerators.push_back(dev.instance(id).uuid);
      }
      break;
    }
  }

  dfk.add_executor(part.build_executor(sim, provider, htex, nullptr, &rec,
                                       cfg.seed));

  const faas::AppDef app = make_llama_completion_app(
      cfg.model.name + "-chat", cfg.model, cfg.run, cfg.shape);

  auto out = std::make_shared<BatchRunResult>();
  spawn_closed_loop_batch(sim, dfk, "gpu", app, cfg.processes,
                          cfg.total_completions, out);
  sim.run();
  if (injector != nullptr) injector->stop();
  FP_CHECK_MSG(out->tasks == static_cast<std::size_t>(cfg.total_completions),
               "batch did not complete");
  if (!cfg.allow_failures) {
    FP_CHECK_MSG(out->failures == 0, "tasks failed during the batch");
  }

  MultiplexRunResult result;
  result.config = cfg;
  result.batch = *out;
  result.failures = out->failures;
  result.retries_used = dfk.retries_used();
  if (injector != nullptr) {
    result.faults_injected = injector->stats().injected_total();
  }
  if (cfg.capture_chrome_trace) {
    std::ostringstream os;
    obs::write_enriched_chrome_trace(os, &rec, nullptr, nullptr);
    result.chrome_trace = os.str();
  }
  result.gpu_busy = mgr.device(gpu).busy_time();
  result.run_end = sim.now();
  // Utilization over the measured window (first body start → last finish).
  const auto extent_end = rec.last_end();
  result.gpu_utilization = mgr.device(gpu).measured_utilization(
      extent_end - result.batch.makespan, extent_end);
  if (telemetry != nullptr) {
    telemetry->finish();
    for (const auto& s : telemetry->sampler().series()) {
      result.partition_busy_s.emplace_back(s.name, s.busy_integral_s);
    }
    if (cfg.obs_render) {
      std::ostringstream prom;
      obs::write_prometheus(prom, telemetry->metrics());
      result.prometheus_text = prom.str();
      std::ostringstream enriched;
      obs::write_enriched_chrome_trace(enriched, &rec, telemetry->tracer(),
                                       &telemetry->sampler());
      result.obs_chrome_trace = enriched.str();
      std::ostringstream dash;
      obs::write_dashboard(
          dash, *telemetry,
          util::strf(cfg.processes, "-process ",
                     multiplex_mode_name(cfg.mode), " telemetry"));
      result.dashboard_text = dash.str();
    }
    if (!cfg.obs_export_dir.empty()) {
      (void)telemetry->export_all(cfg.obs_export_dir, &rec);
    }
  }
  return result;
}

}  // namespace faaspart::workloads
