#include "core/reconfigure.hpp"

#include <algorithm>

#include "faults/faults.hpp"
#include "gpu/mig.hpp"
#include "obs/telemetry.hpp"
#include "sched/mps.hpp"
#include "sched/slot.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::core {

namespace {

void count_reconfigure(sim::Simulator& sim, const char* kind) {
  if (auto* tel = sim.telemetry()) {
    // faaspart-lint: allow(O1) -- cold path: a reconfigure drains the GPU and
    // pays seconds of MIG/MPS teardown, so one registry lookup is noise
    tel->metrics().counter("reconfigures_total", {{"kind", kind}}).add();
  }
}

}  // namespace

sim::Co<ReconfigureReport> Reconfigurer::change_mps_percentages(
    faas::HighThroughputExecutor& ex, std::vector<int> new_percentages) {
  if (new_percentages.size() != ex.worker_count()) {
    throw util::ConfigError(util::strf(
        "change_mps_percentages: ", new_percentages.size(), " percentages for ",
        ex.worker_count(), " workers"));
  }
  for (const int pct : new_percentages) {
    if (pct <= 0 || pct > 100) {
      throw util::ConfigError(util::strf("GPU percentage ", pct, " outside (0, 100]"));
    }
  }
  const util::TimePoint t0 = manager_.simulator().now();
  std::vector<sim::Future<>> done;
  done.reserve(ex.worker_count());
  for (std::size_t i = 0; i < ex.worker_count(); ++i) {
    gpu::ContextOptions opts;
    opts.active_thread_percentage = new_percentages[i];
    done.push_back(ex.restart_worker(i, opts));
  }
  co_await sim::when_all(std::move(done));

  count_reconfigure(manager_.simulator(), "mps");
  ReconfigureReport report;
  report.total_time = manager_.simulator().now() - t0;
  report.workers_restarted = static_cast<int>(ex.worker_count());
  co_return report;
}

sim::Co<ReconfigureReport> Reconfigurer::change_device_layout(
    std::vector<TenantLayout> tenants, int device_index, WeightCache* cache) {
  FP_CHECK_MSG(!tenants.empty(), "change_device_layout needs tenants");
  std::vector<std::string> all_profiles;
  for (const auto& t : tenants) {
    FP_CHECK_MSG(t.executor != nullptr, "change_device_layout: null executor");
    if (!t.profiles.empty() && t.profiles.size() != t.executor->worker_count()) {
      throw util::ConfigError(util::strf(
          "change_device_layout: ", t.profiles.size(), " profiles for ",
          t.executor->worker_count(), " workers"));
    }
    for (const auto& p : t.profiles) all_profiles.push_back(p);
  }
  const util::TimePoint t0 = manager_.simulator().now();
  gpu::Device& dev = manager_.device(device_index);

  // 1. Every tenant off the device — the reset tears down all instances, so
  //    even tenants whose profile does not change must vacate (§6).
  std::vector<sim::Future<>> parked;
  for (const auto& t : tenants) {
    for (std::size_t i = 0; i < t.executor->worker_count(); ++i) {
      parked.push_back(t.executor->park_worker(i));
    }
  }
  co_await sim::when_all(std::move(parked));
  if (cache != nullptr) cache->release_device(dev);

  ReconfigureReport report;
  if (all_profiles.empty()) {
    // The plan evicts every tenant from this device: clear the layout and
    // leave the workers parked for a later cycle to revive.
    co_await manager_.clear_mig(device_index);
    count_reconfigure(manager_.simulator(), "mig");
    report.total_time = manager_.simulator().now() - t0;
    report.gpu_reset = true;
    co_return report;
  }

  // 2. GPU reset + the combined instance set. An injected instance-create
  //    failure (faults::FaultKind::kMigCreateFail) degrades gracefully
  //    instead of stranding the parked workers: fall back to MPS percentage
  //    caps sized like the requested profiles, or to plain timesharing when
  //    the MPS control daemon is down too (Table 1's isolation ladder,
  //    descended).
  std::vector<std::string> uuids;
  try {
    uuids = co_await manager_.configure_mig(device_index, all_profiles);
  } catch (const util::DeviceError& e) {
    report.degraded = true;
    report.degrade_reason = e.what();
  }

  if (!report.degraded) {
    // 3. Each tenant's workers back up against its own slice of the new
    //    instances; park-only tenants stay down.
    std::vector<sim::Future<>> restarted;
    std::size_t next_uuid = 0;
    for (const auto& t : tenants) {
      for (std::size_t i = 0; i < t.profiles.size(); ++i) {
        gpu::ContextOptions opts;
        opts.instance = dev.instance_by_uuid(uuids[next_uuid++]);
        restarted.push_back(t.executor->restart_worker(i, opts));
        ++report.workers_restarted;
      }
    }
    co_await sim::when_all(std::move(restarted));

    count_reconfigure(manager_.simulator(), "mig");
    report.total_time = manager_.simulator().now() - t0;
    report.gpu_reset = true;
    co_return report;
  }

  // Degraded path: wipe the half-built layout (second reset), then share the
  // bare device in the best remaining mode.
  co_await manager_.clear_mig(device_index);
  auto* fi = manager_.simulator().faults();
  const std::string device_key = util::strf("gpu:", device_index);
  const bool mps_ok = fi == nullptr || fi->mps_available(device_key);

  std::vector<sim::Future<>> restarted;
  if (mps_ok) {
    report.achieved = "mps";
    dev.set_engine_factory(sched::mps_factory());
    for (const auto& t : tenants) {
      for (std::size_t i = 0; i < t.profiles.size(); ++i) {
        // Approximate each requested profile with its SM share as an MPS
        // active-thread percentage.
        const gpu::MigProfile p = gpu::mig_profile(dev.arch(), t.profiles[i]);
        const int pct = std::clamp(
            static_cast<int>(100.0 * p.sms(dev.arch()) / dev.arch().total_sms),
            1, 100);
        gpu::ContextOptions opts;
        opts.active_thread_percentage = pct;
        restarted.push_back(t.executor->restart_worker(i, opts));
        ++report.workers_restarted;
      }
    }
  } else {
    report.achieved = "timeshare";
    dev.set_engine_factory(sched::timeshare_factory());
    for (const auto& t : tenants) {
      for (std::size_t i = 0; i < t.profiles.size(); ++i) {
        restarted.push_back(t.executor->restart_worker(i, gpu::ContextOptions{}));
        ++report.workers_restarted;
      }
    }
  }
  co_await sim::when_all(std::move(restarted));
  if (fi != nullptr) {
    fi->note_degradation(device_key, "mig", report.achieved,
                         report.degrade_reason);
  }
  count_reconfigure(manager_.simulator(), "mig");
  if (auto* tel = manager_.simulator().telemetry()) {
    // faaspart-lint: allow(O1) -- cold path: fallbacks happen at most once
    // per failed reconfigure attempt
    tel->metrics().counter("reconfigure_fallbacks_total").add();
  }

  report.total_time = manager_.simulator().now() - t0;
  report.gpu_reset = true;
  co_return report;
}

}  // namespace faaspart::core
