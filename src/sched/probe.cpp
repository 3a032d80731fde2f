#include "sched/probe.hpp"

#include <algorithm>

#include "gpu/device.hpp"
#include "sched/mps.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace faaspart::sched {

namespace {

/// Foreground requests measured per candidate profile.
constexpr int kRequests = 6;
/// Host-side gap between foreground requests (decode loop, scheduling).
constexpr util::Duration kHostGap = util::microseconds(50);
/// Staggers the background co-runner's start (by 1 ns) so fg/bg kernels do
/// not run in lockstep.
constexpr util::Duration kBackgroundOffset{1};

sim::Co<void> run_foreground(sim::Simulator& sim, gpu::Device& dev,
                             gpu::ContextId ctx,
                             const std::vector<gpu::KernelDesc>& kernels,
                             util::Duration& total, bool& done) {
  for (int i = 0; i < kRequests; ++i) {
    const util::TimePoint start = sim.now();
    for (const auto& k : kernels) {
      auto fut = dev.launch(ctx, k);
      co_await fut;
    }
    total += sim.now() - start;
    co_await sim.delay(kHostGap);
  }
  done = true;
}

sim::Co<void> run_background(sim::Simulator& sim, gpu::Device& dev,
                             gpu::ContextId ctx,
                             const std::vector<gpu::KernelDesc>& kernels,
                             const bool& done) {
  co_await sim.delay(kBackgroundOffset);
  while (!done) {
    for (const auto& k : kernels) {
      if (done) break;
      auto fut = dev.launch(ctx, k);
      co_await fut;
    }
  }
}

}  // namespace

MpsProbe::MpsProbe(gpu::GpuArchSpec arch) : arch_(std::move(arch)) {}

ProfileScore MpsProbe::score_profile(
    const gpu::MigProfile& profile, const std::vector<gpu::KernelDesc>& kernels,
    const std::vector<gpu::KernelDesc>& background) const {
  sim::Simulator sim;
  gpu::Device dev(sim, arch_, /*index=*/0, mps_factory());

  const double fg_pct = std::clamp(
      100.0 * profile.sms(arch_) / arch_.total_sms, 1.0, 100.0);
  gpu::ContextOptions fg_opts;
  fg_opts.active_thread_percentage = fg_pct;
  const gpu::ContextId fg = dev.create_context("probe-fg", fg_opts);

  util::Duration total{};
  bool done = false;
  sim.spawn(run_foreground(sim, dev, fg, kernels, total, done), "probe-fg");
  if (fg_pct <= 99.0) {
    gpu::ContextOptions bg_opts;
    bg_opts.active_thread_percentage = 100.0 - fg_pct;
    const gpu::ContextId bg = dev.create_context("probe-bg", bg_opts);
    sim.spawn(run_background(sim, dev, bg, background, done), "probe-bg");
  }
  sim.run();

  const double measured_s = total.seconds() / kRequests;

  // Analytic bandwidth-slice floor: on the MIG instance the request's bytes
  // drain at the profile's HBM slice share, not the whole device's.
  double floor_s = 0;
  const int grant_sms = std::max(1, profile.sms(arch_));
  for (const auto& k : kernels) {
    const gpu::KernelTiming t =
        gpu::kernel_timing(arch_, k, gpu::KernelGrant{grant_sms});
    const double slice_share = static_cast<double>(profile.mem_slices) /
                               static_cast<double>(arch_.mem_slices);
    const double slice_bw = std::max(1.0, t.solo_bw * slice_share);
    const double mem_s = static_cast<double>(t.bytes) / slice_bw;
    floor_s += arch_.kernel_launch_overhead.seconds() +
               std::max(t.compute.seconds(), mem_s);
  }

  ProfileScore score;
  score.profile = profile.name;
  score.latency_s = std::max(measured_s, floor_s);
  score.throughput_hz = score.latency_s > 0 ? 1.0 / score.latency_s : 0.0;
  return score;
}

std::vector<ProfileScore> MpsProbe::score_function(
    const std::vector<gpu::KernelDesc>& kernels,
    const std::vector<gpu::KernelDesc>& background) const {
  FP_CHECK_MSG(!kernels.empty(), "probe needs kernels");
  const std::vector<gpu::KernelDesc>& bg =
      background.empty() ? kernels : background;
  std::vector<ProfileScore> scores;
  for (const auto& profile : gpu::mig_profiles(arch_)) {
    scores.push_back(score_profile(profile, kernels, bg));
  }
  return scores;
}

}  // namespace faaspart::sched
