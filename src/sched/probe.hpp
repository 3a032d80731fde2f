// MpsProbe — MISO-style MIG-profile prediction via MPS co-run probes
// (PAPERS.md: MISO; DESIGN.md §13).
//
// Reconfiguring MIG to measure a function on every candidate profile costs a
// GPU reset per trial. MISO's shortcut: run the function under an MPS
// active-thread percentage shaped like the candidate profile's SM share,
// next to a background co-runner occupying the rest of the device, and
// predict MIG performance from that — no reset, one short probe per profile.
//
// Each probe is its own tiny private Simulator + Device: fully seeded and
// deterministic, virtual-time only, never touching the serving fleet. The
// measured co-run latency captures launch overhead, compute scaling under
// the SM cap and MPS contention; because MPS does not slice memory
// bandwidth the way MIG does, the probe takes the max of the measured
// latency and the analytic bandwidth-slice floor (roofline drain time at the
// profile's HBM slice share) — without that correction MPS systematically
// flatters small-memory profiles for bandwidth-bound kernels.
#pragma once

#include <vector>

#include "sched/profile_score.hpp"
#include "gpu/kernel.hpp"
#include "gpu/mig.hpp"

namespace faaspart::sched {

class MpsProbe {
 public:
  explicit MpsProbe(gpu::GpuArchSpec arch);

  /// Scores every MIG profile of the arch for a function whose request is
  /// the `kernels` sequence. `background` is the co-runner's kernel mix
  /// (defaults to the function's own kernels — self-interference, the
  /// conservative choice). Deterministic: same inputs, same scores.
  [[nodiscard]] std::vector<ProfileScore> score_function(
      const std::vector<gpu::KernelDesc>& kernels,
      const std::vector<gpu::KernelDesc>& background = {}) const;

 private:
  [[nodiscard]] ProfileScore score_profile(
      const gpu::MigProfile& profile,
      const std::vector<gpu::KernelDesc>& kernels,
      const std::vector<gpu::KernelDesc>& background) const;

  gpu::GpuArchSpec arch_;
};

}  // namespace faaspart::sched
