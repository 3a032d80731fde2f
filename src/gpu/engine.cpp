#include "gpu/engine.hpp"

#include <string>

#include "obs/telemetry.hpp"

namespace faaspart::gpu {

void SharingEngine::resolve_metrics() {
  auto* tel = env_.sim->telemetry();
  if (tel == nullptr) return;  // don't latch — telemetry may install later
  metrics_resolved_ = true;
  const obs::Labels labels{{"policy", policy_name()}};
  launches_ = &tel->metrics().counter("kernel_launches_total", labels);
  aborts_ = &tel->metrics().counter("kernel_aborts_total", labels);
}

void SharingEngine::resolve_throttle(int sm_cap) {
  auto* tel = env_.sim->telemetry();
  if (tel == nullptr) return;  // don't latch — telemetry may install later
  auto [it, inserted] = throttle_.try_emplace(sm_cap, nullptr);
  if (inserted) {
    // Recover the configured MPS percentage from the SM cap (the inverse
    // of the percentage → SMs rounding in ContextOptions handling).
    const int pct = env_.sms > 0 && sm_cap > 0
                        ? (100 * sm_cap + env_.sms / 2) / env_.sms
                        : 100;
    it->second = &tel->metrics().counter(
        "mps_throttle_seconds_total", {{"percentage", std::to_string(pct)}});
  }
  throttle_cap_ = sm_cap;
  throttle_counter_ = it->second;
}

}  // namespace faaspart::gpu
