#include "gpu/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace faaspart::gpu {

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::kGemm: return "gemm";
    case KernelKind::kGemv: return "gemv";
    case KernelKind::kConv: return "conv";
    case KernelKind::kElementwise: return "elementwise";
    case KernelKind::kMemcpyH2D: return "memcpy_h2d";
    case KernelKind::kMemcpyD2H: return "memcpy_d2h";
    case KernelKind::kOther: return "other";
  }
  return "?";
}

KernelTiming kernel_timing(const GpuArchSpec& arch, const KernelFootprint& k,
                           KernelGrant grant) {
  FP_CHECK_MSG(k.flops >= 0 && k.bytes >= 0, "negative kernel footprint");
  FP_CHECK_MSG(k.width_sms >= 1, "kernel width must be >= 1 SM");
  FP_CHECK_MSG(k.bw_fraction > 0.0 && k.bw_fraction <= 1.0,
               "bw_fraction must be in (0, 1]");
  FP_CHECK_MSG(grant.sms >= 1, "kernel grant must be >= 1 SM");

  KernelTiming t;
  t.sms_effective = std::min(grant.sms, k.width_sms);
  t.bytes = k.bytes;

  // Compute component: perfect strong scaling up to the saturation width.
  const double flops_rate = arch.flops_per_sm() * t.sms_effective;
  t.compute = flops_rate > 0 ? util::from_seconds(k.flops / flops_rate)
                             : util::Duration{0};

  // Memory component: fewer SMs than the width proportionally reduce the
  // load/store issue rate, hence achievable bandwidth.
  const double width_scale =
      static_cast<double>(t.sms_effective) / static_cast<double>(k.width_sms);
  t.solo_bw = std::max(1.0, k.bw_fraction * arch.mem_bw * width_scale);
  return t;
}

util::Duration solo_service_time(const GpuArchSpec& arch,
                                 const KernelFootprint& k, KernelGrant grant) {
  const KernelTiming t = kernel_timing(arch, k, grant);
  const util::Duration mem =
      util::from_seconds(static_cast<double>(t.bytes) / t.solo_bw);
  return arch.kernel_launch_overhead + std::max(t.compute, mem);
}

}  // namespace faaspart::gpu
