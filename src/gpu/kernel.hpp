// Kernel descriptions and the roofline service-time model.
//
// A KernelDesc is a resource footprint, not code: how many FLOPs, how many
// bytes of device-memory traffic, how wide the kernel can spread across SMs
// before extra SMs stop helping (its *saturation width*), and what fraction
// of peak HBM bandwidth it can draw when running alone at full width.
//
// The saturation width is the mechanism behind the paper's Fig 2 knee:
// LLaMa-2 decode is a batch-1 GEMV that "can only properly utilize about
// 20 SMs" — granting more SMs does not reduce its latency.
#pragma once

#include <cstddef>
#include <string>

#include "gpu/arch.hpp"
#include "util/units.hpp"

namespace faaspart::gpu {

enum class KernelKind {
  kGemm,         // dense matrix multiply (prefill, training)
  kGemv,         // matrix-vector (batch-1 decode)
  kConv,         // convolution layers
  kElementwise,  // activations, norms
  kMemcpyH2D,    // host→device transfer
  kMemcpyD2H,    // device→host transfer
  kOther,
};
inline constexpr std::size_t kKernelKindCount = static_cast<std::size_t>(KernelKind::kOther) + 1;

const char* kernel_kind_name(KernelKind k);

struct KernelDesc {
  std::string name;
  KernelKind kind = KernelKind::kOther;
  util::Flops flops = 0;    ///< floating-point work
  util::Bytes bytes = 0;    ///< device-memory traffic (reads + writes)
  int width_sms = 1;        ///< saturation width: SMs beyond this don't help
  double bw_fraction = 1.0; ///< achievable fraction of peak HBM bw at full width
};

/// A KernelDesc without its name: what a sharing engine schedules. Any
/// KernelDesc converts to it, so the timing model takes either.
struct KernelFootprint {
  KernelFootprint() = default;
  KernelFootprint(const KernelDesc& k)
      : kind(k.kind), flops(k.flops), bytes(k.bytes), width_sms(k.width_sms),
        bw_fraction(k.bw_fraction) {}

  KernelKind kind = KernelKind::kOther;
  util::Flops flops = 0;
  util::Bytes bytes = 0;
  int width_sms = 1;
  double bw_fraction = 1.0;
};

/// Resource grant a sharing engine gives one kernel.
struct KernelGrant {
  int sms = 0;  ///< SMs this kernel may occupy (post-cap, pre-width)
};

/// The two service-time components of a kernel under a grant.
struct KernelTiming {
  util::Duration compute{};    ///< FLOP time on min(grant, width) SMs
  util::Bytes bytes = 0;       ///< memory traffic to drain
  double solo_bw = 0;          ///< drain rate (B/s) with no co-runners
  int sms_effective = 0;       ///< min(grant, width), >= 1
};

/// Computes the fixed compute time and the solo memory-drain rate for a
/// kernel granted `grant.sms` SMs on `arch`-shaped hardware. Engines combine
/// these: a kernel completes when its compute time has elapsed AND its bytes
/// have drained (rate may be reduced by contention).
KernelTiming kernel_timing(const GpuArchSpec& arch, const KernelFootprint& k,
                           KernelGrant grant);

/// Service time with no contention: launch overhead + max(compute, bytes/solo_bw).
util::Duration solo_service_time(const GpuArchSpec& arch,
                                 const KernelFootprint& k, KernelGrant grant);

}  // namespace faaspart::gpu
