// Serial-slot sharing: the time-sharing and vGPU rows of Table 1, built by
// one engine that divides its envelope into homogeneous slots. A slot runs
// one kernel at a time, in submission order, on the slot's SMs and
// bandwidth, whatever the client's SM cap (only the MPS daemon enforces
// caps).
//
// * timeshare_factory() — the NVIDIA default when processes share a GPU
//   without MPS or MIG (row 1). One slot spans the envelope and every
//   client shares it; the hardware pays a context switch when consecutive
//   kernels come from different clients. A kernel narrower than the device
//   leaves the remaining SMs idle — exactly the "low hardware utilization
//   when an application cannot saturate the GPU" drawback the paper calls
//   out.
// * vgpu_factory() — NVIDIA vGPU (row 5). Each client context is pinned to
//   one of N slots for its lifetime, like a VM with a fixed vGPU profile;
//   slots share neither SMs nor bandwidth, and no switch is charged.
//   Reconfiguring the slot count requires a VM restart — modeled by the same
//   "no live contexts" rule the other policies use.
#pragma once

#include "gpu/engine.hpp"

namespace faaspart::sched {

struct VgpuOptions {
  int slots = 2;  ///< homogeneous division of the envelope
};

/// Factory for Device / nvml: the out-of-the-box sharing policy.
gpu::EngineFactory timeshare_factory();

/// vGPU over `opts.slots` slots; building an engine throws util::Error
/// unless 1 <= slots <= the envelope's SMs.
gpu::EngineFactory vgpu_factory(VgpuOptions opts);

}  // namespace faaspart::sched
