// Allocation budget of the serving hot path. This binary replaces the global
// operator new/delete with counting versions, which is why it is its own
// test executable. Three guards:
//   * a kernel costs about one heap block, its caller's future state;
//   * a Recorder on a gpu::Device must not add per-kernel heap blocks — only
//     the span vector's O(log n) growth separates N from 2N kernels;
//   * a request through ClusterService must not copy the registered body, so
//     a body capturing 256 KernelDescs costs as many blocks per request as
//     one capturing a single KernelDesc.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "federation/cluster.hpp"
#include "gpu/device.hpp"
#include "sched/engines.hpp"
#include "trace/recorder.hpp"
#include "workloads/dnn.hpp"

namespace {

// Single-threaded test binary: a plain counter is enough.
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace faaspart {
namespace {

using namespace util::literals;

/// Heap blocks allocated since construction.
class AllocWindow {
 public:
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(g_allocations - start_);
  }

 private:
  std::size_t start_ = g_allocations;
};

// -- Recorder on the MPS kernel stream ----------------------------------------

sim::Co<void> launch_stream(gpu::Device& dev, gpu::ContextId ctx,
                            const std::vector<gpu::KernelDesc>& kernels, int n) {
  for (int i = 0; i < n; ++i) {
    co_await dev.launch(ctx, kernels[static_cast<std::size_t>(i) % kernels.size()]);
  }
}

/// Blocks allocated while two MPS clients push `kernels` ResNet-50 kernels
/// through one A100, with or without a Recorder on the device.
std::int64_t kernel_stream_allocations(int kernels, bool with_recorder) {
  const auto stream = workloads::models::resnet50().inference_kernels(8);
  const AllocWindow window;
  sim::Simulator sim;
  std::unique_ptr<trace::Recorder> rec;
  if (with_recorder) rec = std::make_unique<trace::Recorder>();
  gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory(), rec.get());
  for (const char* owner : {"llama-7b/worker-0", "resnet-serve/worker-0"}) {
    gpu::ContextOptions opts;
    opts.active_thread_percentage = 50;
    const gpu::ContextId ctx = dev.create_context(owner, opts);
    sim.spawn(launch_stream(dev, ctx, stream, kernels / 2), "launcher");
  }
  sim.run();
  if (rec != nullptr) {
    EXPECT_EQ(rec->spans().size(), static_cast<std::size_t>(kernels));
  }
  return window.count();
}

TEST(AllocBudget, RecorderAddsNoPerKernelAllocations) {
  // Every label is interned in the first few hundred kernels, so N and 2N
  // differ only by one more doubling of the span vector.
  constexpr int kKernels = 4000;
  (void)kernel_stream_allocations(kKernels, true);  // warm the frame arena
  const auto extra = [](int n) {
    return kernel_stream_allocations(n, true) - kernel_stream_allocations(n, false);
  };
  const std::int64_t extra_n = extra(kKernels);
  const std::int64_t extra_2n = extra(2 * kKernels);
  EXPECT_LE(extra_2n - extra_n, 2) << "Recorder blocks: " << extra_n << " for "
                                   << kKernels << " kernels, " << extra_2n
                                   << " for " << 2 * kKernels;
}

TEST(AllocBudget, KernelCostsAboutOneHeapBlock) {
  // The launch's future state is the one block a kernel needs; the rest is
  // amortized growth of the stream queues, the event slab and the span log.
  constexpr int kKernels = 4000;
  (void)kernel_stream_allocations(kKernels, true);  // warm the frame arena
  for (const bool with_recorder : {false, true}) {
    const double per_kernel =
        static_cast<double>(kernel_stream_allocations(2 * kKernels, with_recorder) -
                            kernel_stream_allocations(kKernels, with_recorder)) /
        kKernels;
    EXPECT_LE(per_kernel, 1.25) << (with_recorder ? "with" : "without")
                                << " a Recorder";
  }
}

// -- Requests through ClusterService -------------------------------------------

sim::Co<void> shutdown_after(sim::Simulator* sim, federation::ClusterService* cluster,
                             util::Duration delay) {
  co_await sim->delay(delay);
  co_await cluster->shutdown();
}

/// Blocks allocated serving `requests` requests of a function whose body
/// captures `captured` kernel descriptors (it never launches them).
std::int64_t request_allocations(int requests, int captured) {
  std::vector<gpu::KernelDesc> kernels(
      static_cast<std::size_t>(captured),
      gpu::KernelDesc{"conv2d-3x3-stride1-long-name", gpu::KernelKind::kConv, 1e9,
                      util::MB, 20, 0.5});
  sim::Simulator sim;
  federation::ComputeService service(sim);
  federation::Endpoint::Options eo;
  eo.name = "ep-00";
  eo.rtt = 10_ms;
  service.register_endpoint(std::make_unique<federation::Endpoint>(sim, eo))
      .add_cpu_executor("cpu", 4);
  faas::AppDef app;
  app.name = "captures";
  app.body = [kernels](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(10_ms);
    co_return faas::AppValue{static_cast<double>(kernels.size())};
  };
  const std::string fn = service.register_function(std::move(app));
  federation::ClusterService cluster(sim, service);

  const AllocWindow window;
  std::vector<faas::AppHandle> handles;
  handles.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) handles.push_back(cluster.submit(fn, "cpu"));
  sim.spawn(shutdown_after(&sim, &cluster, 1_ms), "drain");
  sim.run();
  for (const auto& h : handles) EXPECT_FALSE(h.future.failed());
  return window.count();
}

TEST(AllocBudget, RequestsDoNotCopyTheRegisteredBody) {
  constexpr int kRequests = 64;
  (void)request_allocations(kRequests, 1);  // warm the frame arena
  // Blocks for kRequests more requests: fixed setup costs cancel out.
  const auto marginal = [](int captured) {
    return request_allocations(2 * kRequests, captured) -
           request_allocations(kRequests, captured);
  };
  const std::int64_t small = marginal(1);
  const std::int64_t large = marginal(256);
  EXPECT_GT(small, 0);
  EXPECT_EQ(large, small) << "blocks per request: "
                          << static_cast<double>(small) / kRequests
                          << " with 1 captured KernelDesc, "
                          << static_cast<double>(large) / kRequests << " with 256";
}

}  // namespace
}  // namespace faaspart
