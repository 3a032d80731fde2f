// Allocation budget of the serving hot path. This binary replaces the global
// operator new/delete with counting versions, which is why it is its own
// test executable. Six guards:
//   * a kernel costs about one heap block, its caller's future state, and
//     metrics-only telemetry adds none;
//   * a steady continuous-batching decode iteration costs one: its launch's
//     future state (the engine renames its decode kernel only when the batch
//     size changes);
//   * a Recorder on a gpu::Device must not add per-kernel heap blocks — only
//     the span log's fixed-size blocks separate N from 2N kernels;
//   * the span log keeps a recorded kernel span in at most 17 live heap
//     bytes (a 16-byte entry plus its block's share of malloc overhead);
//   * a request through ClusterService must not copy the registered body, so
//     a body capturing 256 KernelDescs costs as many blocks per request as
//     one capturing a single KernelDesc, and it costs at most 8 blocks;
//   * a settled request leaves no live heap behind: after a drained run of
//     2N requests the stack holds at most 32 bytes more per extra request
//     than after N, through ClusterService and through the DFK alone.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "federation/cluster.hpp"
#include "gpu/device.hpp"
#include "obs/telemetry.hpp"
#include "sched/engines.hpp"
#include "serve/engine.hpp"
#include "trace/recorder.hpp"
#include "workloads/dnn.hpp"

namespace {

// Single-threaded test binary: plain counters are enough. Live bytes count
// what malloc actually handed out (malloc_usable_size), so both sides of a
// new/delete pair agree.
std::size_t g_allocations = 0;
std::int64_t g_live_bytes = 0;

void release(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

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

/// Blocks allocated while two clients push `kernels` ResNet-50 kernels
/// through one A100 shared by `engine` (MPS unless given), with or without a
/// Recorder on the device, and with or without a metrics-only Telemetry on
/// the simulator.
std::int64_t kernel_stream_allocations(int kernels, bool with_recorder,
                                       const gpu::EngineFactory& engine =
                                           sched::mps_factory(),
                                       bool with_metrics = false) {
  const auto stream = workloads::models::resnet50().inference_kernels(8);
  const AllocWindow window;
  sim::Simulator sim;
  std::unique_ptr<obs::Telemetry> tel;
  if (with_metrics) {
    obs::TelemetryOptions topts;
    topts.tracing = false;
    tel = std::make_unique<obs::Telemetry>(sim, topts);
  }
  std::unique_ptr<trace::Recorder> rec;
  if (with_recorder) rec = std::make_unique<trace::Recorder>();
  gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, engine, rec.get());
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
  // Every span key is interned in the first few hundred kernels, so N and
  // 2N differ only by the span log's blocks (at most two).
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

/// Live heap bytes a Recorder holds after two clients pushed `kernels`
/// ResNet-50 kernels through an MPS-shared A100 that records on it, read
/// once the device and simulator are gone.
std::int64_t recorder_live_bytes(int kernels) {
  const auto stream = workloads::models::resnet50().inference_kernels(8);
  const std::int64_t base = g_live_bytes;
  trace::Recorder rec;
  {
    sim::Simulator sim;
    gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory(), &rec);
    for (const char* owner : {"llama-7b/worker-0", "resnet-serve/worker-0"}) {
      gpu::ContextOptions opts;
      opts.active_thread_percentage = 50;
      const gpu::ContextId ctx = dev.create_context(owner, opts);
      sim.spawn(launch_stream(dev, ctx, stream, kernels / 2), "launcher");
    }
    sim.run();
  }
  EXPECT_EQ(rec.spans().size(), static_cast<std::size_t>(kernels));
  return g_live_bytes - base;
}

TEST(AllocBudget, SpanLogKeepsAKernelSpanInAtMost17Bytes) {
  // N and 2N both end on a block boundary, so the difference is whole
  // blocks of 16-byte entries; the labels, keys and busy intervals are the
  // same for both.
  const int kSpans = static_cast<int>(2 * trace::SpanLog::kBlockEntries);
  const std::int64_t n = recorder_live_bytes(kSpans);
  const std::int64_t two_n = recorder_live_bytes(2 * kSpans);
  const double per_span = static_cast<double>(two_n - n) / kSpans;
  EXPECT_LE(per_span, 17.0) << "span log live heap grows " << per_span
                            << " B per recorded kernel span";
}

TEST(AllocBudget, KernelCostsAboutOneHeapBlock) {
  // The launch's future state is the one block a kernel needs; the rest is
  // amortized growth of the event slab and the span log. MPS admits a kernel
  // that finds no queue, and time-sharing starts one on an idle slot,
  // without passing it through a deque.
  constexpr int kKernels = 4000;
  (void)kernel_stream_allocations(kKernels, true);  // warm the frame arena
  const std::pair<const char*, gpu::EngineFactory> engines[] = {
      {"mps", sched::mps_factory()}, {"timeshare", sched::timeshare_factory()}};
  for (const auto& [policy, engine] : engines) {
    for (const bool with_recorder : {false, true}) {
      const double per_kernel =
          static_cast<double>(
              kernel_stream_allocations(2 * kKernels, with_recorder, engine) -
              kernel_stream_allocations(kKernels, with_recorder, engine)) /
          kKernels;
      EXPECT_LE(per_kernel, 1.05)
          << policy << (with_recorder ? ", with" : ", without") << " a Recorder";
    }
  }
  // Metrics sites on the kernel path count through cached handles, so a
  // metrics-only Telemetry adds only its sampler's ticks.
  const double with_metrics =
      static_cast<double>(
          kernel_stream_allocations(2 * kKernels, false, sched::mps_factory(), true) -
          kernel_stream_allocations(kKernels, false, sched::mps_factory(), true)) /
      kKernels;
  EXPECT_LE(with_metrics, 1.05) << "mps, with metrics-only telemetry";
}

// -- Decode iterations through a ServingEngine ---------------------------------

/// Blocks allocated while one ServingEngine on a time-shared A100 serves a
/// batch of 16 requests that each generate `tokens` tokens: one iteration
/// admits and prefills them all, and every later one is a plain decode step.
std::int64_t decode_allocations(int tokens) {
  constexpr int kBatch = 16;
  const AllocWindow window;
  sim::Simulator sim;
  gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::timeshare_factory());
  serve::ServingEngine engine(sim, dev, serve::EngineConfig{});
  engine.start();
  std::vector<sim::Future<serve::RequestOutcome>> outcomes;
  outcomes.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    serve::LlmRequest req;
    req.prompt_tokens = 32;
    req.max_new_tokens = tokens;
    outcomes.push_back(engine.submit(req));
  }
  engine.request_stop();
  sim.run();
  EXPECT_EQ(engine.stats().iterations, static_cast<std::uint64_t>(tokens));
  EXPECT_EQ(engine.stats().peak_batch, kBatch);
  for (const auto& f : outcomes) {
    EXPECT_EQ(f.value().kind, serve::OutcomeKind::kCompleted);
  }
  return window.count();
}

TEST(AllocBudget, DecodeIterationCostsOneHeapBlock) {
  // The launch's future state; the decode kernel keeps its name while the
  // batch size holds, and the positions scratch, the page tables and the
  // free-page bitmap allocate nothing per step (a page table's O(log n)
  // growth is what lifts it above 1).
  constexpr int kTokens = 512;
  (void)decode_allocations(kTokens);  // warm the frame arena
  const double per_iteration =
      static_cast<double>(decode_allocations(2 * kTokens) -
                          decode_allocations(kTokens)) /
      kTokens;
  EXPECT_LE(per_iteration, 1.05) << per_iteration << " blocks per decode iteration";
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
  // A request builds three records (cluster, DFK task, executor attempt) and
  // three promise/future pairs; the WAN leg is an awaited call that adds
  // neither, routing builds no candidate list, and its two spawned processes
  // keep their root-list links in their own frames (7.28 measured).
  constexpr double kBlocksPerRequest = 8;
  (void)request_allocations(kRequests, 1);  // warm the frame arena
  // Blocks for kRequests more requests: fixed setup costs cancel out.
  const auto marginal = [](int captured) {
    return request_allocations(2 * kRequests, captured) -
           request_allocations(kRequests, captured);
  };
  const std::int64_t small = marginal(1);
  const std::int64_t large = marginal(256);
  const double per_request = static_cast<double>(small) / kRequests;
  EXPECT_GT(small, 0);
  EXPECT_EQ(large, small) << "blocks per request: " << per_request
                          << " with 1 captured KernelDesc, "
                          << static_cast<double>(large) / kRequests << " with 256";
  EXPECT_LE(per_request, kBlocksPerRequest);
}

// -- Live heap after drained runs ----------------------------------------------

/// The budget per extra request, including the one 8-byte sample the test's
/// own client keeps.
constexpr std::int64_t kLiveBytesPerRequest = 32;

faas::AppDef ten_ms_app() {
  faas::AppDef app;
  app.name = "settle-and-forget";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(10_ms);
    co_return faas::AppValue{1.0};
  };
  return app;
}

/// One client of a closed loop: submits, awaits, keeps the completion time;
/// counts itself out of `clients_left` when done.
template <typename Submit>
sim::Co<void> sampling_client(Submit submit, int n, std::vector<double>* samples,
                              int* clients_left) {
  for (int i = 0; i < n; ++i) {
    faas::AppHandle h = submit();
    try {
      (void)co_await h.future;
    } catch (...) {
    }
    samples->push_back(h.record->completion_time().seconds());
  }
  --*clients_left;
}

/// Shuts `stack` down once every client is done.
template <typename Stack>
sim::Co<void> drain_after_clients(sim::Simulator* sim, Stack* stack, int* clients_left) {
  while (*clients_left > 0) co_await sim->delay(1_s);
  co_await stack->shutdown();
}

constexpr int kClients = 4;

/// Live heap bytes a drained run of `requests` requests through a
/// ClusterService on two CPU endpoints leaves behind, read while the whole
/// stack is still alive.
std::int64_t cluster_live_bytes(int requests) {
  const std::int64_t base = g_live_bytes;
  sim::Simulator sim;
  federation::ComputeService service(sim);
  for (const char* name : {"ep-00", "ep-01"}) {
    federation::Endpoint::Options eo;
    eo.name = name;
    eo.rtt = 10_ms;
    service.register_endpoint(std::make_unique<federation::Endpoint>(sim, eo))
        .add_cpu_executor("cpu", 2);
  }
  const std::string fn = service.register_function(ten_ms_app());
  federation::ClusterService cluster(sim, service);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(requests));
  int clients_left = kClients;
  for (int c = 0; c < kClients; ++c) {
    sim.spawn(sampling_client([&cluster, &fn] { return cluster.submit(fn, "cpu"); },
                              requests / kClients, &samples, &clients_left),
              "client");
  }
  sim.spawn(drain_after_clients(&sim, &cluster, &clients_left), "drain");
  sim.run();
  EXPECT_EQ(samples.size(), static_cast<std::size_t>(requests));
  return g_live_bytes - base;
}

/// The same through DataFlowKernel::submit on one CPU executor.
std::int64_t dfk_live_bytes(int requests) {
  const std::int64_t base = g_live_bytes;
  sim::Simulator sim;
  faas::LocalProvider provider(sim, 8);
  faas::DataFlowKernel dfk(sim, faas::Config{});
  faas::HighThroughputExecutor::Options opts;
  opts.label = "cpu";
  opts.cpu_workers = 2;
  auto ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider, std::move(opts));
  ex->start();
  dfk.add_executor(std::move(ex));
  const auto app = std::make_shared<const faas::AppDef>(ten_ms_app());
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(requests));
  int clients_left = kClients;
  for (int c = 0; c < kClients; ++c) {
    sim.spawn(sampling_client([&dfk, &app] { return dfk.submit(app, "cpu"); },
                              requests / kClients, &samples, &clients_left),
              "client");
  }
  sim.spawn(drain_after_clients(&sim, &dfk, &clients_left), "drain");
  sim.run();
  EXPECT_EQ(samples.size(), static_cast<std::size_t>(requests));
  EXPECT_EQ(dfk.tasks_submitted(), static_cast<std::size_t>(requests));
  return g_live_bytes - base;
}

/// Live bytes per extra request between drained runs of N and 2N requests.
template <typename Run>
double live_bytes_per_extra_request(Run run) {
  constexpr int kRequests = 512;
  (void)run(2 * kRequests);  // warm the frame arena
  const std::int64_t n = run(kRequests);
  const std::int64_t two_n = run(2 * kRequests);
  return static_cast<double>(two_n - n) / kRequests;
}

TEST(AllocBudget, SettledClusterRequestsLeaveAtMost32LiveBytes) {
  const double per_request = live_bytes_per_extra_request(cluster_live_bytes);
  EXPECT_LE(per_request, kLiveBytesPerRequest)
      << "live heap grows " << per_request << " B per settled request";
}

TEST(AllocBudget, SettledDfkTasksLeaveAtMost32LiveBytes) {
  const double per_request = live_bytes_per_extra_request(dfk_live_bytes);
  EXPECT_LE(per_request, kLiveBytesPerRequest)
      << "live heap grows " << per_request << " B per settled task";
}

}  // namespace
}  // namespace faaspart
