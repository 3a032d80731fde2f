// Property-based suites (parameterized gtest): invariants that must hold
// across randomized inputs and the whole parameter grid, not just on the
// hand-picked cases of the unit tests.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "faas/dfk.hpp"
#include "faas/executor.hpp"
#include "faas/provider.hpp"
#include "faults/faults.hpp"
#include "gpu/device.hpp"
#include "sched/engines.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"
#include "workloads/dnn.hpp"
#include "workloads/multiplex_experiment.hpp"

namespace faaspart {
namespace {

using gpu::KernelDesc;
using gpu::KernelKind;

// ===========================================================================
// 1. Sharing-engine invariants across policies × client counts × seeds
// ===========================================================================

enum class Policy { kTimeshare, kMps, kVgpu };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kTimeshare: return "timeshare";
    case Policy::kMps: return "mps";
    case Policy::kVgpu: return "vgpu";
  }
  return "?";
}

gpu::EngineFactory factory_for(Policy p, int clients) {
  switch (p) {
    case Policy::kTimeshare: return sched::timeshare_factory();
    case Policy::kMps: return sched::mps_factory();
    case Policy::kVgpu: return sched::vgpu_factory({.slots = clients});
  }
  return {};
}

struct EngineCase {
  Policy policy;
  int clients;
  std::uint64_t seed;
};

class EngineProperties : public ::testing::TestWithParam<EngineCase> {
 protected:
  /// Runs a randomized batch; returns per-kernel completion times and the
  /// recorder holding the spans.
  struct Run {
    std::vector<std::int64_t> completions;
    trace::Recorder rec;
    std::int64_t makespan_ns = 0;
  };

  static KernelDesc random_kernel(util::Rng& rng, int i) {
    KernelDesc k;
    k.name = "k" + std::to_string(i);
    k.kind = rng.chance(0.5) ? KernelKind::kGemm : KernelKind::kGemv;
    k.flops = rng.uniform(1e9, 5e11);
    k.bytes = rng.uniform_int(16 * util::MB, 2 * util::GB);
    k.width_sms = static_cast<int>(rng.uniform_int(4, 108));
    k.bw_fraction = rng.uniform(0.1, 0.9);
    return k;
  }

  static Run run_batch(const EngineCase& c, int kernels_per_client) {
    Run out;
    sim::Simulator sim;
    const auto lane_count = 1;
    (void)lane_count;
    gpu::Device dev(sim, gpu::arch::a100_80gb(), 0,
                    factory_for(c.policy, c.clients), &out.rec);
    util::Rng rng(c.seed);
    std::vector<gpu::ContextId> ctxs;
    for (int i = 0; i < c.clients; ++i) {
      ctxs.push_back(dev.create_context(
          "c" + std::to_string(i),
          {.active_thread_percentage = 100.0 / c.clients}));
    }
    std::vector<sim::Future<>> futures;
    for (int i = 0; i < kernels_per_client; ++i) {
      for (const auto ctx : ctxs) {
        futures.push_back(dev.launch(ctx, random_kernel(rng, i)));
      }
    }
    for (auto& f : futures) {
      sim.spawn([](sim::Future<> done, sim::Simulator& s,
                   std::vector<std::int64_t>& completions) -> sim::Co<void> {
        co_await done;
        completions.push_back(s.now().ns);
      }(f, sim, out.completions));
    }
    sim.run();
    out.makespan_ns = sim.now().ns;
    EXPECT_EQ(out.completions.size(), futures.size());
    return out;
  }
};

TEST_P(EngineProperties, AllKernelsComplete) {
  const auto run = run_batch(GetParam(), 8);
  for (const auto t : run.completions) EXPECT_GT(t, 0);
}

TEST_P(EngineProperties, DeterministicReplay) {
  const auto a = run_batch(GetParam(), 6);
  const auto b = run_batch(GetParam(), 6);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i], b.completions[i]);
  }
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
}

TEST_P(EngineProperties, SpansWithinMakespanAndPositive) {
  const auto run = run_batch(GetParam(), 8);
  for (const auto& s : run.rec.spans()) {
    EXPECT_GE(s.start.ns, 0);
    EXPECT_GT(s.end.ns, s.start.ns);  // every kernel takes nonzero time
    EXPECT_LE(s.end.ns, run.makespan_ns);
  }
}

TEST_P(EngineProperties, WorkConservationLowerBound) {
  // The batch can never finish faster than a perfectly parallel machine
  // would allow: makespan >= total-compute / device-capacity, with each
  // kernel's minimum service at full grant.
  const auto c = GetParam();
  const auto run = run_batch(c, 8);
  util::Rng rng(c.seed);
  double min_busy_s = 0;  // sum of solo service times at full device
  const auto arch = gpu::arch::a100_80gb();
  for (int i = 0; i < 8; ++i) {
    for (int cl = 0; cl < c.clients; ++cl) {
      min_busy_s +=
          gpu::solo_service_time(arch, random_kernel(rng, i), {arch.total_sms})
              .seconds();
    }
  }
  // A single device cannot beat width-aware perfect packing by more than
  // the SM ratio; the loosest correct bound is min_busy / (device SMs / min
  // width) — use the trivial bound makespan >= min_busy / clients (each
  // client's chain is serial through its stream).
  EXPECT_GE(run.makespan_ns,
            util::from_seconds(min_busy_s / c.clients).ns * 9 / 10);
}

TEST_P(EngineProperties, TimeshareNeverOverlapsKernels) {
  const auto c = GetParam();
  if (c.policy != Policy::kTimeshare) GTEST_SKIP();
  const auto run = run_batch(c, 8);
  // Exclusive access: busy time on the device lane equals the summed span
  // durations (no two kernels overlap).
  std::int64_t sum = 0;
  for (const auto& s : run.rec.spans()) sum += (s.end - s.start).ns;
  const auto busy = run.rec.busy_time(0, util::TimePoint{0},
                                      util::TimePoint{run.makespan_ns});
  EXPECT_EQ(busy.ns, sum);
}

TEST_P(EngineProperties, MpsOverlapsNarrowKernels) {
  const auto c = GetParam();
  if (c.policy != Policy::kMps || c.clients < 2) GTEST_SKIP();
  const auto run = run_batch(c, 8);
  std::int64_t sum = 0;
  for (const auto& s : run.rec.spans()) sum += (s.end - s.start).ns;
  const auto busy = run.rec.busy_time(0, util::TimePoint{0},
                                      util::TimePoint{run.makespan_ns});
  // Concurrency shows as union-busy < summed durations.
  EXPECT_LT(busy.ns, sum);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineProperties,
    ::testing::Values(EngineCase{Policy::kTimeshare, 1, 1},
                      EngineCase{Policy::kTimeshare, 3, 7},
                      EngineCase{Policy::kMps, 1, 11},
                      EngineCase{Policy::kMps, 2, 13},
                      EngineCase{Policy::kMps, 4, 17},
                      EngineCase{Policy::kVgpu, 2, 19},
                      EngineCase{Policy::kVgpu, 4, 23}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(policy_name(info.param.policy)) + "_c" +
             std::to_string(info.param.clients) + "_s" +
             std::to_string(info.param.seed);
    });

// ===========================================================================
// 2. Memory pool vs a reference model, randomized operation sequences
// ===========================================================================

class MemoryPoolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryPoolFuzz, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  constexpr util::Bytes kCap = 1 << 20;
  gpu::MemoryPool pool(kCap);
  std::map<gpu::AllocationId, util::Bytes> model;  // id -> size
  util::Bytes model_used = 0;

  for (int step = 0; step < 2000; ++step) {
    const bool do_alloc = model.empty() || rng.chance(0.55);
    if (do_alloc) {
      const auto size = rng.uniform_int(1, kCap / 16);
      try {
        const auto id = pool.allocate(size, "fuzz");
        model.emplace(id, size);
        model_used += size;
      } catch (const util::OutOfMemoryError&) {
        // Legal iff no single free block fits.
        EXPECT_LT(pool.largest_free_block(), size);
      }
    } else {
      auto it = model.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
      pool.free(it->first);
      model_used -= it->second;
      model.erase(it);
    }
    ASSERT_EQ(pool.used(), model_used);
    ASSERT_EQ(pool.allocation_count(), model.size());
    ASSERT_GE(pool.largest_free_block(), 0);
    ASSERT_LE(pool.largest_free_block(), pool.free_bytes());
  }

  // No two live allocations overlap.
  auto allocs = pool.allocations();
  std::sort(allocs.begin(), allocs.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  for (std::size_t i = 1; i < allocs.size(); ++i) {
    ASSERT_GE(allocs[i].offset, allocs[i - 1].offset + allocs[i - 1].size);
  }

  // Draining everything restores one maximal block.
  for (const auto& [id, size] : model) pool.free(id);
  EXPECT_EQ(pool.used(), 0);
  EXPECT_EQ(pool.largest_free_block(), kCap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPoolFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

// ===========================================================================
// 3. Kernel-model monotonicity over the whole grant range, per kernel shape
// ===========================================================================

struct KernelShape {
  const char* name;
  KernelDesc desc;
};

// gtest's default printer dumps the struct's bytes, `name`'s address
// included, into the ctest names; ASLR would change them on every run.
void PrintTo(const KernelShape& shape, std::ostream* os) { *os << shape.name; }

class KernelMonotonicity : public ::testing::TestWithParam<KernelShape> {};

TEST_P(KernelMonotonicity, LatencyNonIncreasingInGrant) {
  const auto arch = gpu::arch::a100_80gb();
  util::Duration prev{INT64_MAX};
  for (int sms = 1; sms <= arch.total_sms; ++sms) {
    const auto t = gpu::solo_service_time(arch, GetParam().desc, {sms});
    EXPECT_LE(t.ns, prev.ns) << "at " << sms << " SMs";
    prev = t;
  }
}

TEST_P(KernelMonotonicity, FlatBeyondWidth) {
  const auto arch = gpu::arch::a100_80gb();
  const auto& k = GetParam().desc;
  if (k.width_sms >= arch.total_sms) GTEST_SKIP();
  const auto at_width = gpu::solo_service_time(arch, k, {k.width_sms});
  const auto at_full = gpu::solo_service_time(arch, k, {arch.total_sms});
  EXPECT_EQ(at_width.ns, at_full.ns);
}

TEST_P(KernelMonotonicity, MpsMatchesAnalyticSoloTime) {
  // A single kernel on an idle MPS engine must take exactly its analytic
  // solo service time at the granted cap.
  const auto arch = gpu::arch::a100_80gb();
  const auto& k = GetParam().desc;
  for (const double pct : {25.0, 50.0, 100.0}) {
    sim::Simulator sim;
    gpu::Device dev(sim, arch, 0, sched::mps_factory());
    const auto ctx =
        dev.create_context("p", {.active_thread_percentage = pct});
    (void)dev.launch(ctx, k);
    sim.run();
    const int cap = dev.context(ctx).sm_cap();
    EXPECT_EQ(sim.now().ns, gpu::solo_service_time(arch, k, {cap}).ns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelMonotonicity,
    ::testing::Values(
        KernelShape{"narrow_bw", {"d", KernelKind::kGemv, 1e9, util::GB, 20, 0.1}},
        KernelShape{"wide_compute", {"g", KernelKind::kGemm, 5e11, 64 * util::MB, 108, 0.8}},
        KernelShape{"mid_mixed", {"m", KernelKind::kConv, 1e11, 512 * util::MB, 54, 0.5}},
        KernelShape{"tiny", {"t", KernelKind::kElementwise, 1e6, util::MiB, 4, 0.9}}),
    [](const ::testing::TestParamInfo<KernelShape>& info) {
      return info.param.name;
    });

// ===========================================================================
// 4. MIG isolation: a tenant's latency is independent of its neighbours
// ===========================================================================

class MigIsolation : public ::testing::TestWithParam<int> {};  // neighbour load

TEST_P(MigIsolation, NeighbourLoadDoesNotChangeTenantLatency) {
  const int neighbour_kernels = GetParam();
  const auto run_tenant = [&](int load) {
    sim::Simulator sim;
    gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory());
    dev.enable_mig();
    const auto mine = dev.create_instance("3g.40gb");
    const auto theirs = dev.create_instance("3g.40gb");
    const auto my_ctx = dev.create_context("me", {.instance = mine});
    const auto their_ctx = dev.create_context("them", {.instance = theirs});

    KernelDesc heavy{"heavy", KernelKind::kGemv, 1e10, 4 * util::GB, 40, 0.9};
    for (int i = 0; i < load; ++i) (void)dev.launch(their_ctx, heavy);

    KernelDesc mine_k{"mine", KernelKind::kGemv, 1e9, util::GB, 20, 0.5};
    auto fut = dev.launch(my_ctx, mine_k);
    auto done = std::make_shared<std::int64_t>(0);
    sim.spawn([](sim::Future<> f, sim::Simulator& s,
                 std::shared_ptr<std::int64_t> at) -> sim::Co<void> {
      co_await f;
      *at = s.now().ns;
    }(fut, sim, done));
    sim.run();
    return *done;
  };
  EXPECT_EQ(run_tenant(0), run_tenant(neighbour_kernels));
}

INSTANTIATE_TEST_SUITE_P(Loads, MigIsolation, ::testing::Values(1, 4, 16));

// ===========================================================================
// 5. DNN builders: structural invariants over the whole model zoo
// ===========================================================================

class DnnModelProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(DnnModelProperties, GeometryAndCosts) {
  const auto model = workloads::models::by_name(GetParam());
  EXPECT_FALSE(model.layers.empty());
  for (const auto& l : model.layers) {
    EXPECT_GT(l.out_c, 0);
    EXPECT_GT(l.out_h, 0);
    EXPECT_GT(l.out_w, 0);
    EXPECT_GE(l.flops, 0.0);
    if (l.type != workloads::LayerType::kPool) {
      EXPECT_GT(l.flops, 0.0);
      EXPECT_GT(l.weight_bytes, 0);
    } else {
      EXPECT_EQ(l.weight_bytes, 0);
    }
  }
  // ImageNet head: 1000 classes.
  EXPECT_EQ(model.layers.back().out_c, 1000);
  // Every kernel is launchable (valid width / bw_fraction).
  for (const auto& k : model.inference_kernels(4)) {
    EXPECT_GE(k.width_sms, 1);
    EXPECT_LE(k.width_sms, 108);
    EXPECT_GT(k.bw_fraction, 0.0);
    EXPECT_LE(k.bw_fraction, 1.0);
  }
}

TEST_P(DnnModelProperties, FlopsScaleLinearlyWithBatch) {
  const auto model = workloads::models::by_name(GetParam());
  const auto k1 = model.inference_kernels(1);
  const auto k16 = model.inference_kernels(16);
  ASSERT_EQ(k1.size(), k16.size());
  for (std::size_t i = 0; i < k1.size(); ++i) {
    EXPECT_NEAR(k16[i].flops / k1[i].flops, 16.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, DnnModelProperties,
                         ::testing::Values("alexnet", "vgg16", "resnet18",
                                           "resnet34", "resnet50", "resnet101",
                                           "resnet152"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ===========================================================================
// 6. Chaos properties: the fault layer preserves determinism, loses no
//    futures, and cannot create capacity.
// ===========================================================================

class ChaosProperties
    : public ::testing::TestWithParam<workloads::MultiplexMode> {
 protected:
  static workloads::MultiplexRunConfig chaotic_config(
      workloads::MultiplexMode mode) {
    workloads::MultiplexRunConfig cfg;
    cfg.mode = mode;
    cfg.processes = 2;
    cfg.total_completions = 8;
    cfg.seed = 3;
    cfg.faults.seed = 9;
    cfg.faults.worker_crash_rate_hz = 0.02;
    cfg.faults.device_error_rate_hz = 0.005;
    cfg.faults.horizon = util::TimePoint{} + util::seconds(600);
    cfg.retries = 4;
    cfg.retry_backoff_base = util::milliseconds(100);
    cfg.allow_failures = true;
    cfg.capture_chrome_trace = true;
    return cfg;
  }
};

TEST_P(ChaosProperties, SameSeedAndPlanReplayByteIdentical) {
  const auto cfg = chaotic_config(GetParam());
  const auto a = workloads::run_multiplex_experiment(cfg);
  const auto b = workloads::run_multiplex_experiment(cfg);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.batch.makespan.ns, b.batch.makespan.ns);
  EXPECT_EQ(a.retries_used, b.retries_used);
  ASSERT_FALSE(a.chrome_trace.empty());
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);  // byte-identical replay
}

TEST_P(ChaosProperties, EveryTaskSettlesUnderFaults) {
  const auto r = workloads::run_multiplex_experiment(chaotic_config(GetParam()));
  // run_multiplex_experiment FP_CHECKs tasks == total (all futures settled);
  // here: whatever failed did so only after exhausting its retries.
  EXPECT_EQ(r.batch.tasks, 8u);
  EXPECT_LE(r.failures, r.batch.tasks);
}

TEST_P(ChaosProperties, BusyTimeNeverExceedsCapacityUnderFaults) {
  const auto r = workloads::run_multiplex_experiment(chaotic_config(GetParam()));
  // One device: total busy time ≤ elapsed virtual time, even with crashes,
  // aborted kernels and retried work. (MIG busy is share-weighted, so the
  // bound holds per-device across modes.)
  EXPECT_LE(r.gpu_busy.ns, r.run_end.ns);
  EXPECT_LE(r.gpu_utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ChaosProperties,
    ::testing::Values(workloads::MultiplexMode::kTimeshare,
                      workloads::MultiplexMode::kMps,
                      workloads::MultiplexMode::kMig),
    [](const ::testing::TestParamInfo<workloads::MultiplexMode>& info) {
      return std::string(workloads::multiplex_mode_name(info.param));
    });

// ===========================================================================
// 7. No lost futures: every submitted app settles even while workers crash.
// ===========================================================================

TEST(ChaosNoLostFutures, AllFuturesSettleWithCrashStorm) {
  sim::Simulator sim;
  faults::FaultPlan plan;
  plan.seed = 21;
  plan.worker_crash_rate_hz = 0.1;
  plan.horizon = util::TimePoint{} + util::seconds(200);
  faults::FaultInjector fi(sim, plan);

  faas::LocalProvider provider(sim, 24);
  faas::Config cfg;
  cfg.retries = 2;
  cfg.retry_backoff = util::milliseconds(50);
  faas::DataFlowKernel dfk(sim, cfg);
  faas::HighThroughputExecutor::Options opts;
  opts.label = "cpu";
  opts.cpu_workers = 3;
  auto ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                           std::move(opts));
  ex->start();
  dfk.add_executor(std::move(ex));

  faas::AppDef app;
  app.name = "sleepy";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(util::seconds(5));
    co_return faas::AppValue{1.0};
  };
  std::vector<faas::AppHandle> handles;
  for (int i = 0; i < 30; ++i) handles.push_back(dfk.submit(app, "cpu"));
  sim.run();

  EXPECT_GT(fi.stats().injected_total(), 0u);
  for (const auto& h : handles) {
    ASSERT_TRUE(h.future.ready());  // no lost futures
    if (h.record->state == faas::TaskRecord::State::kFailed) {
      EXPECT_EQ(h.record->tries, 3);  // failed only with retries exhausted
    } else {
      EXPECT_EQ(h.record->state, faas::TaskRecord::State::kDone);
    }
  }
}

}  // namespace
}  // namespace faaspart
