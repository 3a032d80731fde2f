#include <gtest/gtest.h>

#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <vector>

#include "sched/engines.hpp"
#include "util/error.hpp"

namespace faaspart::sched {
namespace {

using gpu::KernelDesc;
using gpu::KernelJob;
using gpu::KernelKind;
using namespace util::literals;

/// Stands in for the Device as the engines' job sink and records when each
/// job ends.
struct EngineFixture : ::testing::Test, gpu::JobSink {
  sim::Simulator sim;
  gpu::GpuArchSpec a100 = gpu::arch::a100_80gb();
  /// Completion slots of each context's unfinished jobs, in submission
  /// order: an engine ends one context's jobs in that order (no case here
  /// runs one context's jobs side by side on MPS).
  std::map<gpu::ContextId, std::deque<std::shared_ptr<util::TimePoint>>> unfinished;

  gpu::EngineEnv env() {
    return gpu::EngineEnv{&sim, a100, a100.total_sms, a100.mem_bw, this};
  }

  /// Submits a job and returns a slot that records its completion time.
  std::shared_ptr<util::TimePoint> submit(gpu::SharingEngine& eng, gpu::ContextId ctx,
                                          int cap, const KernelDesc& k) {
    auto done_at = std::make_shared<util::TimePoint>(util::TimePoint{-1});
    unfinished[ctx].push_back(done_at);
    eng.submit(KernelJob{ctx, cap, k});
    return done_at;
  }

  void finish(const KernelJob& job, std::exception_ptr /*error*/) override {
    auto& slots = unfinished[job.ctx];
    *slots.front() = sim.now();
    slots.pop_front();
  }
};

/// A 20-SM-wide, bandwidth-hungry decode-style kernel.
KernelDesc decode_kernel(util::Bytes bytes = 1 * util::GB) {
  return KernelDesc{"decode", KernelKind::kGemv, 1e9, bytes, 20, 0.5};
}

/// A wide compute-bound kernel.
KernelDesc gemm_kernel(util::Flops flops = 1e12) {
  return KernelDesc{"gemm", KernelKind::kGemm, flops, 64 * util::MB, 108, 0.8};
}

// ---------------------------------------------------------------------------
// Time-sharing: one slot over the whole envelope
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, TimeShareSerializesAcrossClients) {
  const auto eng = timeshare_factory()(env());
  const auto solo = gpu::solo_service_time(a100, decode_kernel(), {108});
  const auto t1 = submit(*eng, 1, 0, decode_kernel());
  const auto t2 = submit(*eng, 2, 0, decode_kernel());
  sim.run();
  // Second kernel waits for the first plus a context switch.
  EXPECT_NEAR(t1->seconds(), solo.seconds(), 1e-9);
  EXPECT_NEAR(t2->seconds(),
              2 * solo.seconds() + a100.context_switch.seconds(), 1e-9);
}

TEST_F(EngineFixture, TimeShareNoSwitchCostSameClient) {
  const auto eng = timeshare_factory()(env());
  const auto solo = gpu::solo_service_time(a100, decode_kernel(), {108});
  (void)submit(*eng, 1, 0, decode_kernel());
  const auto t2 = submit(*eng, 1, 0, decode_kernel());
  sim.run();
  EXPECT_NEAR(t2->seconds(), 2 * solo.seconds(), 1e-9);
}

TEST_F(EngineFixture, TimeShareIgnoresSmCaps) {
  // Without the MPS daemon, percentage caps have no effect.
  const auto eng = timeshare_factory()(env());
  const auto capped = submit(*eng, 1, 10, gemm_kernel());
  sim.run();
  const auto uncapped_time = gpu::solo_service_time(a100, gemm_kernel(), {108});
  EXPECT_NEAR(capped->seconds(), uncapped_time.seconds(), 1e-9);
}

TEST_F(EngineFixture, TimeShareQueueVisibility) {
  const auto eng = timeshare_factory()(env());
  (void)submit(*eng, 1, 0, decode_kernel());
  (void)submit(*eng, 2, 0, decode_kernel());
  EXPECT_EQ(eng->active(), 1u);
  EXPECT_EQ(eng->queued(), 1u);
  sim.run();
  EXPECT_TRUE(eng->idle());
}

// ---------------------------------------------------------------------------
// MpsEngine
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, MpsRunsNarrowKernelsConcurrently) {
  MpsEngine eng(env(), {});
  // Two 20-SM, bandwidth-bound kernels: they fit side by side.
  const auto t1 = submit(eng, 1, 54, decode_kernel(1 * util::GB));
  const auto t2 = submit(eng, 2, 54, decode_kernel(1 * util::GB));
  sim.run();
  const double solo = gpu::solo_service_time(a100, decode_kernel(1 * util::GB), {54}).seconds();
  // Concurrent: both finish well before 2× solo (only the interference
  // factor separates them from perfect overlap).
  EXPECT_LT(t1->seconds(), 1.3 * solo);
  EXPECT_LT(t2->seconds(), 1.3 * solo);
  EXPECT_GT(t2->seconds(), solo);  // some interference
}

TEST_F(EngineFixture, MpsEnforcesSmCap) {
  MpsEngine eng(env(), {});
  // A wide compute-bound kernel capped at 27 SMs takes ~4× the 108-SM time.
  const auto capped = submit(eng, 1, 27, gemm_kernel());
  sim.run();
  const double full = gpu::solo_service_time(a100, gemm_kernel(), {108}).seconds();
  const double expect = gpu::solo_service_time(a100, gemm_kernel(), {27}).seconds();
  EXPECT_NEAR(capped->seconds(), expect, 1e-9);
  EXPECT_GT(capped->seconds(), 3.5 * full);
}

TEST_F(EngineFixture, MpsQueuesWhenSmsExhausted) {
  MpsEngine eng(env(), {});
  // Three 54-SM-wide kernels: two fit (108 SMs), the third waits.
  KernelDesc wide{"w", KernelKind::kGemm, 5e11, 64 * util::MB, 54, 0.5};
  (void)submit(eng, 1, 54, wide);
  (void)submit(eng, 2, 54, wide);
  const auto t3 = submit(eng, 3, 54, wide);
  EXPECT_EQ(eng.active(), 2u);
  EXPECT_EQ(eng.queued(), 1u);
  EXPECT_EQ(eng.sms_in_use(), 108);
  sim.run();
  const double one = gpu::solo_service_time(a100, wide, {54}).seconds();
  // Third starts only after a slot frees.
  EXPECT_GT(t3->seconds(), 1.9 * one);
}

TEST_F(EngineFixture, MpsBandwidthContentionSlowsCoRunners) {
  MpsEngine eng(env(), {.interference_alpha = 0.0});
  // Each kernel demands 50 % of peak bandwidth; two fit exactly, four
  // oversubscribe 2× and should take ~2× as long (pure PS, alpha = 0).
  KernelDesc hungry{"h", KernelKind::kGemv, 0, 10 * util::GB, 20, 0.5};
  std::vector<std::shared_ptr<util::TimePoint>> two;
  {
    MpsEngine e2(env(), {.interference_alpha = 0.0});
    two.push_back(submit(e2, 1, 27, hungry));
    two.push_back(submit(e2, 2, 27, hungry));
    sim.run();
  }
  const double t_two = two[1]->seconds();
  const util::TimePoint base = sim.now();
  std::vector<std::shared_ptr<util::TimePoint>> four;
  for (gpu::ContextId c = 1; c <= 4; ++c) four.push_back(submit(eng, c, 27, hungry));
  sim.run();
  const double t_four = (*four[3] - base).seconds();
  EXPECT_NEAR(t_four / t_two, 2.0, 0.05);
}

TEST_F(EngineFixture, MpsInterferenceAlphaAddsSlowdown) {
  KernelDesc k = decode_kernel(2 * util::GB);
  MpsEngine no_alpha(env(), {.interference_alpha = 0.0});
  const auto a = submit(no_alpha, 1, 27, k);
  const auto b = submit(no_alpha, 2, 27, k);
  sim.run();
  const double base = std::max(a->seconds(), b->seconds());

  const util::TimePoint mark = sim.now();
  MpsEngine with_alpha(env(), {.interference_alpha = 0.2});
  const auto c = submit(with_alpha, 1, 27, k);
  const auto d = submit(with_alpha, 2, 27, k);
  sim.run();
  const double contended =
      std::max((*c - mark).seconds(), (*d - mark).seconds());
  EXPECT_GT(contended, 1.1 * base);
}

TEST_F(EngineFixture, MpsReplansInFlightWork) {
  MpsEngine eng(env(), {.interference_alpha = 0.0});
  // Kernel 1 runs alone for a while, then kernel 2 arrives and halves the
  // leftover bandwidth — kernel 1's completion moves out accordingly.
  KernelDesc big{"big", KernelKind::kGemv, 0, 20 * util::GB, 20, 0.8};
  const auto t1 = submit(eng, 1, 27, big);
  const double solo = gpu::solo_service_time(a100, big, {27}).seconds();
  sim.schedule_in(util::from_seconds(solo / 2), [&] {
    (void)submit(eng, 2, 27, big);
  });
  sim.run();
  // First half at full rate, second half at ~50 % (demand 0.8+0.8 > 1 peak):
  // finish later than solo but much earlier than 2× solo.
  EXPECT_GT(t1->seconds(), 1.15 * solo);
  EXPECT_LT(t1->seconds(), 1.9 * solo);
}

TEST_F(EngineFixture, MpsFifoAdmission) {
  MpsEngine eng(env(), {});
  KernelDesc wide{"w", KernelKind::kGemm, 5e11, 64 * util::MB, 108, 0.5};
  KernelDesc narrow{"n", KernelKind::kGemm, 1e10, 8 * util::MB, 10, 0.5};
  (void)submit(eng, 1, 0, wide);       // occupies all 108 SMs
  const auto t_wide2 = submit(eng, 2, 0, wide);  // queued head
  const auto t_narrow = submit(eng, 3, 10, narrow);  // would fit, must wait
  sim.run();
  // Narrow admitted together with (not before) the queued wide kernel.
  EXPECT_GE(t_narrow->ns, 0);
  EXPECT_GT(t_wide2->ns, 0);
}

// ---------------------------------------------------------------------------
// vGPU: pinned homogeneous slots
// ---------------------------------------------------------------------------

TEST_F(EngineFixture, VgpuHomogeneousSlots) {
  const auto eng = vgpu_factory({.slots = 2})(env());
  // Each slot has 54 SMs; a wide kernel is limited to its slot.
  const auto t = submit(*eng, 1, 0, gemm_kernel());
  sim.run();
  const double expect = gpu::solo_service_time(a100, gemm_kernel(), {54}).seconds();
  EXPECT_NEAR(t->seconds(), expect, 1e-9);
}

TEST_F(EngineFixture, VgpuSlotsRunIndependently) {
  const auto eng = vgpu_factory({.slots = 2})(env());
  const auto t1 = submit(*eng, 1, 0, gemm_kernel());
  const auto t2 = submit(*eng, 2, 0, gemm_kernel());
  sim.run();
  // Different contexts land on different slots → full overlap.
  EXPECT_EQ(t1->ns, t2->ns);
}

TEST_F(EngineFixture, VgpuSameContextSerializesInItsSlot) {
  // A context stays pinned to its slot: a second kernel moved to a free
  // slot would overlap the first instead of finishing one service later.
  for (const int slots : {2, 3}) {
    const auto eng = vgpu_factory({.slots = slots})(env());
    const util::TimePoint base = sim.now();
    (void)submit(*eng, 7, 0, gemm_kernel());
    const auto t2 = submit(*eng, 7, 0, gemm_kernel());
    sim.run();
    const double one =
        gpu::solo_service_time(a100, gemm_kernel(), {a100.total_sms / slots}).seconds();
    EXPECT_NEAR((*t2 - base).seconds(), 2 * one, 1e-9) << slots << " slots";
  }
}

TEST_F(EngineFixture, VgpuInvalidOptions) {
  EXPECT_THROW((void)vgpu_factory({.slots = 0})(env()), util::Error);
  EXPECT_THROW((void)vgpu_factory({.slots = 1000})(env()), util::Error);
}

TEST_F(EngineFixture, PolicyNames) {
  const auto ts = timeshare_factory()(env());
  MpsEngine mps(env(), {});
  const auto vg = vgpu_factory({.slots = 2})(env());
  EXPECT_STREQ(ts->policy_name(), "timeshare");
  EXPECT_STREQ(mps.policy_name(), "mps");
  EXPECT_STREQ(vg->policy_name(), "vgpu");
}

}  // namespace
}  // namespace faaspart::sched
