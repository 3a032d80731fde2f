#include <gtest/gtest.h>

#include <vector>

#include "gpu/device.hpp"
#include "sched/engines.hpp"
#include "util/error.hpp"

namespace faaspart::gpu {
namespace {

using namespace util::literals;

struct DeviceFixture : ::testing::Test {
  sim::Simulator sim;
  trace::Recorder rec;
  Device dev{sim, arch::a100_80gb(), 0, sched::timeshare_factory(), &rec};
};

KernelDesc small_kernel(const std::string& name = "k") {
  return KernelDesc{name, KernelKind::kGemv, 1e9, 100 * util::MB, 20, 0.5};
}

TEST_F(DeviceFixture, ContextCreation) {
  const auto id = dev.create_context("tenant-a");
  const auto& ctx = dev.context(id);
  EXPECT_EQ(ctx.owner(), "tenant-a");
  EXPECT_EQ(ctx.sm_cap(), 108);  // 100 % of an A100
  EXPECT_EQ(dev.context_count(), 1u);
  dev.destroy_context(id);
  EXPECT_EQ(dev.context_count(), 0u);
}

TEST_F(DeviceFixture, PercentageMapsToSms) {
  // §4.1: 50 % of an A100 allows 54 of 108 SMs.
  const auto id = dev.create_context("half", {.active_thread_percentage = 50.0});
  EXPECT_EQ(dev.context(id).sm_cap(), 54);
  const auto q = dev.create_context("quarter", {.active_thread_percentage = 25.0});
  EXPECT_EQ(dev.context(q).sm_cap(), 27);
  const auto tiny = dev.create_context("tiny", {.active_thread_percentage = 0.1});
  EXPECT_EQ(dev.context(tiny).sm_cap(), 1);  // floor of one SM
}

TEST_F(DeviceFixture, InvalidPercentageRejected) {
  EXPECT_THROW((void)dev.create_context("x", {.active_thread_percentage = 0.0}),
               util::ConfigError);
  EXPECT_THROW((void)dev.create_context("x", {.active_thread_percentage = 101.0}),
               util::ConfigError);
  EXPECT_THROW((void)dev.create_context("x", {.active_thread_percentage = -5.0}),
               util::ConfigError);
}

TEST_F(DeviceFixture, UnknownContextRejected) {
  EXPECT_THROW((void)dev.context(99), util::NotFoundError);
  EXPECT_THROW(dev.destroy_context(99), util::NotFoundError);
}

TEST_F(DeviceFixture, MemoryAllocationSharedPool) {
  // MPS/timeshare path: no memory isolation — both contexts draw from the
  // same pool, and one can exhaust it for the other (Table 1).
  const auto a = dev.create_context("a");
  const auto b = dev.create_context("b");
  (void)dev.alloc(a, 70 * util::GB, "weights");
  EXPECT_THROW((void)dev.alloc(b, 20 * util::GB, "weights"),
               util::OutOfMemoryError);
  EXPECT_EQ(dev.context(a).allocated_bytes(), 70 * util::GB);
}

TEST_F(DeviceFixture, DestroyContextFreesMemory) {
  const auto a = dev.create_context("a");
  (void)dev.alloc(a, 60 * util::GB, "weights");
  EXPECT_EQ(dev.memory().used(), 60 * util::GB);
  dev.destroy_context(a);
  EXPECT_EQ(dev.memory().used(), 0);
}

TEST_F(DeviceFixture, ExplicitFree) {
  const auto a = dev.create_context("a");
  const auto m = dev.alloc(a, 1 * util::GB, "buf");
  dev.free(a, m);
  EXPECT_EQ(dev.memory().used(), 0);
  EXPECT_THROW(dev.free(a, m), util::NotFoundError);
}

TEST_F(DeviceFixture, FreeOfForeignAllocationRejected) {
  const auto a = dev.create_context("a");
  const auto b = dev.create_context("b");
  const auto m = dev.alloc(a, 1 * util::GB, "buf");
  EXPECT_THROW(dev.free(b, m), util::NotFoundError);
}

TEST_F(DeviceFixture, LaunchCompletesWithServiceTime) {
  const auto a = dev.create_context("a");
  auto fut = dev.launch(a, small_kernel());
  EXPECT_FALSE(fut.ready());
  sim.run();
  EXPECT_TRUE(fut.ready());
  EXPECT_GT(sim.now().ns, 0);
}

TEST_F(DeviceFixture, BusyTimeSeesInFlightKernels) {
  // busy_time() is live: a kernel still executing counts up to now, while
  // the recorder (and so measured_utilization) only holds completed spans.
  const auto ctx = dev.create_context("t");
  KernelDesc k{"long", KernelKind::kGemm, 10 * 19.5e12, 64 * util::MB, 108,
               0.5};  // ~10 s on the whole A100
  auto fut = dev.launch(ctx, std::move(k));
  sim.run_until(util::TimePoint{} + 5_s);
  ASSERT_FALSE(fut.ready());
  EXPECT_NEAR(dev.busy_time().seconds(), 5.0, 1e-6);
  EXPECT_EQ(dev.measured_utilization(util::TimePoint{}, sim.now()), 0.0);
  sim.run();
  ASSERT_TRUE(fut.ready());
  EXPECT_NEAR(dev.busy_time().seconds(), sim.now().seconds(), 1e-6);
}

TEST_F(DeviceFixture, StreamOrderingWithinContext) {
  const auto a = dev.create_context("a");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](sim::Future<> done, std::vector<int>& out, int n) -> sim::Co<void> {
      co_await done;
      out.push_back(n);
    }(dev.launch(a, small_kernel("k" + std::to_string(i))), order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(DeviceFixture, DestroyWithInflightKernelRejected) {
  const auto a = dev.create_context("a");
  (void)dev.launch(a, small_kernel());
  EXPECT_THROW(dev.destroy_context(a), util::StateError);
  sim.run();
  dev.destroy_context(a);  // fine once drained
}

TEST_F(DeviceFixture, EngineSwapRequiresNoContexts) {
  const auto a = dev.create_context("a");
  EXPECT_THROW(dev.set_engine_factory(sched::mps_factory()), util::StateError);
  dev.destroy_context(a);
  dev.set_engine_factory(sched::mps_factory());
  EXPECT_STREQ(dev.engine().policy_name(), "mps");
}

TEST_F(DeviceFixture, KernelSpansRecorded) {
  const auto a = dev.create_context("client");
  (void)dev.launch(a, small_kernel("decode"));
  sim.run();
  const auto spans = rec.lane_spans(dev.lane());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(rec.label(spans[0].name), "client/decode");
  EXPECT_EQ(rec.label(spans[0].category), "kernel:gemv");
}

// ---------------------------------------------------------------------------
// MIG state machine
// ---------------------------------------------------------------------------

TEST_F(DeviceFixture, MigLifecycle) {
  EXPECT_FALSE(dev.mig_enabled());
  dev.enable_mig();
  EXPECT_TRUE(dev.mig_enabled());
  const auto i1 = dev.create_instance("3g.40gb");
  const auto i2 = dev.create_instance("3g.40gb");
  EXPECT_EQ(dev.used_compute_slices(), 6);
  EXPECT_EQ(dev.used_mem_slices(), 8);
  // No memory slices left: even 1g.10gb cannot fit.
  EXPECT_THROW((void)dev.create_instance("1g.10gb"), util::StateError);
  dev.destroy_instance(i2);
  const auto i3 = dev.create_instance("2g.20gb");
  EXPECT_EQ(dev.used_compute_slices(), 5);
  (void)i1;
  (void)i3;
}

TEST_F(DeviceFixture, MigComputeSliceBudget) {
  dev.enable_mig();
  (void)dev.create_instance("4g.40gb");
  (void)dev.create_instance("2g.20gb");
  (void)dev.create_instance("1g.10gb");
  // 7 compute slices used.
  EXPECT_THROW((void)dev.create_instance("1g.10gb"), util::StateError);
}

TEST_F(DeviceFixture, MigRequiresReset) {
  const auto a = dev.create_context("a");
  EXPECT_THROW(dev.enable_mig(), util::StateError);
  dev.destroy_context(a);
  dev.enable_mig();
  const auto ctx = dev.create_context(
      "t", {.instance = dev.create_instance("1g.10gb")});
  EXPECT_THROW(dev.disable_mig(), util::StateError);
  dev.destroy_context(ctx);
  dev.disable_mig();
  EXPECT_TRUE(dev.instance_ids().empty());
}

TEST_F(DeviceFixture, MigModeForbidsBareContexts) {
  dev.enable_mig();
  EXPECT_THROW((void)dev.create_context("bare"), util::StateError);
}

TEST_F(DeviceFixture, MigInstanceIsolatesMemory) {
  dev.enable_mig();
  const auto i1 = dev.create_instance("1g.10gb");
  const auto i2 = dev.create_instance("1g.10gb");
  const auto c1 = dev.create_context("a", {.instance = i1});
  const auto c2 = dev.create_context("b", {.instance = i2});
  (void)dev.alloc(c1, 9 * util::GB, "w");
  // c1 filling its instance does not affect c2's pool.
  (void)dev.alloc(c2, 9 * util::GB, "w");
  // But c1 cannot exceed its own 10 GB slice even though the GPU has 80 GB.
  EXPECT_THROW((void)dev.alloc(c1, 5 * util::GB, "more"),
               util::OutOfMemoryError);
}

TEST_F(DeviceFixture, MigContextSmCapIsInstanceRelative) {
  dev.enable_mig();
  const auto i = dev.create_instance("2g.20gb");
  const auto c = dev.create_context("t", {.instance = i});
  EXPECT_EQ(dev.context(c).sm_cap(), 28);  // 2 slices × 14 SMs
}

TEST_F(DeviceFixture, InstanceUuidLookup) {
  dev.enable_mig();
  const auto i = dev.create_instance("1g.10gb");
  const auto& uuid = dev.instance(i).uuid;
  EXPECT_EQ(dev.instance_by_uuid(uuid), i);
  EXPECT_THROW((void)dev.instance_by_uuid("MIG-nope"), util::NotFoundError);
}

TEST_F(DeviceFixture, DestroyInstanceWithContextsRejected) {
  dev.enable_mig();
  const auto i = dev.create_instance("1g.10gb");
  const auto c = dev.create_context("t", {.instance = i});
  EXPECT_THROW(dev.destroy_instance(i), util::StateError);
  dev.destroy_context(c);
  dev.destroy_instance(i);
}

TEST_F(DeviceFixture, NonMigPartCannotEnable) {
  Device mi(sim, arch::mi210(), 1, sched::timeshare_factory(), &rec);
  EXPECT_THROW(mi.enable_mig(), util::StateError);
}

TEST_F(DeviceFixture, LaunchOnMigInstanceRunsOnItsEngine) {
  dev.enable_mig();
  const auto i1 = dev.create_instance("3g.40gb");
  const auto c1 = dev.create_context("t", {.instance = i1});
  auto fut = dev.launch(c1, small_kernel());
  sim.run();
  EXPECT_TRUE(fut.ready());
  // Span recorded on the instance lane, not the device lane.
  EXPECT_TRUE(rec.lane_spans(dev.lane()).empty());
  EXPECT_EQ(rec.lane_spans(dev.instance(i1).lane).size(), 1u);
}

}  // namespace
}  // namespace faaspart::gpu
