// Right-sizing tool bounds (core/rightsize.hpp): the knee finder's epsilon
// promise, suggestion/percentage consistency, runtime-estimate monotonicity
// and grant validation, the MIG-profile suggestion's fit contract, and
// suggested profiles laid out on one GPU by core::layout_from_profiles.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/partition_planner.hpp"
#include "core/rightsize.hpp"
#include "gpu/arch.hpp"
#include "util/error.hpp"
#include "workloads/dnn.hpp"
#include "workloads/llama.hpp"

namespace faaspart::core {
namespace {

std::vector<gpu::KernelDesc> decode_kernels() {
  return {workloads::llama_decode_kernel(workloads::llama2_7b(),
                                         workloads::serving_config())};
}

TEST(Rightsize, KneeStaysWithinDeviceAndEpsilonBudget) {
  const auto arch = gpu::arch::a100_80gb();
  const double epsilon = 0.05;
  const auto r = rightsize_kernels(arch, decode_kernels(), epsilon);

  ASSERT_GE(r.suggested_sms, 1);
  ASSERT_LE(r.suggested_sms, arch.total_sms);
  EXPECT_GE(r.suggested_percentage, 1);
  EXPECT_LE(r.suggested_percentage, 100);
  // The suggestion honors the promise: within (1 + epsilon) of full-GPU
  // latency, and never faster than the full grant.
  EXPECT_LE(static_cast<double>(r.latency_at_suggested.ns),
            (1.0 + epsilon) * static_cast<double>(r.latency_at_full.ns));
  EXPECT_GE(r.latency_at_suggested, r.latency_at_full);
  // One curve point per probed grant; more SMs never hurt.
  ASSERT_EQ(r.curve.size(), static_cast<std::size_t>(arch.total_sms));
  for (std::size_t i = 1; i < r.curve.size(); ++i) {
    EXPECT_LE(r.curve[i].latency, r.curve[i - 1].latency);
  }
  // LLaMa decode is the Fig 2 observation: a small fraction of the A100.
  EXPECT_LT(r.suggested_sms, arch.total_sms / 2);
  EXPECT_GT(r.freed_fraction(arch.total_sms), 0.5);
}

TEST(Rightsize, PercentageCoversTheSuggestedGrant) {
  const auto arch = gpu::arch::a100_80gb();
  for (const double eps : {0.01, 0.05, 0.25}) {
    const auto r = rightsize_kernels(arch, decode_kernels(), eps);
    EXPECT_GE(r.suggested_percentage * arch.total_sms, r.suggested_sms * 100)
        << "eps=" << eps;
  }
}

TEST(Rightsize, TighterEpsilonNeverShrinksTheGrant) {
  const auto arch = gpu::arch::a100_80gb();
  const auto kernels = workloads::models::resnet50().inference_kernels(8);
  const auto tight = rightsize_kernels(arch, kernels, 0.01);
  const auto loose = rightsize_kernels(arch, kernels, 0.20);
  EXPECT_GE(tight.suggested_sms, loose.suggested_sms);
}

TEST(Rightsize, EstimateRuntimeIsMonotoneAndValidatesTheGrant) {
  const auto arch = gpu::arch::a100_80gb();
  const auto kernels = decode_kernels();
  const auto slow = estimate_runtime(arch, kernels, 1);
  const auto fast = estimate_runtime(arch, kernels, arch.total_sms);
  EXPECT_GT(slow, fast);
  // Host gaps add linearly and dilute nothing else.
  const auto gapped =
      estimate_runtime(arch, kernels, arch.total_sms, util::milliseconds(3));
  EXPECT_EQ((gapped - fast).ns, util::milliseconds(3).ns);
  EXPECT_THROW((void)estimate_runtime(arch, kernels, 0), util::Error);
  EXPECT_THROW((void)estimate_runtime(arch, kernels, arch.total_sms + 1),
               util::Error);
}

TEST(Rightsize, RejectsEmptyKernelsAndNegativeEpsilon) {
  const auto arch = gpu::arch::a100_80gb();
  EXPECT_THROW((void)rightsize_kernels(arch, {}, 0.05), util::Error);
  EXPECT_THROW((void)rightsize_kernels(arch, decode_kernels(), -0.1),
               util::Error);
}

TEST(Rightsize, MigSuggestionCoversBothComputeAndMemory) {
  const auto arch = gpu::arch::a100_80gb();
  const auto r = rightsize_kernels(arch, decode_kernels(), 0.05);
  const auto profile =
      suggest_mig_profile(arch, r, /*memory_needed=*/20 * util::GB);
  EXPECT_GE(profile.sms(arch), r.suggested_sms);
  EXPECT_GE(profile.memory(arch), 20 * util::GB);
}

TEST(Rightsize, MigSuggestionThrowsWhenNothingFits) {
  const auto arch = gpu::arch::a100_80gb();
  const auto r = rightsize_kernels(arch, decode_kernels(), 0.05);
  // More memory than the full device: not even the biggest profile fits.
  EXPECT_THROW((void)suggest_mig_profile(arch, r, 200 * util::GB),
               util::NotFoundError);
  // A non-MIG part has an empty profile catalogue: always throws.
  const auto amd = gpu::arch::mi210();
  ASSERT_FALSE(amd.mig_capable);
  const auto r2 = rightsize_kernels(amd, decode_kernels(), 0.05);
  EXPECT_THROW((void)suggest_mig_profile(amd, r2, util::GB), util::NotFoundError);
}

using Assignments = std::vector<std::pair<std::string, std::string>>;

/// `n` tenants named <prefix>0.. all on `profile`.
Assignments tenants(const std::string& prefix, const std::string& profile,
                    int n) {
  Assignments out;
  for (int i = 0; i < n; ++i) out.emplace_back(prefix + std::to_string(i), profile);
  return out;
}

TEST(Rightsize, PaperServingMigLayoutsFit) {
  // The Fig 4/5 MIG layouts: LLaMa-7B serving tenants right-sized to 14 SMs
  // with the model's real footprint. Two to four of them share one A100.
  const auto arch = gpu::arch::a100_80gb();
  RightsizeResult llama;
  llama.suggested_sms = 14;
  const auto fp = workloads::llama_memory_footprint(workloads::llama2_7b(),
                                                    workloads::serving_config());
  const auto profile = suggest_mig_profile(arch, llama, fp);
  for (int n = 2; n <= 4; ++n) {
    const GpuLayout layout =
        layout_from_profiles(arch, tenants("llama", profile.name, n));
    EXPECT_EQ(layout.placements.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(validate_fleet_plan(arch, FleetPlan{{layout}}), "") << n;
  }
  // Tenants needing 40 SMs and 35 GB each get 3g.40gb; three of them need
  // 9 of the 7 compute slices and cannot co-reside.
  RightsizeResult big;
  big.suggested_sms = 40;
  const auto big_profile = suggest_mig_profile(arch, big, 35 * util::GB);
  EXPECT_EQ(big_profile.name, "3g.40gb");
  EXPECT_THROW((void)layout_from_profiles(arch, tenants("big", big_profile.name, 3)),
               util::ConfigError);
}

TEST(Rightsize, MigLayoutMemorySlicesCanBeTheBinder) {
  // Five 1g.20gb need 5 of 7 compute slices but 10 of 8 memory slices:
  // only memory rules the set out.
  const auto arch = gpu::arch::a100_80gb();
  EXPECT_NO_THROW((void)layout_from_profiles(arch, tenants("mem", "1g.20gb", 4)));
  EXPECT_THROW((void)layout_from_profiles(arch, tenants("mem", "1g.20gb", 5)),
               util::ConfigError);
}

}  // namespace
}  // namespace faaspart::core
