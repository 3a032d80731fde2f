#include "serve/balance.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/partition_planner.hpp"
#include "gpu/kernel.hpp"
#include "gpu/mig.hpp"
#include "util/error.hpp"

namespace faaspart::serve {

namespace {

/// Below this observed request rate there is no signal worth a replan.
constexpr double kMinRateHz = 0.01;

/// The workload statistics the analytic pool scores need.
struct WorkloadShape {
  double rate_hz = 0;        ///< offered request rate
  double mean_prompt = 128;  ///< mean prompt tokens
  double mean_output = 100;  ///< mean output tokens
};

/// Analytic ProfileScores for the prefill pseudo-function: per-prompt GEMM
/// service time at each viable profile's SM count. Profiles that cannot
/// hold the weights plus one prompt's transient KV are omitted.
std::vector<core::ProfileScore> prefill_profile_scores(
    const gpu::GpuArchSpec& arch, const workloads::LlamaSpec& spec,
    const workloads::LlamaRunConfig& run, const WorkloadShape& shape) {
  const util::Bytes footprint = workloads::llama_memory_footprint(spec, run);
  const int prompt = std::max(1, static_cast<int>(shape.mean_prompt));
  const util::Bytes transient_kv =
      workloads::llama_kv_bytes_per_token(spec, run) * prompt;
  std::vector<core::ProfileScore> scores;
  for (const gpu::MigProfile& p : gpu::mig_profiles(arch)) {
    if (p.memory(arch) < footprint + transient_kv) continue;
    const gpu::KernelDesc k = workloads::llama_prefill_kernel(spec, run, prompt);
    const gpu::KernelGrant grant{p.sms(arch)};
    const double t = gpu::solo_service_time(arch, k, grant).seconds();
    if (t <= 0) continue;
    scores.push_back(core::ProfileScore{p.name, t, 1.0 / t});
  }
  return scores;
}

/// Analytic ProfileScores for the decode pseudo-function: the profile's KV
/// capacity bounds the decode batch, the batched step time at its SM count
/// gives per-request latency (mean_output iterations in the batch) and
/// throughput (batch / that). Profiles whose KV pool cannot hold even one
/// mean-length context are omitted.
std::vector<core::ProfileScore> decode_profile_scores(
    const gpu::GpuArchSpec& arch, const workloads::LlamaSpec& spec,
    const workloads::LlamaRunConfig& run, const EngineConfig& engine,
    const WorkloadShape& shape) {
  workloads::LlamaRunConfig kv_run = run;
  kv_run.model_kv_cache = true;
  const util::Bytes footprint = workloads::llama_memory_footprint(spec, kv_run);
  const double kv_tok =
      static_cast<double>(workloads::llama_kv_bytes_per_token(spec, kv_run));
  const double mean_output = std::max(1.0, shape.mean_output);
  const double context_end = std::max(1.0, shape.mean_prompt) + mean_output;
  // Mid-flight context: what a steady-state batch slot actually streams.
  const int context_mid = std::max(
      1, static_cast<int>(shape.mean_prompt + mean_output / 2.0));
  std::vector<core::ProfileScore> scores;
  for (const gpu::MigProfile& p : gpu::mig_profiles(arch)) {
    if (p.memory(arch) <= footprint) continue;
    const double kv_capacity =
        static_cast<double>(p.memory(arch) - footprint) * kAdmitWatermark;
    const int fit = static_cast<int>(kv_capacity / (kv_tok * context_end));
    if (fit < 1) continue;
    const int batch = std::clamp(fit, 1, engine.max_batch);
    const std::vector<int> positions(static_cast<std::size_t>(batch),
                                     context_mid);
    const gpu::KernelDesc k =
        workloads::llama_batched_decode_kernel(spec, kv_run, positions);
    const gpu::KernelGrant grant{p.sms(arch)};
    const double step =
        gpu::solo_service_time(arch, k, grant).seconds() +
        kIterationGap.seconds();
    if (step <= 0) continue;
    const double latency = mean_output * step;
    scores.push_back(
        core::ProfileScore{p.name, latency, batch / latency});
  }
  return scores;
}

core::FleetPlan current_pool_plan(const gpu::GpuArchSpec& arch,
                                  const DisaggConfig& cfg) {
  std::vector<std::pair<std::string, std::string>> assignments;
  for (int i = 0; i < cfg.prefill.instances; ++i) {
    assignments.emplace_back("prefill", cfg.prefill.profile);
  }
  for (int i = 0; i < cfg.decode.instances; ++i) {
    assignments.emplace_back("decode", cfg.decode.profile);
  }
  core::FleetPlan plan;
  plan.gpus.push_back(core::layout_from_profiles(arch, assignments));
  return plan;
}

/// Dominant profile and placement count of `function` in a one-GPU plan.
PoolSpec pool_from_plan(const core::FleetPlan& plan,
                        const std::string& function) {
  std::map<std::string, int> by_profile;
  int total = 0;
  for (const core::GpuLayout& gpu : plan.gpus) {
    for (const core::Placement& pl : gpu.placements) {
      if (pl.function != function) continue;
      ++by_profile[pl.profile];
      ++total;
    }
  }
  PoolSpec spec;
  spec.instances = total;
  int best = 0;
  for (const auto& [profile, count] : by_profile) {
    if (count > best) {
      best = count;
      spec.profile = profile;
    }
  }
  return spec;
}

struct PoolPlan {
  PoolSpec prefill;
  PoolSpec decode;
  core::PlanResult result;
};

/// Plans pool shapes for `shape` on one `arch` GPU, treating cfg's current
/// pools as the incumbent layout. result.apply is false (and the current
/// pools are echoed back) when the planner starves either pool or the gain
/// does not amortize the MIG reset.
PoolPlan plan_pools(const gpu::GpuArchSpec& arch, const DisaggConfig& cfg,
                    const WorkloadShape& shape) {
  std::vector<core::FunctionDemand> demands;
  {
    core::FunctionDemand d;
    d.name = "prefill";
    d.rate_hz = shape.rate_hz;
    d.memory = workloads::llama_memory_footprint(cfg.spec, cfg.run);
    d.scores = prefill_profile_scores(arch, cfg.spec, cfg.run, shape);
    demands.push_back(std::move(d));
  }
  {
    core::FunctionDemand d;
    d.name = "decode";
    d.rate_hz = shape.rate_hz;
    d.memory = workloads::llama_memory_footprint(cfg.spec, cfg.run);
    d.scores = decode_profile_scores(arch, cfg.spec, cfg.run, cfg.engine, shape);
    demands.push_back(std::move(d));
  }

  const core::FleetPlan current = current_pool_plan(arch, cfg);
  PoolPlan out;
  out.result = core::plan_fleet(arch, 1, demands, current);
  out.prefill = pool_from_plan(out.result.plan, "prefill");
  out.decode = pool_from_plan(out.result.plan, "decode");
  if (out.prefill.instances < 1 || out.decode.instances < 1) {
    // A starved pool is not a disaggregated layout; keep what we have.
    out.prefill = cfg.prefill;
    out.decode = cfg.decode;
    out.result.apply = false;
    out.result.reason = "plan starves a pool; keeping the current layout";
  }
  return out;
}

}  // namespace

PoolBalancer::PoolBalancer(DisaggLlmServer& server, Options opts)
    : server_(server), opts_(opts) {
  FP_CHECK_MSG(opts_.interval.ns > 0, "balancer: interval must be positive");
  FP_CHECK_MSG(opts_.horizon.ns > 0, "balancer: horizon must be positive");
}

void PoolBalancer::start() {
  FP_CHECK_MSG(!started_, "balancer started twice");
  started_ = true;
  last_submitted_ = server_.stats().submitted;
  server_.sim().spawn(loop(), server_.name() + "/balancer");
}

sim::Co<void> PoolBalancer::loop() {
  sim::Simulator& sim = server_.sim();
  const util::TimePoint deadline = sim.now() + opts_.horizon;
  for (;;) {
    co_await sim.delay(opts_.interval);
    if (sim.now() >= deadline) break;
    const std::uint64_t submitted = server_.stats().submitted;
    const double rate = static_cast<double>(submitted - last_submitted_) /
                        opts_.interval.seconds();
    last_submitted_ = submitted;
    if (rate < kMinRateHz) continue;
    WorkloadShape shape;
    shape.rate_hz = rate;
    shape.mean_prompt = opts_.mean_prompt;
    shape.mean_output = opts_.mean_output;
    const PoolPlan plan =
        plan_pools(server_.device().arch(), server_.config(), shape);
    if (!plan.result.apply) continue;
    if (plan.prefill == server_.prefill_spec() &&
        plan.decode == server_.decode_spec()) {
      continue;
    }
    co_await server_.relayout(plan.prefill, plan.decode);
  }
}

}  // namespace faaspart::serve
