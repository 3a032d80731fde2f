// PoolBalancer — planner-driven online re-partitioning of the prefill and
// decode pools (DESIGN.md §14).
//
// The disaggregated server's two pools are just two "functions" to the
// partition planner: "prefill" demands the request arrival rate with
// compute-bound GEMM scores, "decode" demands the same rate with scores
// from the batched-decode step time and each profile's KV capacity (which
// caps the sustainable batch). plan_pools() feeds both to core::plan_fleet
// over one GPU and reads the pool shapes back out of the winning layout —
// the same reset-cost amortization that gates the cluster Repartitioner
// decides whether flipping the pools is worth a MIG reset.
//
// PoolBalancer is the thin online applier: every interval it estimates the
// arrival rate from the server's counters, replans, and calls
// DisaggLlmServer::relayout() when the planner says apply.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition_planner.hpp"
#include "serve/disagg.hpp"

namespace faaspart::serve {

/// The workload statistics the analytic pool scores need.
struct WorkloadShape {
  double rate_hz = 0;        ///< offered request rate
  double mean_prompt = 128;  ///< mean prompt tokens
  double mean_output = 100;  ///< mean output tokens
};

/// Analytic ProfileScores for the prefill pseudo-function: per-prompt GEMM
/// service time at each viable profile's SM count. Profiles that cannot
/// hold the weights plus one prompt's transient KV are omitted.
[[nodiscard]] std::vector<core::ProfileScore> prefill_profile_scores(
    const gpu::GpuArchSpec& arch, const workloads::LlamaSpec& spec,
    const workloads::LlamaRunConfig& run, const WorkloadShape& shape);

/// Analytic ProfileScores for the decode pseudo-function: the profile's KV
/// capacity bounds the decode batch, the batched step time at its SM count
/// gives per-request latency (mean_output iterations in the batch) and
/// throughput (batch / that). Profiles whose KV pool cannot hold even one
/// mean-length context are omitted.
[[nodiscard]] std::vector<core::ProfileScore> decode_profile_scores(
    const gpu::GpuArchSpec& arch, const workloads::LlamaSpec& spec,
    const workloads::LlamaRunConfig& run, const EngineConfig& engine,
    const WorkloadShape& shape);

struct PoolPlan {
  PoolSpec prefill;
  PoolSpec decode;
  core::PlanResult result;
};

/// Plans pool shapes for `shape` on one `arch` GPU, treating cfg's current
/// pools as the incumbent layout. result.apply is false (and the current
/// pools are echoed back) when the planner starves either pool or the gain
/// does not amortize the MIG reset.
[[nodiscard]] PoolPlan plan_pools(const gpu::GpuArchSpec& arch,
                                  const DisaggConfig& cfg,
                                  const WorkloadShape& shape);

class PoolBalancer {
 public:
  struct Options {
    util::Duration interval = util::from_seconds(30);
    /// Stop ticking this long after start(); must be positive so the
    /// balancer process cannot keep the simulation alive forever.
    util::Duration horizon = util::from_seconds(300);
    double mean_prompt = 128;
    double mean_output = 100;
  };

  PoolBalancer(DisaggLlmServer& server, Options opts);

  void start();

 private:
  sim::Co<void> loop();

  DisaggLlmServer& server_;
  Options opts_;
  bool started_ = false;
  std::uint64_t last_submitted_ = 0;
};

}  // namespace faaspart::serve
