// LLaMa-2 inference cost model (§3.2, §3.4, §5.2).
//
// The model mirrors what the paper measures rather than simulating math:
//   * decode (one output token) streams every weight once — a batch-1 GEMV
//     chain that is memory-bandwidth-bound and can only use ~20 SMs (the
//     Fig 2 knee). The paper's own numbers give its achieved bandwidth:
//     fp32 7B (~27 GB of weights) at ~167 ms/token ⇒ ~10 % of A100 peak.
//   * prefill (prompt ingestion) is one wide compute-bound GEMM batch.
//   * tensor parallelism (13B across 2 GPUs) shards weights per device and
//     pays a per-layer synchronization cost each token.
//   * a CPU-side gap per token (sampling, detokenization, framework
//     overhead) separates decode kernels — this is the idle time that makes
//     time-sharing multiplexing profitable at all.
//
// Two workload flavours share the machinery through LlamaRunConfig:
// fig2_config() reproduces the §3.4 SM sweep (fp32, 20-word completions),
// serving_config() the §5.2 chatbot experiments (fp16 paragraphs, whose
// longer context widens the decode kernels — see DESIGN.md §5).
#pragma once

#include <string>
#include <vector>

#include "faas/app.hpp"
#include "gpu/arch.hpp"
#include "gpu/kernel.hpp"
#include "sim/co.hpp"
#include "util/units.hpp"

namespace faaspart::workloads {

struct LlamaSpec {
  std::string name;
  int n_layers = 0;
  int d_model = 0;
  int n_heads = 0;
  int n_kv_heads = 0;  ///< < n_heads for grouped-query attention (70B)
  int d_ff = 0;
  int vocab = 32000;

  /// Parameter count from the architecture (embeddings + attention + MLP +
  /// LM head); reproduces the nominal 6.7B / 13.0B / ~69B.
  [[nodiscard]] double params() const;
};

LlamaSpec llama2_7b();
LlamaSpec llama2_13b();
LlamaSpec llama2_70b();

/// Experiment-level knobs for running a LLaMa model.
struct LlamaRunConfig {
  int bytes_per_param = 4;  ///< 4 = fp32 (Fig 2), 2 = fp16 (serving, §5.2)
  int shards = 1;           ///< tensor-parallel GPU count

  /// Decode saturation width. 20 SMs for the short-completion Fig 2
  /// workload; ~35 for the paragraph serving workload whose longer context
  /// gives the decode step more parallel work.
  int decode_width_sms = 20;
  /// Fraction of peak HBM bandwidth decode achieves at full width —
  /// back-derived from the paper's fp32 numbers (~10 %).
  double decode_bw_fraction = 0.10;

  int prefill_width_sms = 108;
  double prefill_bw_fraction = 0.5;

  /// CPU-side work between output tokens (sampling, detokenize, Python).
  util::Duration host_gap_per_token = util::milliseconds(100);
  /// Per-layer synchronization per token when shards > 1 (fp32 over PCIe).
  util::Duration sync_per_layer = util::milliseconds(2);

  /// Device-resident footprint beyond the weights (CUDA context, allocator
  /// reserve, activations, KV cache). Calibrated so that exactly four fp16
  /// 7B instances fit in an 80 GB A100 (§5.2).
  util::Bytes runtime_overhead = static_cast<util::Bytes>(6.5 * 1e9);

  /// When true, decode kernels additionally stream the KV cache for the
  /// current context (grows with token position) and each completion
  /// allocates its KV cache in device memory for its duration. Off by
  /// default: at the paper's ~100-token contexts the effect is <1 % and the
  /// calibrated headline numbers stay put; bench/kv_context_sweep turns it
  /// on to study long-context serving.
  bool model_kv_cache = false;
};

/// Fig 2 flavour: fp32, 20-word completions, knee at ~20 SMs.
LlamaRunConfig fig2_config(int shards = 1);
/// §5.2 serving flavour: fp16 paragraph completions.
LlamaRunConfig serving_config();

/// Weights resident on one shard.
util::Bytes llama_weight_bytes(const LlamaSpec& spec, const LlamaRunConfig& cfg);
/// Total device footprint of one instance on one shard (weights + overhead).
util::Bytes llama_memory_footprint(const LlamaSpec& spec, const LlamaRunConfig& cfg);

/// One decode step on one shard (context position 0 — no KV traffic).
gpu::KernelDesc llama_decode_kernel(const LlamaSpec& spec, const LlamaRunConfig& cfg);

/// Decode step at a context position: with model_kv_cache the kernel also
/// streams `position` tokens' worth of K/V per layer.
gpu::KernelDesc llama_decode_kernel_at(const LlamaSpec& spec,
                                       const LlamaRunConfig& cfg, int position);

/// Bytes of K/V the model stores per context token on one shard.
util::Bytes llama_kv_bytes_per_token(const LlamaSpec& spec,
                                     const LlamaRunConfig& cfg);

/// One iteration of continuous batching: a single fused decode step that
/// produces one token for every sequence in `positions` (each entry is that
/// sequence's context length). The batching win the serving engine banks on
/// is explicit in the footprint: the weights stream ONCE for the whole
/// batch (vs once per token in run-to-completion decode), while per-
/// sequence K/V history still streams individually when model_kv_cache is
/// on. Width and achieved bandwidth grow with the batch — batching gives
/// the bandwidth-bound GEMV more parallel work, so it climbs out of the
/// ~10 %-of-peak batch-1 regime toward the prefill fraction.
/// An empty batch is a config error; a batch of one at position 0 matches
/// llama_decode_kernel exactly.
gpu::KernelDesc llama_batched_decode_kernel(const LlamaSpec& spec,
                                            const LlamaRunConfig& cfg,
                                            const std::vector<int>& positions);
/// Prompt ingestion on one shard.
gpu::KernelDesc llama_prefill_kernel(const LlamaSpec& spec, const LlamaRunConfig& cfg,
                                     int prompt_tokens);

/// Analytic decode-token service time at an SM grant — used by Fig 2 and by
/// the core right-sizing tool (no contention, launch overhead included).
util::Duration llama_decode_token_time(const LlamaSpec& spec, const LlamaRunConfig& cfg,
                                       const gpu::GpuArchSpec& arch, int sms);

/// Whole-completion latency on the CPU baseline (Fig 2: 180 s / 360 s).
util::Duration llama_cpu_completion_time(const LlamaSpec& spec,
                                         const gpu::CpuSpec& cpu,
                                         int output_tokens);

/// A completion task: prefill, then `output_tokens` decode steps with host
/// gaps, on the worker's bound GPU context.
struct CompletionShape {
  int prompt_tokens = 128;
  int output_tokens = 100;
};

/// Builds a FaaS app running one completion per invocation. The app's
/// model_bytes reflect the full footprint so capacity limits bite
/// ("only four 7B instances fit in 80 GB").
faas::AppDef make_llama_completion_app(const std::string& name, LlamaSpec spec,
                                       LlamaRunConfig cfg, CompletionShape shape);

/// The completion body: prefill, then one decode kernel per output token.
/// Kernels go through TaskContext::launch, so each one becomes a "kernel"
/// span in the causal trace when the task is traced.
/// make_llama_completion_app runs this.
sim::Co<void> llama_completion(faas::TaskContext& tctx, const LlamaSpec& spec,
                               const LlamaRunConfig& cfg, CompletionShape shape);

/// The same body outside the FaaS layer (Fig 2 drives it straight on a
/// device context), through an untraced task context.
sim::Co<void> llama_completion(sim::Simulator& sim, gpu::Device& dev,
                               gpu::ContextId ctx, const LlamaSpec& spec,
                               const LlamaRunConfig& cfg, CompletionShape shape);

}  // namespace faaspart::workloads
