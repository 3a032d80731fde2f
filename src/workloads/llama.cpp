#include "workloads/llama.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::workloads {

double LlamaSpec::params() const {
  const double d = d_model;
  const double kv_ratio = static_cast<double>(n_kv_heads) / n_heads;
  const double embed = static_cast<double>(vocab) * d;      // token embeddings
  const double lm_head = static_cast<double>(vocab) * d;    // output projection
  // wq + wo are d×d; wk + wv shrink under grouped-query attention (70B).
  const double attn = (2.0 + 2.0 * kv_ratio) * d * d;
  const double mlp = 3.0 * d * d_ff;                        // gate, up, down
  const double norms = 2.0 * d;                             // rmsnorms
  return embed + lm_head + n_layers * (attn + mlp + norms) + d;
}

LlamaSpec llama2_7b() {
  return LlamaSpec{"llama2-7b", 32, 4096, 32, 32, 11008, 32000};
}
LlamaSpec llama2_13b() {
  return LlamaSpec{"llama2-13b", 40, 5120, 40, 40, 13824, 32000};
}
LlamaSpec llama2_70b() {
  return LlamaSpec{"llama2-70b", 80, 8192, 64, 8, 28672, 32000};
}

LlamaRunConfig fig2_config(int shards) {
  LlamaRunConfig cfg;
  cfg.bytes_per_param = 4;  // the paper runs Fig 2 in fp32
  cfg.shards = shards;
  cfg.decode_width_sms = 20;
  cfg.host_gap_per_token = util::milliseconds(20);
  return cfg;
}

LlamaRunConfig serving_config() {
  LlamaRunConfig cfg;
  cfg.bytes_per_param = 2;  // fp16 so four instances fit an 80 GB A100
  cfg.shards = 1;
  cfg.decode_width_sms = 35;  // paragraph context widens decode (DESIGN.md §5)
  cfg.host_gap_per_token = util::milliseconds(40);
  return cfg;
}

util::Bytes llama_weight_bytes(const LlamaSpec& spec, const LlamaRunConfig& cfg) {
  return static_cast<util::Bytes>(spec.params() * cfg.bytes_per_param / cfg.shards);
}

util::Bytes llama_memory_footprint(const LlamaSpec& spec, const LlamaRunConfig& cfg) {
  return llama_weight_bytes(spec, cfg) + cfg.runtime_overhead;
}

gpu::KernelDesc llama_decode_kernel(const LlamaSpec& spec, const LlamaRunConfig& cfg) {
  gpu::KernelDesc k;
  k.name = spec.name + "/decode";
  k.kind = gpu::KernelKind::kGemv;
  k.flops = 2.0 * spec.params() / cfg.shards;  // one MAC per weight
  k.bytes = llama_weight_bytes(spec, cfg);     // stream every weight once
  k.width_sms = cfg.decode_width_sms;
  k.bw_fraction = cfg.decode_bw_fraction;
  return k;
}

util::Bytes llama_kv_bytes_per_token(const LlamaSpec& spec,
                                     const LlamaRunConfig& cfg) {
  // K and V per layer: head_dim × n_kv_heads = d_model × (kv/heads).
  const double per_layer = 2.0 * spec.d_model *
                           (static_cast<double>(spec.n_kv_heads) / spec.n_heads) *
                           cfg.bytes_per_param;
  return static_cast<util::Bytes>(per_layer * spec.n_layers / cfg.shards);
}

gpu::KernelDesc llama_decode_kernel_at(const LlamaSpec& spec,
                                       const LlamaRunConfig& cfg, int position) {
  gpu::KernelDesc k = llama_decode_kernel(spec, cfg);
  if (cfg.model_kv_cache && position > 0) {
    // Attention streams the whole K/V history each step...
    k.bytes += llama_kv_bytes_per_token(spec, cfg) * position;
    k.flops += 2.0 * static_cast<double>(llama_kv_bytes_per_token(spec, cfg)) /
               cfg.bytes_per_param * position;
    // ...and that work parallelizes across positions, so the decode step's
    // saturation width grows with the context (one extra SM per ~64
    // positions is a reasonable occupancy model for fused attention).
    k.width_sms = std::min(128, std::max(k.width_sms, position / 64));
  }
  return k;
}

gpu::KernelDesc llama_batched_decode_kernel(const LlamaSpec& spec,
                                            const LlamaRunConfig& cfg,
                                            const std::vector<int>& positions) {
  gpu::KernelDesc k;
  assign_batched_decode_footprint(k, spec, cfg, positions);
  k.name = llama_batched_decode_name(spec, static_cast<int>(positions.size()));
  return k;
}

std::string llama_batched_decode_name(const LlamaSpec& spec, int batch) {
  return util::strf(spec.name, "/decode-b", batch);
}

void assign_batched_decode_footprint(gpu::KernelDesc& k, const LlamaSpec& spec,
                                     const LlamaRunConfig& cfg,
                                     const std::vector<int>& positions) {
  FP_CHECK_MSG(!positions.empty(), "batched decode needs >= 1 sequence");
  const int batch = static_cast<int>(positions.size());
  // One fused step: GEMV degenerates to a (thin) GEMM once batch > 1.
  k.kind = batch > 1 ? gpu::KernelKind::kGemm : gpu::KernelKind::kGemv;
  k.flops = 2.0 * spec.params() / cfg.shards * batch;
  k.bytes = llama_weight_bytes(spec, cfg);  // weights stream once per step
  int max_position = 0;
  if (cfg.model_kv_cache) {
    const util::Bytes kv_tok = llama_kv_bytes_per_token(spec, cfg);
    for (const int position : positions) {
      FP_CHECK_MSG(position >= 0, "negative context position");
      max_position = std::max(max_position, position);
      if (position == 0) continue;
      // Each sequence's attention streams its own K/V history.
      k.bytes += kv_tok * position;
      k.flops += 2.0 * static_cast<double>(kv_tok) / cfg.bytes_per_param *
                 position;
    }
  }
  // Extra sequences and longer contexts both widen the step (more
  // independent rows / attention spans to spread over SMs), and a wider
  // kernel keeps more memory streams in flight, so the achieved bandwidth
  // fraction scales with width up to the prefill GEMM's fraction.
  k.width_sms = std::min(
      128, cfg.decode_width_sms + 2 * (batch - 1) + max_position / 64);
  k.bw_fraction =
      std::min(cfg.prefill_bw_fraction,
               cfg.decode_bw_fraction * k.width_sms / cfg.decode_width_sms);
}

gpu::KernelDesc llama_prefill_kernel(const LlamaSpec& spec, const LlamaRunConfig& cfg,
                                     int prompt_tokens) {
  FP_CHECK_MSG(prompt_tokens >= 0, "negative prompt length");
  gpu::KernelDesc k;
  k.name = spec.name + "/prefill";
  k.kind = gpu::KernelKind::kGemm;
  k.flops = 2.0 * spec.params() * prompt_tokens / cfg.shards;
  k.bytes = llama_weight_bytes(spec, cfg);  // weights read once, batched over tokens
  k.width_sms = cfg.prefill_width_sms;
  k.bw_fraction = cfg.prefill_bw_fraction;
  return k;
}

util::Duration llama_decode_token_time(const LlamaSpec& spec, const LlamaRunConfig& cfg,
                                       const gpu::GpuArchSpec& arch, int sms) {
  const auto k = llama_decode_kernel(spec, cfg);
  util::Duration t = gpu::solo_service_time(arch, k, gpu::KernelGrant{sms});
  if (cfg.shards > 1) t += cfg.sync_per_layer * spec.n_layers;
  return t;
}

util::Duration llama_cpu_completion_time(const LlamaSpec& spec,
                                         const gpu::CpuSpec& cpu,
                                         int output_tokens) {
  // CPU decode is also weight-streaming-bound, at a much lower achieved
  // fraction of memory bandwidth (strided access, no tensor cores).
  // Calibrated at 3.3 % so fp32 7B ≈ 180 s and 13B ≈ 360 s (Fig 2 text).
  constexpr double kCpuBwFraction = 0.033;
  const double weight_bytes = spec.params() * 4;  // fp32 baseline
  const double token_s = weight_bytes / (cpu.mem_bw * kCpuBwFraction);
  return util::from_seconds(token_s * output_tokens);
}

sim::Co<void> llama_completion(sim::Simulator& sim, gpu::Device& dev,
                               gpu::ContextId ctx, const LlamaSpec& spec,
                               const LlamaRunConfig& cfg, CompletionShape shape) {
  // An untraced task context launches straight onto the device, and the
  // nested Co runs by symmetric transfer, so no event moves.
  util::Rng unused_rng(0);
  faas::TaskContext tctx(sim, unused_rng, "", 0, &dev, ctx);
  co_await llama_completion(tctx, spec, cfg, shape);
}

sim::Co<void> llama_completion(faas::TaskContext& tctx, const LlamaSpec& spec,
                               const LlamaRunConfig& cfg, CompletionShape shape) {
  // With KV modelling on, the request's cache lives in device memory for
  // the completion's duration.
  gpu::Device& dev = tctx.device();
  const gpu::ContextId ctx = tctx.gpu_context();
  gpu::AllocationId kv_alloc = 0;
  if (cfg.model_kv_cache) {
    const util::Bytes kv_total =
        llama_kv_bytes_per_token(spec, cfg) *
        (shape.prompt_tokens + shape.output_tokens);
    if (kv_total > 0) kv_alloc = dev.alloc(ctx, kv_total, "kv-cache");
  }

  if (shape.prompt_tokens > 0) {
    co_await tctx.launch(llama_prefill_kernel(spec, cfg, shape.prompt_tokens));
  }
  const util::Duration per_token_sync =
      cfg.shards > 1 ? cfg.sync_per_layer * spec.n_layers : util::Duration{0};
  for (int t = 0; t < shape.output_tokens; ++t) {
    co_await tctx.launch(
        llama_decode_kernel_at(spec, cfg, shape.prompt_tokens + t));
    if (per_token_sync.ns > 0) co_await tctx.sim().delay(per_token_sync);
    co_await tctx.sim().delay(cfg.host_gap_per_token);
  }

  if (kv_alloc != 0) dev.free(ctx, kv_alloc);
}

faas::AppDef make_llama_completion_app(const std::string& name, LlamaSpec spec,
                                       LlamaRunConfig cfg, CompletionShape shape) {
  faas::AppDef app;
  app.name = name;
  app.function_init = util::milliseconds(1200);  // torch import + env setup
  app.model_bytes = llama_memory_footprint(spec, cfg);
  app.model_key = spec.name + util::strf("@", cfg.bytes_per_param, "B");
  // faaspart-lint: allow(C2) -- stored in AppDef::body for the app's whole
  // lifetime; the executor never outlives the AppDef it runs
  app.body = [spec, cfg, shape](faas::TaskContext& tctx) -> sim::Co<faas::AppValue> {
    co_await llama_completion(tctx, spec, cfg, shape);
    co_return faas::AppValue{static_cast<double>(shape.output_tokens)};
  };
  return app;
}

}  // namespace faaspart::workloads
