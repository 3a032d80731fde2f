// ServingEngine — iteration-level continuous batching over the LLaMa cost
// model (DESIGN.md §14).
//
// The engine owns one GPU context (whole device or one MIG instance), the
// model weights resident on it, and a KvPager carved out of the remaining
// HBM. Its loop is the vLLM-style scheduler reduced to the cost model:
//
//   per iteration:
//     1. admit waiting requests FCFS while the decode batch has room, the
//        iteration's token budget holds, and the pager admits the context
//        under its watermark;
//     2. run prefill for newly admitted contexts (inline mode — the
//        disaggregated decode pools instead adopt contexts prefilled
//        elsewhere via adopt_prefilled());
//     3. run ONE fused decode step for the whole batch
//        (llama_batched_decode_kernel: weights stream once per step, not
//        once per sequence — the continuous-batching win), append one token
//        per sequence, retire finished sequences;
//     4. pay one host-side iteration gap (batched sampling/detokenize).
//
// KV pressure is resolved by copy-free LIFO preemption: when a sequence
// cannot grow by one token, the most recently admitted sequence is evicted
// (pages returned, context recomputed on re-admission). A device error
// fails the in-flight launch; the engine reclaims every page and requeues
// or sheds the affected requests — settled exactly once either way.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "gpu/kv_pager.hpp"
#include "serve/request.hpp"
#include "sim/co.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "workloads/llama.hpp"

namespace faaspart::serve {

/// Share of the KV pool the pager admits new contexts into; the pool
/// balancer's decode scores read it too.
inline constexpr double kAdmitWatermark = 0.90;
/// Host-side work per iteration (batched sampling, detokenize, queue
/// bookkeeping). Replaces the per-token host gap of run-to-completion
/// decode: the iteration loop pays it once per step, whatever the batch.
inline constexpr util::Duration kIterationGap = util::milliseconds(5);

struct EngineConfig {
  workloads::LlamaSpec spec = workloads::llama2_7b();
  /// model_kv_cache is forced on — a serving engine without KV accounting
  /// would let the pager admit fiction.
  workloads::LlamaRunConfig run = workloads::serving_config();

  /// Decode batch ceiling (sequences per iteration).
  int max_batch = 16;
  /// Per-iteration token budget: admitted prefill context tokens plus one
  /// decode token per batched sequence. Requests whose whole context
  /// exceeds it (or the pager watermark) are shed at admission — FCFS
  /// head-of-line blocking must never become a livelock.
  int token_budget = 768;
  /// Device faults a request survives before it fails ("device-error").
  int max_fault_retries = 2;
  /// True: the engine prefills admitted contexts itself (colocated mode).
  /// False: it only decodes; contexts arrive via adopt_prefilled() and
  /// preempted requests leave through `external_requeue` for re-prefill.
  bool inline_prefill = true;
  /// KV pool bytes; 0 = everything left in the context's memory pool after
  /// the weights.
  util::Bytes kv_reserve = 0;
  /// Record the per-iteration event log (tests; unbounded, off by default).
  bool keep_log = false;
  /// Disaggregation hook: receives preempted/faulted requests instead of
  /// the engine's own waiting queue when inline_prefill is false.
  std::function<void(ServedRequestPtr)> external_requeue;
};

struct EngineStats {
  std::uint64_t iterations = 0;
  std::uint64_t decode_tokens = 0;
  std::uint64_t prefill_tokens = 0;
  std::uint64_t adopted = 0;  ///< prefilled contexts accepted (disagg)
  std::uint64_t completions = 0;
  std::uint64_t sheds = 0;
  std::uint64_t failures = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t device_errors = 0;  ///< faulted iterations survived
  int peak_batch = 0;
};

enum class EngineEventKind {
  kAdmit,      ///< tokens = context to (re)build
  kPrefill,    ///< tokens = context tokens ingested
  kDecode,     ///< per sequence in the step; tokens = its context position
  kIteration,  ///< one per iteration; tokens = prefill + decode token total
  kPreempt,    ///< tokens = pages freed
  kComplete,
  kShed,
  kFail,
};

struct EngineEvent {
  std::uint64_t iteration = 0;
  EngineEventKind kind{};
  RequestId request = 0;  ///< 0 for kIteration
  int tokens = 0;
};

class ServingEngine {
 public:
  /// Creates the context, loads the weights and carves the KV pool. The
  /// loop starts on start().
  ServingEngine(sim::Simulator& sim, gpu::Device& dev, EngineConfig cfg,
                gpu::ContextOptions copts = {}, std::string name = "engine");
  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  void start();

  /// Colocated entry: queue for admission → prefill → decode.
  sim::Future<RequestOutcome> submit(LlmRequest req);
  /// Disaggregated entry for an externally owned request (promise made at
  /// the front door).
  void enqueue(ServedRequestPtr r);

  /// Disagg handoff: adopts a context prefilled elsewhere, reserving its KV
  /// pages now. False (request untouched) when the pager cannot admit it.
  [[nodiscard]] bool adopt_prefilled(ServedRequestPtr& r);
  /// Watermark-level admission probe for the disagg router.
  [[nodiscard]] bool can_adopt(int context_tokens) const;

  /// Queued + batched requests (the disagg router's load signal).
  [[nodiscard]] std::size_t load() const {
    return waiting_.size() + running_.size();
  }
  [[nodiscard]] bool idle() const { return load() == 0; }

  /// Finish everything queued, then stop the loop (new submits are shed
  /// with "queue-full"). stopped() completes when the loop has exited.
  void request_stop();
  [[nodiscard]] sim::Co<void> stopped();

  /// Tears down the GPU context (requires an exited loop and no work) —
  /// the pool balancer calls this before destroying the MIG instance.
  void shutdown();

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<EngineEvent>& log() const { return log_; }
  [[nodiscard]] const gpu::KvPager& pager() const { return pager_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Seq {
    ServedRequestPtr r;
    gpu::KvSeqId kv = 0;
    int position = 0;  ///< context tokens resident in KV
    bool prefilled() const { return position >= r->context_tokens(); }
  };
  using SeqPtr = std::unique_ptr<Seq>;

  sim::Co<void> run_loop();
  sim::Co<void> step();
  /// Moves admissible waiting requests into the batch; returns the contexts
  /// needing prefill this iteration and charges them to `iteration_tokens`.
  std::vector<Seq*> admit(int& iteration_tokens);
  /// Ensures every batched sequence can append one token, evicting LIFO
  /// victims under pressure.
  void ensure_decode_capacity();
  void preempt_out(std::size_t index);
  void requeue_or_shed(SeqPtr seq, const char* reason, bool count_preemption);
  void fail_iteration(const char* reason);
  void complete(std::size_t index);
  void record(EngineEventKind kind, RequestId request, int tokens);

  sim::Simulator& sim_;
  gpu::Device& dev_;
  EngineConfig cfg_;
  std::string name_;
  gpu::ContextId ctx_ = 0;
  gpu::AllocationId weights_alloc_ = 0;
  gpu::AllocationId kv_alloc_ = 0;
  gpu::KvPager pager_;

  std::deque<SeqPtr> waiting_;
  std::vector<SeqPtr> running_;  ///< the decode batch, admission order
  /// The decode step's context positions, refilled every iteration.
  std::vector<int> positions_;
  /// The decode step's kernel, rewritten every iteration; its name is
  /// rebuilt only when the batch size (decode_batch_) changes.
  gpu::KernelDesc decode_kernel_;
  int decode_batch_ = 0;

  bool started_ = false;
  bool stop_requested_ = false;
  bool loop_exited_ = false;
  bool shut_down_ = false;
  sim::Gate work_gate_;
  sim::Gate stopped_gate_;

  RequestId next_request_id_ = 1;
  EngineStats stats_;
  std::vector<EngineEvent> log_;
};

}  // namespace faaspart::serve
