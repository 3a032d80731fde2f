#include "serve/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace faaspart::serve {

namespace {

/// Tokens per KV page.
constexpr int kPageTokens = 16;
/// Evictions a request survives before it is shed ("kv-capacity").
constexpr int kMaxPreemptions = 3;

}  // namespace

ServingEngine::ServingEngine(sim::Simulator& sim, gpu::Device& dev,
                             EngineConfig cfg, gpu::ContextOptions copts,
                             std::string name)
    : sim_(sim),
      dev_(dev),
      cfg_(std::move(cfg)),
      name_(std::move(name)),
      pager_([&] {
        // A serving engine without KV accounting would let the pager admit
        // fiction; force the flag before anything derives bytes from it.
        cfg_.run.model_kv_cache = true;
        FP_CHECK_MSG(cfg_.max_batch > 0, "engine: max_batch must be positive");
        FP_CHECK_MSG(cfg_.token_budget > 0, "engine: token_budget must be positive");
        ctx_ = dev_.create_context(name_, copts);
        weights_alloc_ = dev_.alloc(
            ctx_, workloads::llama_memory_footprint(cfg_.spec, cfg_.run),
            "weights");
        gpu::MemoryPool& pool = copts.instance
                                    ? *dev_.instance(*copts.instance).memory
                                    : dev_.memory();
        util::Bytes kv_capacity = pool.free_bytes();
        if (cfg_.kv_reserve > 0) kv_capacity = std::min(kv_capacity, cfg_.kv_reserve);
        if (kv_capacity > 0) kv_alloc_ = dev_.alloc(ctx_, kv_capacity, "kv-pool");
        gpu::KvPagerConfig pcfg;
        pcfg.page_tokens = kPageTokens;
        pcfg.bytes_per_token =
            workloads::llama_kv_bytes_per_token(cfg_.spec, cfg_.run);
        pcfg.capacity = kv_capacity;
        pcfg.admit_watermark = kAdmitWatermark;
        return gpu::KvPager(pcfg);
      }()),
      work_gate_(sim, false),
      stopped_gate_(sim, false) {}

ServingEngine::~ServingEngine() = default;

void ServingEngine::start() {
  FP_CHECK_MSG(!started_, "engine started twice");
  started_ = true;
  sim_.spawn(run_loop(), name_ + "/loop");
}

sim::Future<RequestOutcome> ServingEngine::submit(LlmRequest req) {
  ServedRequestPtr r = make_served_request(sim_, req, next_request_id_);
  sim::Future<RequestOutcome> fut = r->done.future();
  enqueue(std::move(r));
  return fut;
}

void ServingEngine::enqueue(ServedRequestPtr r) {
  FP_CHECK_MSG(r && r->req.id != 0, "enqueue of an unidentified request");
  FP_CHECK_MSG(r->done.valid(), "enqueue of a promiseless request");
  if (stop_requested_ || loop_exited_) {
    settle_shed(sim_, *r, kReasonQueueFull);
    ++stats_.sheds;
    record(EngineEventKind::kShed, r->req.id, 0);
    return;
  }
  auto seq = std::make_unique<Seq>();
  seq->r = std::move(r);
  waiting_.push_back(std::move(seq));
  work_gate_.open();
}

bool ServingEngine::adopt_prefilled(ServedRequestPtr& r) {
  FP_CHECK_MSG(r && r->req.id != 0, "adopt of an unidentified request");
  const int context = r->context_tokens();
  if (stop_requested_ || loop_exited_ || !can_adopt(context)) return false;
  auto seq = std::make_unique<Seq>();
  seq->kv = pager_.create();
  // can_adopt() held under the watermark, which grow() does not even need.
  FP_CHECK(pager_.grow(seq->kv, context));
  seq->position = context;
  seq->r = std::move(r);
  ++stats_.adopted;
  record(EngineEventKind::kAdmit, seq->r->req.id, context);
  waiting_.push_back(std::move(seq));
  work_gate_.open();
  return true;
}

bool ServingEngine::can_adopt(int context_tokens) const {
  // +1: the adopted context must be able to append at least one token.
  return pager_.can_admit(context_tokens + 1);
}

void ServingEngine::request_stop() {
  stop_requested_ = true;
  work_gate_.open();  // wake an idle loop so it can exit
}

sim::Co<void> ServingEngine::stopped() { co_await stopped_gate_.wait(); }

void ServingEngine::shutdown() {
  if (shut_down_) return;
  FP_CHECK_MSG(!started_ || loop_exited_, "shutdown of a running engine loop");
  FP_CHECK_MSG(idle(), "shutdown with queued or batched requests");
  dev_.destroy_context(ctx_);  // frees weights and the KV pool with it
  shut_down_ = true;
}

sim::Co<void> ServingEngine::run_loop() {
  for (;;) {
    if (waiting_.empty() && running_.empty()) {
      if (stop_requested_) break;
      work_gate_.close();
      co_await work_gate_.wait();
      continue;
    }
    ++stats_.iterations;
    co_await step();
  }
  loop_exited_ = true;
  stopped_gate_.open();
}

sim::Co<void> ServingEngine::step() {
  int iteration_tokens = 0;
  std::vector<Seq*> to_prefill = admit(iteration_tokens);

  // Inline prefill for newly admitted (or preempted-and-readmitted)
  // contexts. A device error fails the whole iteration: every batched
  // sequence is preempted and requeued or settled.
  for (Seq* s : to_prefill) {
    const int context = s->r->context_tokens();
    gpu::KernelDesc kernel =
        workloads::llama_prefill_kernel(cfg_.spec, cfg_.run, context);
    try {
      co_await dev_.launch(ctx_, kernel);
    } catch (const std::exception&) {
      fail_iteration(kReasonDeviceError);
      co_return;
    }
    s->position = context;
    stats_.prefill_tokens += static_cast<std::uint64_t>(context);
    record(EngineEventKind::kPrefill, s->r->req.id, context);
  }

  if (!running_.empty()) {
    ensure_decode_capacity();
  }
  if (!running_.empty()) {
    positions_.clear();
    for (const SeqPtr& s : running_) {
      FP_CHECK_MSG(s->position >= s->r->context_tokens(),
                   "decode on an unprefilled sequence");
      FP_CHECK_MSG(pager_.live(s->kv) &&
                       pager_.tokens_of(s->kv) >= s->position + 1,
                   "decode on evicted KV");
      positions_.push_back(s->position);
      record(EngineEventKind::kDecode, s->r->req.id, s->position);
    }
    gpu::KernelDesc kernel =
        workloads::llama_batched_decode_kernel(cfg_.spec, cfg_.run, positions_);
    try {
      co_await dev_.launch(ctx_, kernel);
    } catch (const std::exception&) {
      fail_iteration(kReasonDeviceError);
      co_return;
    }
    const int batch = static_cast<int>(running_.size());
    stats_.decode_tokens += static_cast<std::uint64_t>(batch);
    stats_.peak_batch = std::max(stats_.peak_batch, batch);
    iteration_tokens += batch;

    std::size_t i = 0;
    while (i < running_.size()) {
      Seq& s = *running_[i];
      s.position += 1;
      ServedRequest& r = *s.r;
      r.generated += 1;
      if (!r.first_token) {
        r.first_token = true;
        r.first_token_at = sim_.now();
      }
      if (r.generated >= r.req.max_new_tokens) {
        complete(i);
      } else {
        ++i;
      }
    }
  }

  record(EngineEventKind::kIteration, 0, iteration_tokens);
  co_await sim_.delay(kIterationGap);
}

std::vector<ServingEngine::Seq*> ServingEngine::admit(int& iteration_tokens) {
  std::vector<Seq*> to_prefill;
  // Every already-batched sequence decodes one token this iteration.
  int committed = static_cast<int>(running_.size());
  while (!waiting_.empty() &&
         static_cast<int>(running_.size()) < cfg_.max_batch) {
    Seq& head = *waiting_.front();
    const int context = head.r->context_tokens();
    const bool needs_prefill = !head.prefilled();
    if (needs_prefill) {
      FP_CHECK_MSG(cfg_.inline_prefill,
                   "raw context queued on a decode-only engine");
      if (context + 1 > cfg_.token_budget ||
          !pager_.can_ever_admit(context + 1)) {
        // This context can never be admitted; shed it rather than letting
        // FCFS head-of-line blocking become a livelock.
        SeqPtr seq = std::move(waiting_.front());
        waiting_.pop_front();
        if (seq->kv != 0) pager_.release(seq->kv);
        record(EngineEventKind::kShed, seq->r->req.id, 0);
        settle_shed(sim_, *seq->r, kReasonKvCapacity);
        ++stats_.sheds;
        continue;
      }
      if (!pager_.can_admit(context + 1)) break;  // wait for pages to free
    }
    const int cost = (needs_prefill ? context : 0) + 1;
    if (committed + cost > cfg_.token_budget) break;
    committed += cost;
    iteration_tokens += needs_prefill ? context : 0;

    SeqPtr seq = std::move(waiting_.front());
    waiting_.pop_front();
    if (needs_prefill) {
      if (seq->kv == 0) {
        seq->kv = pager_.create();
      }
      // Reserve the context's pages NOW: the next waiter's watermark check
      // must see this admission as used pages, or a burst of co-arriving
      // contexts would all clear against the same free pool and overrun it
      // at prefill time.
      FP_CHECK(pager_.grow(seq->kv, context));
      to_prefill.push_back(seq.get());
    }
    record(EngineEventKind::kAdmit, seq->r->req.id, context);
    running_.push_back(std::move(seq));
  }
  return to_prefill;
}

void ServingEngine::ensure_decode_capacity() {
  std::size_t i = 0;
  while (i < running_.size()) {
    Seq& s = *running_[i];
    if (pager_.grow(s.kv, s.position + 1)) {
      ++i;
      continue;
    }
    // No free page: evict the most recently admitted sequence (LIFO — the
    // oldest work keeps its progress). When the starving sequence IS the
    // victim, it preempts itself.
    const std::size_t victim = running_.size() - 1;
    preempt_out(victim);
    // Retry the same index: either the victim freed pages for `s`, or `s`
    // itself left the batch and `i` now points at the next sequence (or
    // past the end).
  }
}

void ServingEngine::preempt_out(std::size_t index) {
  FP_CHECK(index < running_.size());
  SeqPtr seq = std::move(running_[index]);
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(index));
  const int freed = pager_.preempt(seq->kv);
  seq->position = 0;
  ++stats_.preemptions;
  record(EngineEventKind::kPreempt, seq->r->req.id, freed);
  requeue_or_shed(std::move(seq), kReasonKvCapacity, /*count_preemption=*/true);
}

void ServingEngine::requeue_or_shed(SeqPtr seq, const char* reason,
                                    bool count_preemption) {
  ServedRequest& r = *seq->r;
  if (count_preemption) {
    ++r.preemptions;
    if (r.preemptions > kMaxPreemptions) {
      pager_.release(seq->kv);
      record(EngineEventKind::kShed, r.req.id, 0);
      settle_shed(sim_, r, reason);
      ++stats_.sheds;
      return;
    }
  } else {
    ++r.fault_retries;
    if (r.fault_retries > cfg_.max_fault_retries) {
      pager_.release(seq->kv);
      record(EngineEventKind::kFail, r.req.id, 0);
      settle_failed(sim_, r, reason);
      ++stats_.failures;
      return;
    }
  }
  if (cfg_.inline_prefill) {
    // Keep the (now page-less) pager entry and resume at the queue head so
    // preempted work re-admits before new arrivals.
    waiting_.push_front(std::move(seq));
  } else {
    // Decode-only engine: the context must be re-prefilled elsewhere.
    pager_.release(seq->kv);
    seq->kv = 0;
    FP_CHECK_MSG(static_cast<bool>(cfg_.external_requeue),
                 "decode-only engine preempted without a requeue hook");
    cfg_.external_requeue(std::move(seq->r));
  }
}

void ServingEngine::fail_iteration(const char* reason) {
  ++stats_.device_errors;
  while (!running_.empty()) {
    SeqPtr seq = std::move(running_.back());
    running_.pop_back();
    const int freed = pager_.preempt(seq->kv);
    seq->position = 0;
    record(EngineEventKind::kPreempt, seq->r->req.id, freed);
    requeue_or_shed(std::move(seq), reason, /*count_preemption=*/false);
  }
}

void ServingEngine::complete(std::size_t index) {
  FP_CHECK(index < running_.size());
  SeqPtr seq = std::move(running_[index]);
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(index));
  pager_.release(seq->kv);
  record(EngineEventKind::kComplete, seq->r->req.id, seq->r->generated);
  settle_completed(sim_, *seq->r);
  ++stats_.completions;
}

void ServingEngine::record(EngineEventKind kind, RequestId request, int tokens) {
  if (!cfg_.keep_log) return;
  log_.push_back(EngineEvent{stats_.iterations, kind, request, tokens});
}

}  // namespace faaspart::serve
