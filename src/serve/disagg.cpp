#include "serve/disagg.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::serve {

namespace {

/// Fixed handoff cost (RPC + page-table install) per transfer.
constexpr util::Duration kHandoffLatency = util::microseconds(200);
/// Adoption retries before a prefilled context is shed ("kv-capacity").
constexpr int kMaxAdoptRetries = 8;
constexpr util::Duration kAdoptRetryDelay = util::milliseconds(10);

}  // namespace

DisaggLlmServer::DisaggLlmServer(sim::Simulator& sim, gpu::Device& dev,
                                 DisaggConfig cfg, std::string name)
    : sim_(sim),
      dev_(dev),
      cfg_(std::move(cfg)),
      name_(std::move(name)),
      queue_gate_(sim, false),
      workers_dead_(sim, true) {
  cfg_.run.model_kv_cache = true;
  FP_CHECK_MSG(cfg_.prefill.instances > 0, "disagg: empty prefill pool");
  FP_CHECK_MSG(cfg_.decode.instances > 0, "disagg: empty decode pool");
  dev_.enable_mig();
  build_pools();
}

DisaggLlmServer::~DisaggLlmServer() = default;

void DisaggLlmServer::build_pools() {
  const util::Bytes footprint =
      workloads::llama_memory_footprint(cfg_.spec, cfg_.run);
  for (int i = 0; i < cfg_.prefill.instances; ++i) {
    auto slot = std::make_unique<PrefillSlot>();
    slot->inst = dev_.create_instance(cfg_.prefill.profile);
    gpu::ContextOptions copts;
    copts.instance = slot->inst;
    slot->ctx = dev_.create_context(util::strf(name_, "/prefill", i), copts);
    slot->weights = dev_.alloc(slot->ctx, footprint, "weights");
    prefill_slots_.push_back(std::move(slot));
  }
  for (int i = 0; i < cfg_.decode.instances; ++i) {
    const gpu::InstanceId inst = dev_.create_instance(cfg_.decode.profile);
    decode_instances_.push_back(inst);
    EngineConfig e = cfg_.engine;
    e.spec = cfg_.spec;
    e.run = cfg_.run;
    e.inline_prefill = false;
    e.external_requeue = [this](ServedRequestPtr r) {
      requeue_front(std::move(r));
    };
    gpu::ContextOptions copts;
    copts.instance = inst;
    auto eng = std::make_unique<ServingEngine>(
        sim_, dev_, std::move(e), copts, util::strf(name_, "/decode", i));
    eng->start();
    decode_engines_.push_back(std::move(eng));
  }
  for (std::size_t i = 0; i < prefill_slots_.size(); ++i) {
    ++workers_live_;
    workers_dead_.close();
    sim_.spawn(worker(generation_, i), util::strf(name_, "/prefill", i));
  }
  if (!queue_.empty() && !paused_) queue_gate_.open();
}

sim::Co<void> DisaggLlmServer::teardown_pools() {
  // Stale the workers; parked ones wake, see the generation change and
  // exit, busy ones finish their in-flight prefill first.
  ++generation_;
  queue_gate_.open();
  co_await workers_dead_.wait();
  // Drain the decode engines: queued sequences finish decoding, preempted
  // ones re-queue here for re-prefill after the rebuild.
  for (auto& e : decode_engines_) e->request_stop();
  for (auto& e : decode_engines_) {
    co_await e->stopped();
    e->shutdown();
  }
  decode_engines_.clear();
  for (const gpu::InstanceId inst : decode_instances_) {
    dev_.destroy_instance(inst);
  }
  decode_instances_.clear();
  for (auto& slot : prefill_slots_) {
    dev_.destroy_context(slot->ctx);
    dev_.destroy_instance(slot->inst);
  }
  prefill_slots_.clear();
}

sim::Co<void> DisaggLlmServer::relayout(PoolSpec prefill, PoolSpec decode) {
  FP_CHECK_MSG(!paused_, "overlapping relayouts");
  FP_CHECK_MSG(prefill.instances > 0 && decode.instances > 0,
               "relayout to an empty pool");
  paused_ = true;
  co_await teardown_pools();
  co_await sim_.delay(dev_.arch().mig_reset);
  cfg_.prefill = std::move(prefill);
  cfg_.decode = std::move(decode);
  paused_ = false;
  build_pools();
  ++stats_.relayouts;
}

sim::Future<RequestOutcome> DisaggLlmServer::submit(LlmRequest req) {
  ServedRequestPtr r = make_served_request(sim_, req, next_request_id_);
  sim::Future<RequestOutcome> fut = r->done.future();
  ++stats_.submitted;
  queue_.push_back(std::move(r));
  if (!paused_) queue_gate_.open();
  return fut;
}

void DisaggLlmServer::requeue_front(ServedRequestPtr r) {
  ++stats_.requeues;
  queue_.push_front(std::move(r));
  if (!paused_) queue_gate_.open();
}

ServingEngine* DisaggLlmServer::pick_decode(int context_tokens) {
  ServingEngine* best = nullptr;
  for (const auto& e : decode_engines_) {
    if (!e->can_adopt(context_tokens)) continue;
    if (!best || e->load() < best->load()) best = e.get();
  }
  return best;
}

sim::Co<void> DisaggLlmServer::worker(int generation, std::size_t slot_index) {
  for (;;) {
    if (generation != generation_) break;
    if (paused_ || queue_.empty()) {
      queue_gate_.close();
      co_await queue_gate_.wait();
      continue;
    }
    ServedRequestPtr r = std::move(queue_.front());
    queue_.pop_front();
    co_await run_prefill(*prefill_slots_[slot_index], std::move(r));
  }
  if (--workers_live_ == 0) workers_dead_.open();
}

sim::Co<void> DisaggLlmServer::run_prefill(PrefillSlot& slot,
                                           ServedRequestPtr r) {
  const int context = r->context_tokens();
  const util::Bytes kv_bytes =
      workloads::llama_kv_bytes_per_token(cfg_.spec, cfg_.run) * context;

  // Transient prefill KV on this pool; the decode pool holds the durable
  // copy (reserved at adoption), so this frees at handoff.
  gpu::AllocationId kv = 0;
  bool faulted = false;
  bool oom = false;
  try {
    if (kv_bytes > 0) kv = dev_.alloc(slot.ctx, kv_bytes, "prefill-kv");
    gpu::KernelDesc kernel =
        workloads::llama_prefill_kernel(cfg_.spec, cfg_.run, context);
    co_await dev_.launch(slot.ctx, kernel);
  } catch (const util::OutOfMemoryError&) {
    oom = true;  // the prompt cannot fit this prefill instance, ever
  } catch (const std::exception&) {
    faulted = true;  // device error failed the launch; context survives
  }
  if (kv != 0) dev_.free(slot.ctx, kv);
  if (oom) {
    settle_shed(sim_, *r, kReasonKvCapacity);
    co_return;
  }
  if (faulted) {
    ++stats_.device_errors;
    ++r->fault_retries;
    if (r->fault_retries > cfg_.engine.max_fault_retries) {
      settle_failed(sim_, *r, kReasonDeviceError);
    } else {
      requeue_front(std::move(r));
    }
    co_return;
  }
  stats_.prefill_tokens += static_cast<std::uint64_t>(context);

  // KV handoff to the decode pool over the host link.
  const double bw = dev_.arch().host_link_bw;
  util::Duration handoff = kHandoffLatency;
  if (bw > 0 && kv_bytes > 0) {
    handoff = handoff + util::from_seconds(static_cast<double>(kv_bytes) / bw);
  }
  co_await sim_.delay(handoff);
  ++r->handoffs;
  ++stats_.handoffs;

  for (int attempt = 0;; ++attempt) {
    if (paused_) {
      // Relayout in progress: the decode pool is draining. The prefilled
      // state is lost with its transient pool — recompute afterwards.
      requeue_front(std::move(r));
      co_return;
    }
    ServingEngine* engine = pick_decode(r->context_tokens());
    // faaspart-lint: allow(E1) -- adopt_prefilled(ServedRequestPtr&) moves
    // from r exactly when it returns true, so this co_return leaves with
    // ownership already transferred; the checker cannot see through the
    // out-parameter
    if (engine != nullptr && engine->adopt_prefilled(r)) co_return;
    if (attempt >= kMaxAdoptRetries) {
      settle_shed(sim_, *r, kReasonKvCapacity);
      co_return;
    }
    co_await sim_.delay(kAdoptRetryDelay);
  }
}

}  // namespace faaspart::serve
