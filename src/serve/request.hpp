// Request/outcome types shared by the LLM serving engine (engine.hpp), the
// disaggregated server (disagg.hpp) and the bench harness (DESIGN.md §14).
//
// A ServedRequest is created once at the front door and settled exactly
// once — completed, shed (with a canonical reason string) or failed — no
// matter how many times it is preempted, re-prefilled or handed between
// pools along the way. The settle_* helpers enforce that single-settle
// invariant with FP_CHECK; the engine property suite re-checks it from the
// outside over generated workloads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/future.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace faaspart::serve {

using RequestId = std::uint64_t;

/// One completion request: a prompt to ingest and a token budget to decode.
struct LlmRequest {
  RequestId id = 0;  ///< 0 = assign at submit
  int prompt_tokens = 128;
  int max_new_tokens = 100;
};

enum class OutcomeKind {
  kCompleted,  ///< full `max_new_tokens` generated
  kShed,       ///< refused or evicted past its retry budget; reason says why
  kFailed,     ///< device fault exhausted the retry budget
};

[[nodiscard]] constexpr const char* outcome_kind_name(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kCompleted: return "completed";
    case OutcomeKind::kShed: return "shed";
    case OutcomeKind::kFailed: return "failed";
  }
  return "?";
}

// Canonical shed/fail reason spellings for this layer ("queue-full" is
// spelled as the federation front door spells its own).
inline constexpr const char* kReasonKvCapacity = "kv-capacity";
inline constexpr const char* kReasonQueueFull = "queue-full";
inline constexpr const char* kReasonDeviceError = "device-error";

/// The settled result of one request.
struct RequestOutcome {
  OutcomeKind kind = OutcomeKind::kCompleted;
  std::string reason;        ///< empty for completed
  util::Duration ttft{};     ///< submit → first output token (completed only)
  util::Duration latency{};  ///< submit → settle
  int tokens_out = 0;        ///< output tokens actually generated
  int preemptions = 0;       ///< KV evictions suffered (recompute restarts)
  int handoffs = 0;          ///< prefill→decode pool transfers (disagg)
};

/// A request in flight. Owned by exactly one stage at a time (front-door
/// queue, prefill worker, decode engine) and moved between them.
struct ServedRequest {
  LlmRequest req;
  util::TimePoint submitted{};
  sim::Promise<RequestOutcome> done;
  bool settled = false;

  bool first_token = false;
  util::TimePoint first_token_at{};
  int generated = 0;     ///< output tokens produced so far (kept on preempt)
  int preemptions = 0;
  int fault_retries = 0;  ///< device-error evictions survived so far
  int handoffs = 0;

  /// Context the next prefill must (re)build: prompt plus already-generated
  /// tokens (recompute after a copy-free preemption).
  [[nodiscard]] int context_tokens() const {
    return req.prompt_tokens + generated;
  }
};

using ServedRequestPtr = std::unique_ptr<ServedRequest>;

/// The one way a front door admits a request: an id from `next_id` when the
/// caller left it 0, prompt and output clamped to at least one token, the
/// submit time stamped and the settle promise made.
inline ServedRequestPtr make_served_request(sim::Simulator& sim,
                                            LlmRequest req,
                                            RequestId& next_id) {
  if (req.id == 0) req.id = next_id++;
  req.prompt_tokens = std::max(1, req.prompt_tokens);
  req.max_new_tokens = std::max(1, req.max_new_tokens);
  auto r = std::make_unique<ServedRequest>();
  r->req = req;
  r->submitted = sim.now();
  r->done = sim::Promise<RequestOutcome>(sim);
  return r;
}

namespace detail {
inline RequestOutcome outcome_base(const sim::Simulator& sim,
                                   const ServedRequest& r) {
  RequestOutcome out;
  out.latency = sim.now() - r.submitted;
  out.tokens_out = r.generated;
  out.preemptions = r.preemptions;
  out.handoffs = r.handoffs;
  return out;
}
}  // namespace detail

inline void settle_completed(const sim::Simulator& sim, ServedRequest& r) {
  FP_CHECK_MSG(!r.settled, "request settled twice");
  r.settled = true;
  RequestOutcome out = detail::outcome_base(sim, r);
  out.kind = OutcomeKind::kCompleted;
  out.ttft = r.first_token ? r.first_token_at - r.submitted : util::Duration{};
  r.done.set_value(std::move(out));
}

inline void settle_shed(const sim::Simulator& sim, ServedRequest& r,
                        std::string reason) {
  FP_CHECK_MSG(!r.settled, "request settled twice");
  r.settled = true;
  RequestOutcome out = detail::outcome_base(sim, r);
  out.kind = OutcomeKind::kShed;
  out.reason = std::move(reason);
  r.done.set_value(std::move(out));
}

inline void settle_failed(const sim::Simulator& sim, ServedRequest& r,
                          std::string reason) {
  FP_CHECK_MSG(!r.settled, "request settled twice");
  r.settled = true;
  RequestOutcome out = detail::outcome_base(sim, r);
  out.kind = OutcomeKind::kFailed;
  out.reason = std::move(reason);
  r.done.set_value(std::move(out));
}

}  // namespace faaspart::serve
