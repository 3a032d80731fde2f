// ClusterService — the cluster-scale serving layer on top of ComputeService
// (DESIGN.md §9), and the one place that picks an endpoint for a request.
//
// Routing each submit to an endpoint immediately would, at cluster load,
// just relocate the queue to whichever endpoint the policy hit.
// ClusterService instead keeps a *service-side* queue:
//
//   submit → admission control (token bucket, queue cap, deadline)
//          → weighted fair queue across functions
//          → pump: dispatch to the best endpoint that has a credit
//
// Credits bound the work in flight per endpoint (worker_slots ×
// inflight_per_slot), so endpoints stay busy without absorbing the backlog —
// the queue, and therefore the fairness and shedding decisions, stay at the
// service where every function and every endpoint is visible.
//
// Routing policies (tie-breaks are always the lexicographically smallest
// endpoint name — determinism is load-bearing, see test_runner_determinism):
//   kRoundRobin   cycle endpoints, skipping unreachable/credit-less ones
//   kLeastLoaded  fewest in-flight per worker slot
//   kSticky       prefer endpoints whose WeightCache already holds the
//                 function's model (MQFQ-Sticky, arXiv:2507.08954), then the
//                 function's last endpoint, then least-loaded
//   kSloAware     minimize predicted completion: WAN RTT + queue-wait
//                 estimate + cold-start/weight-reload estimate
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "federation/admission.hpp"
#include "federation/service.hpp"
#include "federation/wfq.hpp"

namespace faaspart::obs {
class Counter;
}  // namespace faaspart::obs

namespace faaspart::federation {

enum class ClusterPolicy { kRoundRobin, kLeastLoaded, kSticky, kSloAware };

[[nodiscard]] const char* to_string(ClusterPolicy policy);

struct ClusterOptions {
  ClusterPolicy policy = ClusterPolicy::kSloAware;
  /// Dispatch credits per endpoint worker slot: how deep each endpoint's
  /// local pipeline may run before further work waits in the service queue.
  double inflight_per_slot = 2.0;
  /// Smoothing for observed per-function service times (WFQ costs and
  /// queue-wait predictions).
  double ewma_alpha = 0.2;
};

struct ClusterStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t dispatched = 0;
  /// Dispatches that landed on an endpoint already holding the function's
  /// model (no weight reload) — the stickiness payoff.
  std::size_t sticky_hits = 0;
  /// Dispatches that reached an endpoint mid-repartition. Must stay zero —
  /// property-tested (repartition-no-dispatch-mid-reset); counted here so
  /// the invariant is observable rather than asserted deep in routing.
  std::size_t mid_reset_dispatches = 0;
  std::map<std::string, std::size_t> shed_by_reason;
};

class ClusterService {
 public:
  ClusterService(sim::Simulator& sim, ComputeService& service,
                 ClusterOptions opts = {});

  /// Sets the serving class of a registered function (weight, rate limit,
  /// queue cap, deadline). Unconfigured functions get FunctionClass{}.
  void configure_function(const std::string& function_id, FunctionClass cls);

  /// Submits through admission control and the fair queue. Always returns a
  /// handle whose future settles: with the task's value, its execution
  /// error, or ShedError when admission refused it. `on_settle` runs with the
  /// request's final record (state, error, submit → finish) as it settles,
  /// so a driver that keeps what it needs from there can drop the handle.
  faas::AppHandle submit(const std::string& function_id,
                         const std::string& executor_label,
                         faas::SettleHook on_settle = {});

  /// Drains the service queue, settles every admitted request (including
  /// those admitted during the wait), then shuts down the underlying
  /// ComputeService and its endpoints.
  sim::Co<void> shutdown();

  [[nodiscard]] const ClusterStats& stats() const { return stats_; }
  /// Requests admitted for `function_id` so far — the demand signal the
  /// online Repartitioner differentiates into offered rates.
  [[nodiscard]] std::size_t admitted(const std::string& function_id) const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] ComputeService& service() { return service_; }

  /// Wakes the pump after endpoint eligibility changed out-of-band — the
  /// Repartitioner calls this after end_repartition()/set_serving(), which
  /// free no credit and would otherwise leave the pump parked on the credit
  /// gate while dispatchable work queues.
  void notify_endpoints_changed() { credit_gate_.open(); }

 private:
  struct FunctionState {
    /// Set once by state_of: this entry's functions_ key and the function's
    /// entry in ComputeService's registry, which never drops one — so a
    /// queued request reaches both without a lookup by id.
    const std::string* id = nullptr;
    const std::shared_ptr<const faas::AppDef>* def = nullptr;
    FunctionClass cls;
    std::unique_ptr<TokenBucket> bucket;  ///< null when cls.rate_hz == 0
    double service_ewma_s = 0;            ///< 0 until the first completion
    const Endpoint* last_endpoint = nullptr;  ///< sticky fallback
    std::size_t admitted = 0;                 ///< read through admitted()
    // Cached metric handles (rule O1): admission runs once per request, so
    // the registry lookup happens once per function/reason, not per call.
    obs::Counter* admitted_counter = nullptr;
    std::array<obs::Counter*, kShedReasonCount> shed_counters{};
  };

  struct Pending {
    FunctionState* fn = nullptr;
    std::string executor_label;
    sim::Promise<faas::AppValue> promise;
    std::shared_ptr<faas::TaskRecord> record;
    util::TimePoint enqueued{};
    /// Request-root span context (opened at submit, before admission, so
    /// shed requests trace too); inactive when tracing is off.
    obs::TraceContext trace{};
    faas::SettleHook on_settle;
  };

  /// The function's state, created on first use; throws
  /// util::NotFoundError, leaving no entry behind, on unregistered ids.
  FunctionState& state_of(const std::string& function_id);
  [[nodiscard]] double service_estimate_s(const FunctionState& st) const;
  /// Predicted service-queue wait for a newly admitted request.
  [[nodiscard]] util::Duration predicted_wait() const;

  void shed(const Pending& p, ShedReason reason);
  [[nodiscard]] std::size_t credit_limit(const Endpoint& ep) const;
  [[nodiscard]] std::size_t credits_used(const Endpoint& ep) const;
  /// The routing decision: the endpoint to dispatch `p` to now, or null
  /// when `p` must wait for a credit. Only endpoints eligible for `p`
  /// (serving its function, not mid-repartition) with spare credit compete,
  /// and partitioned ones only while no eligible endpoint is reachable. A
  /// null answer leaves the round-robin cursor where it was.
  [[nodiscard]] Endpoint* choose_endpoint(const Pending& p);
  void dispatch(Endpoint* ep, Pending p);
  /// Awaits `p`'s call over the WAN to `ep`, then settles the request: the
  /// endpoint's outcome folds into p's record, the credit frees and the
  /// request's future settles, all where the outcome arrives.
  sim::Co<void> deliver(Endpoint* ep, Pending p);
  sim::Co<void> pump();

  sim::Simulator& sim_;
  ComputeService& service_;
  ClusterOptions opts_;
  WfqScheduler<Pending> queue_;
  std::map<std::string, FunctionState> functions_;
  /// Credits used per endpoint. Keyed by address, so never iterated: every
  /// ordered walk goes through service_.endpoints().
  std::map<const Endpoint*, std::size_t> inflight_;
  ClusterStats stats_;
  double mean_service_s_ = 0;  ///< EWMA across all functions
  sim::Gate work_gate_;        ///< opened when the queue gains work
  sim::Gate credit_gate_;      ///< opened when an endpoint credit frees up
  bool pump_running_ = false;
  bool stopping_ = false;
  std::size_t round_robin_next_ = 0;
  std::size_t unsettled_ = 0;  ///< admitted requests whose future is pending
  sim::Gate all_settled_;      ///< opened whenever unsettled_ drops to zero
};

}  // namespace faaspart::federation
