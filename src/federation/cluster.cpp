#include "federation/cluster.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "util/strings.hpp"

namespace faaspart::federation {

const char* to_string(ClusterPolicy policy) {
  switch (policy) {
    case ClusterPolicy::kRoundRobin: return "round-robin";
    case ClusterPolicy::kLeastLoaded: return "least-loaded";
    case ClusterPolicy::kSticky: return "sticky";
    case ClusterPolicy::kSloAware: return "slo-aware";
  }
  return "?";
}

ClusterService::ClusterService(sim::Simulator& sim, ComputeService& service,
                               ClusterOptions opts)
    : sim_(sim),
      service_(service),
      opts_(opts),
      work_gate_(sim, /*open=*/false),
      credit_gate_(sim, /*open=*/false),
      all_settled_(sim) {
  FP_CHECK_MSG(opts_.inflight_per_slot > 0, "inflight_per_slot must be positive");
  FP_CHECK_MSG(opts_.ewma_alpha > 0 && opts_.ewma_alpha <= 1,
               "ewma_alpha must be in (0, 1]");
}

void ClusterService::configure_function(const std::string& function_id,
                                        FunctionClass cls) {
  FunctionState& st = state_of(function_id);
  FP_CHECK_MSG(cls.weight > 0, "function weight must be positive");
  st.cls = cls;
  st.bucket = cls.rate_hz > 0
                  ? std::make_unique<TokenBucket>(cls.rate_hz,
                                                  std::max(1.0, cls.burst),
                                                  sim_.now())
                  : nullptr;
  queue_.set_weight(function_id, cls.weight);
  if (auto* tel = sim_.telemetry()) {
    // Every configured function gets an SLI stream: the class deadline is
    // the completion objective (0 = goodput only), and the class tenant
    // labels the series for per-tenant burn-rate views.
    obs::SloTarget target;
    target.tenant = cls.tenant;
    target.objective = cls.deadline;
    tel->slo().configure(function_id, target);
  }
}

ClusterService::FunctionState& ClusterService::state_of(
    const std::string& function_id) {
  auto it = functions_.lower_bound(function_id);
  if (it == functions_.end() || it->first != function_id) {
    const auto& def = service_.function(function_id);  // throws on unknown ids
    it = functions_.emplace_hint(it, function_id, FunctionState{});
    it->second.id = &it->first;
    it->second.def = &def;
  }
  return it->second;
}

std::size_t ClusterService::admitted(const std::string& function_id) const {
  const auto it = functions_.find(function_id);
  return it != functions_.end() ? it->second.admitted : 0;
}

double ClusterService::service_estimate_s(const FunctionState& st) const {
  if (st.service_ewma_s > 0) return st.service_ewma_s;
  const double guess = st.cls.service_estimate.seconds();
  return guess > 0 ? guess : 1.0;
}

util::Duration ClusterService::predicted_wait() const {
  // Conservative until the first completion lands: an unknown service time
  // predicts zero wait rather than shedding on a guess.
  if (mean_service_s_ <= 0 || queue_.empty()) return util::Duration{};
  std::size_t slots = 0;
  for (const Endpoint* ep : service_.endpoints()) slots += ep->worker_slots();
  const double wait_s = static_cast<double>(queue_.size()) * mean_service_s_ /
                        static_cast<double>(std::max<std::size_t>(1, slots));
  return util::from_seconds(wait_s);
}

void ClusterService::shed(const Pending& p, ShedReason reason) {
  const std::string& function_id = *p.fn->id;
  const std::string reason_name = shed_reason_name(reason);
  ++stats_.shed;
  ++stats_.shed_by_reason[reason_name];
  p.record->state = faas::TaskRecord::State::kFailed;
  p.record->finished = sim_.now();
  p.record->error = "shed: " + reason_name;
  if (auto* tel = sim_.telemetry()) {
    obs::Counter*& counter =
        p.fn->shed_counters[static_cast<std::size_t>(reason)];
    if (counter == nullptr) {
      counter = &tel->metrics().counter(
          "federation_shed_total",
          {{"function", function_id}, {"reason", reason_name}});
    }
    counter->add();
    if (auto* tr = tel->tracer(); tr != nullptr && p.trace.active()) {
      // The refused interval becomes a "shed" child under the request root,
      // so shed requests decompose like served ones (segment "shed").
      tr->add_closed(p.trace.trace, p.trace.span, p.record->app, "shed",
                     p.enqueued, sim_.now(), "cluster:" + reason_name);
      tr->annotate(p.trace.span, "shed: " + reason_name);
      tr->close_span(p.trace.span);
    }
    tel->slo().record_shed(function_id, reason_name);
    if (auto* fr = tel->flight()) {
      fr->record("service", "shed", function_id + " " + reason_name,
                 p.trace.trace);
    }
  }
  if (p.on_settle) p.on_settle(*p.record);
  p.promise.set_exception(std::make_exception_ptr(
      ShedError(reason_name + " (" + function_id + ")")));
}

faas::AppHandle ClusterService::submit(const std::string& function_id,
                                       const std::string& executor_label,
                                       faas::SettleHook on_settle) {
  FunctionState& st = state_of(function_id);
  const faas::AppDef& app = **st.def;
  ++stats_.submitted;

  auto record = std::make_shared<faas::TaskRecord>();
  record->app = app.name;
  record->submitted = sim_.now();
  sim::Promise<faas::AppValue> promise(sim_);
  auto future = promise.future();
  Pending p{&st, executor_label, std::move(promise), record, sim_.now(), {},
            std::move(on_settle)};
  if (auto* tel = sim_.telemetry()) {
    if (auto* tr = tel->tracer()) {
      // The request root spans submit → settle and anchors the whole
      // cross-endpoint tree: squeue/wan/task children hang off it, and the
      // critical-path analyzer decomposes its extent. Opened before
      // admission so shed requests trace too. Site = routing policy, so
      // breakdowns group by policy; tenant = the function's SLO class.
      const auto trace = tr->begin_trace();
      const auto root = tr->open_span(trace, 0, app.name, "request",
                                      to_string(opts_.policy));
      if (!st.cls.tenant.empty()) tr->set_tenant(root, st.cls.tenant);
      p.trace = obs::TraceContext{trace, root};
      record->trace = p.trace;
    }
  }

  ShedReason reason{};
  bool refused = false;
  if (st.bucket && !st.bucket->try_take(sim_.now())) {
    reason = ShedReason::kRateLimit;
    refused = true;
  } else if (st.cls.max_queue > 0 &&
             queue_.queued(function_id) >= st.cls.max_queue) {
    reason = ShedReason::kQueueFull;
    refused = true;
  } else if (st.cls.deadline.ns > 0 && predicted_wait() > st.cls.deadline) {
    reason = ShedReason::kDeadline;
    refused = true;
  }
  if (refused) {
    shed(p, reason);
    return faas::AppHandle{std::move(future), std::move(record)};
  }

  ++stats_.admitted;
  ++st.admitted;
  if (auto* tel = sim_.telemetry()) {
    if (st.admitted_counter == nullptr) {  // don't latch — may install later
      st.admitted_counter = &tel->metrics().counter(
          "federation_admitted_total", {{"function", function_id}});
    }
    st.admitted_counter->add();
  }
  ++unsettled_;
  queue_.push(function_id, service_estimate_s(st), std::move(p));
  work_gate_.open();
  if (!pump_running_) {
    pump_running_ = true;
    sim_.spawn(pump(), "cluster-pump");
  }
  return faas::AppHandle{std::move(future), std::move(record)};
}

std::size_t ClusterService::credit_limit(const Endpoint& ep) const {
  const auto limit = static_cast<std::size_t>(
      static_cast<double>(ep.worker_slots()) * opts_.inflight_per_slot);
  return std::max<std::size_t>(1, limit);
}

std::size_t ClusterService::credits_used(const Endpoint& ep) const {
  const auto it = inflight_.find(&ep);
  return it != inflight_.end() ? it->second : 0;
}

Endpoint* ClusterService::choose_endpoint(const Pending& p) {
  // One pass over the name-ordered fleet (round-robin: in cycle order from
  // the cursor) keeps the best reachable and the best partitioned candidate
  // by (tier, score), lower is better; strict `<` keeps every tie at the
  // first candidate seen.
  //   round-robin   score = position in the cycle
  //   least-loaded  score = load per worker slot
  //   slo-aware     score = RTT + load × service estimate + cold start
  //   sticky        tier 0 holds the model, tier 1 is the function's last
  //                 endpoint, tier 2 the rest; score = load
  //
  // The partition rule: a partitioned endpoint's credit only counts when no
  // eligible endpoint is reachable. While any is up, waiting for one of its
  // credits beats parking work behind a WAN gate of unknown duration (see
  // test_federation_cluster's partition properties). Endpoints
  // mid-repartition or not serving p's function are never eligible: unlike
  // a WAN partition there is no "last resort" tier, since dispatching into
  // a draining GPU reset would strand the request, and the Repartitioner
  // reopens the credit gate via notify_endpoints_changed().
  const FunctionState& st = *p.fn;
  const faas::AppDef& app = **st.def;
  const double svc = service_estimate_s(st);
  const std::vector<Endpoint*>& fleet = service_.endpoints();
  const bool cycle = opts_.policy == ClusterPolicy::kRoundRobin;
  struct Best {
    Endpoint* ep = nullptr;
    std::size_t index = 0;
    int tier = 0;
    double score = 0;
  };
  Best reachable;
  Best partitioned;
  bool any_reachable = false;
  for (std::size_t hop = 0; hop < fleet.size(); ++hop) {
    const std::size_t i = cycle ? (round_robin_next_ + hop) % fleet.size() : hop;
    Endpoint* ep = fleet[i];
    if (ep->repartitioning() || !ep->serves(*st.id)) continue;
    const bool up = ep->reachable();
    any_reachable = any_reachable || up;
    const std::size_t used = credits_used(*ep);
    if (used >= credit_limit(*ep)) continue;
    const double slots =
        static_cast<double>(std::max<std::size_t>(1, ep->worker_slots()));
    const double load = static_cast<double>(used) / slots;
    int tier = 0;
    double score = load;
    if (cycle) {
      score = static_cast<double>(hop);
    } else if (opts_.policy == ClusterPolicy::kSticky) {
      const bool warm =
          app.model_bytes > 0 && ep->holds_model(app.effective_model_key());
      tier = warm ? 0 : ep == st.last_endpoint ? 1 : 2;
    } else if (opts_.policy == ClusterPolicy::kSloAware) {
      score = ep->rtt().seconds() + load * svc +
              ep->cold_start_estimate(app).seconds();
    }
    Best& best = up ? reachable : partitioned;
    if (best.ep == nullptr || tier < best.tier ||
        (tier == best.tier && score < best.score)) {
      best = Best{ep, i, tier, score};
    }
  }
  const Best& chosen = any_reachable ? reachable : partitioned;
  if (cycle && chosen.ep != nullptr) {
    // A reachable pick moves the cursor past it; a partitioned fallback
    // advances it by one.
    const std::size_t from = any_reachable ? chosen.index : round_robin_next_;
    round_robin_next_ = (from + 1) % fleet.size();
  }
  return chosen.ep;
}

void ClusterService::dispatch(Endpoint* ep, Pending p) {
  FunctionState& st = *p.fn;
  const faas::AppDef& app = **st.def;
  if (app.model_bytes > 0 && ep->holds_model(app.effective_model_key())) {
    ++stats_.sticky_hits;
  }
  if (ep->repartitioning()) ++stats_.mid_reset_dispatches;
  ++stats_.dispatched;
  ++inflight_[ep];
  st.last_endpoint = ep;

  if (auto* tel = sim_.telemetry()) {
    if (auto* tr = tel->tracer(); tr != nullptr && p.trace.active()) {
      // The service-queue wait (admission → dispatch) is only known in
      // hindsight; record it as a closed "squeue" child of the request root.
      tr->add_closed(p.trace.trace, p.trace.span, p.record->app, "squeue",
                     p.enqueued, sim_.now(), "service");
    }
    if (auto* fr = tel->flight()) {
      fr->record(ep->name(), "dispatch", *st.id, p.trace.trace);
    }
  }

  sim_.spawn(deliver(ep, std::move(p)), "cluster-deliver");
}

sim::Co<void> ClusterService::deliver(Endpoint* ep, Pending p) {
  const faas::AppHandle inner =
      co_await service_.call(*ep, *p.fn->def, p.executor_label, p.trace);
  // Adopt the endpoint-side execution observables but keep the cluster
  // submit time (so completion_time() includes the service-queue wait and
  // both WAN legs) and the request-root trace context, which closes here
  // with the request outcome.
  faas::TaskRecord& rec = *p.record;
  const auto cluster_submit = rec.submitted;
  rec = *inner.record;
  rec.submitted = cluster_submit;
  rec.trace = p.trace;
  if (p.on_settle) p.on_settle(rec);
  --inflight_[ep];
  credit_gate_.open();
  FunctionState& st = *p.fn;
  if (rec.state == faas::TaskRecord::State::kDone) {
    const double obs = rec.run_time().seconds();
    if (obs > 0) {
      st.service_ewma_s =
          st.service_ewma_s > 0
              ? opts_.ewma_alpha * obs + (1 - opts_.ewma_alpha) * st.service_ewma_s
              : obs;
      mean_service_s_ =
          mean_service_s_ > 0
              ? opts_.ewma_alpha * obs + (1 - opts_.ewma_alpha) * mean_service_s_
              : obs;
    }
  }
  const std::exception_ptr error = inner.future.error();
  if (auto* tel = sim_.telemetry()) {
    const auto latency = sim_.now() - cluster_submit;
    const bool failed = error != nullptr;
    const bool good =
        !failed && (st.cls.deadline.ns <= 0 || latency <= st.cls.deadline);
    if (auto* tr = tel->tracer(); tr != nullptr && p.trace.active()) {
      if (failed) {
        tr->annotate(p.trace.span, "failed");
      } else if (!good) {
        tr->annotate(p.trace.span, "deadline miss");
      }
      tr->close_span(p.trace.span);
    }
    tel->slo().record_latency(*st.id, latency, good);
    if (auto* fr = tel->flight()) {
      fr->record(ep->name(), "settle",
                 *st.id + (good ? " good" : failed ? " failed" : " late"),
                 p.trace.trace);
    }
  }
  if (error) {
    p.promise.set_exception(error);
  } else {
    p.promise.set_value(inner.future.value());
  }
  if (--unsettled_ == 0) all_settled_.open();
}

sim::Co<void> ClusterService::pump() {
  while (true) {
    if (queue_.empty()) {
      if (stopping_) break;
      work_gate_.close();
      co_await work_gate_.wait();
      continue;
    }
    // Shed queued requests whose deadline already passed — dispatching
    // them would burn an endpoint credit on a guaranteed SLO miss.
    const Pending& head = queue_.peek();
    const FunctionState& st = *head.fn;
    if (st.cls.deadline.ns > 0 && head.enqueued + st.cls.deadline <= sim_.now()) {
      const Pending expired = queue_.pop(*st.id);
      shed(expired, ShedReason::kExpired);
      if (--unsettled_ == 0) all_settled_.open();
      continue;
    }
    Endpoint* ep = choose_endpoint(head);
    if (ep == nullptr) {
      credit_gate_.close();
      co_await credit_gate_.wait();
      continue;  // re-check expiry: the head may have aged past its deadline
    }
    dispatch(ep, queue_.pop(*st.id));
  }
  pump_running_ = false;
}

sim::Co<void> ClusterService::shutdown() {
  stopping_ = true;
  work_gate_.open();
  // Admitted requests settle as the pump drains; admissions during the wait
  // re-arm it.
  while (unsettled_ > 0) {
    all_settled_.close();
    co_await all_settled_.wait();
  }
  co_await service_.shutdown();
}

}  // namespace faaspart::federation
