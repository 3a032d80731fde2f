#include "federation/service.hpp"

#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::federation {

Endpoint& ComputeService::register_endpoint(std::unique_ptr<Endpoint> endpoint) {
  FP_CHECK(endpoint != nullptr);
  const std::string name = endpoint->name();
  const auto [it, inserted] = endpoints_.emplace(name, std::move(endpoint));
  if (!inserted) {
    throw util::ConfigError(util::strf("duplicate endpoint '", name, "'"));
  }
  fleet_.clear();
  for (const auto& entry : endpoints_) fleet_.push_back(entry.second.get());
  return *it->second;
}

Endpoint& ComputeService::endpoint(const std::string& name) {
  const auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    throw util::NotFoundError(util::strf("endpoint '", name, "'"));
  }
  return *it->second;
}

std::vector<std::string> ComputeService::endpoint_names() const {
  std::vector<std::string> out;
  out.reserve(endpoints_.size());
  for (const auto& [name, ep] : endpoints_) out.push_back(name);
  return out;
}

std::string ComputeService::register_function(faas::AppDef app) {
  FP_CHECK_MSG(static_cast<bool>(app.body), "function needs a body");
  const std::string id = util::strf("fn-", next_function_++, "-", app.name);
  functions_.emplace(id, std::make_shared<const faas::AppDef>(std::move(app)));
  return id;
}

const std::shared_ptr<const faas::AppDef>& ComputeService::function(
    const std::string& function_id) const {
  const auto it = functions_.find(function_id);
  if (it == functions_.end()) {
    throw util::NotFoundError(util::strf("function '", function_id, "'"));
  }
  return it->second;
}

/// Dispatch leg: wait half the RTT, submit at the endpoint, await the
/// result, wait the return leg, settle the outer promise. An active trace
/// context hangs "wan-out" / "wan-back" spans off the upstream request root
/// — partition stalls show up as inflated WAN legs, exactly where the
/// latency was spent.
sim::Co<void> ComputeService::wan_task(Endpoint* ep,
                                       std::shared_ptr<const faas::AppDef> app,
                                       std::string executor_label,
                                       sim::Promise<faas::AppValue> outer,
                                       std::shared_ptr<faas::TaskRecord> record,
                                       obs::TraceContext parent) {
  const std::string& app_name = app->name;  // `app` lives as long as this frame
  const auto tracer = [this, parent]() -> obs::Tracer* {
    if (!parent.active()) return nullptr;
    auto* tel = sim_.telemetry();
    return tel != nullptr ? tel->tracer() : nullptr;
  };
  // A WAN partition (faults::FaultKind::kWanPartition) delays traffic rather
  // than dropping it: each leg waits for the link before paying its half-RTT.
  const auto out_start = sim_.now();
  co_await ep->wan_gate().wait();
  co_await sim_.delay(ep->rtt() * 0.5);
  if (auto* tr = tracer()) {
    tr->add_closed(parent.trace, parent.span, app_name, "wan-out", out_start,
                   sim_.now(), ep->name());
  }
  faas::AppHandle inner = ep->dfk().submit(app, executor_label, parent);
  faas::AppValue value;
  std::exception_ptr error;
  try {
    value = co_await inner.future;
  } catch (...) {
    error = std::current_exception();
  }
  const auto back_start = sim_.now();
  co_await ep->wan_gate().wait();
  co_await sim_.delay(ep->rtt() * 0.5);  // result's way back over the WAN
  if (auto* tr = tracer()) {
    tr->add_closed(parent.trace, parent.span, app_name, "wan-back", back_start,
                   sim_.now(), ep->name());
  }
  // Adopt the endpoint-side execution observables (started/finished bound
  // the actual run, so run_time stays endpoint-local) but keep the
  // service-side identity, submission time, and trace context. The return
  // WAN leg is visible through the outer future's settle time.
  const auto submitted = record->submitted;
  const auto executor = record->executor;
  const auto trace_ctx = record->trace;
  *record = *inner.record;
  record->submitted = submitted;
  record->executor = executor;
  record->trace = trace_ctx;
  if (error) {
    outer.set_exception(error);
  } else {
    outer.set_value(std::move(value));
  }
  if (--unsettled_ == 0) all_settled_.open();
}

faas::AppHandle ComputeService::submit(const std::string& function_id,
                                       const std::string& endpoint_name,
                                       const std::string& executor_label,
                                       obs::TraceContext parent) {
  const std::shared_ptr<const faas::AppDef>& app = function(function_id);
  Endpoint& ep = endpoint(endpoint_name);
  ++tasks_submitted_;
  ++dispatch_counts_[ep.name()];
  if (auto* tel = sim_.telemetry()) {
    auto [it, inserted] = dispatch_counters_.try_emplace(ep.name(), nullptr);
    if (inserted) {
      it->second = &tel->metrics().counter("federation_dispatches_total",
                                           {{"endpoint", ep.name()}});
    }
    it->second->add();
  }
  auto record = std::make_shared<faas::TaskRecord>();
  record->app = app->name;
  record->executor = ep.name() + "/" + executor_label;
  record->submitted = sim_.now();
  record->trace = parent;  // service-side identity: the upstream request root
  sim::Promise<faas::AppValue> outer(sim_);
  auto future = outer.future();
  ++unsettled_;
  sim_.spawn(wan_task(&ep, app, executor_label, std::move(outer), record, parent),
             "wan-task@" + ep.name());
  return faas::AppHandle{std::move(future), std::move(record)};
}

sim::Co<void> ComputeService::shutdown() {
  // Settle submitted tasks first — a WAN dispatch leg may not have reached
  // its endpoint executor yet. Submissions during the wait re-arm it.
  while (unsettled_ > 0) {
    all_settled_.close();
    co_await all_settled_.wait();
  }
  for (auto& [name, ep] : endpoints_) {
    co_await ep->dfk().shutdown();
  }
}

}  // namespace faaspart::federation
