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

/// An active trace context hangs "wan-out" / "wan-back" spans off the
/// upstream request root — partition stalls show up as inflated WAN legs,
/// exactly where the latency was spent.
sim::Co<faas::AppHandle> ComputeService::call(
    Endpoint& ep, const std::shared_ptr<const faas::AppDef>& app,
    const std::string& executor_label, obs::TraceContext parent) {
  ep.count_dispatch();
  const auto tracer = [this, parent]() -> obs::Tracer* {
    if (!parent.active()) return nullptr;
    auto* tel = sim_.telemetry();
    return tel != nullptr ? tel->tracer() : nullptr;
  };
  // A WAN partition (faults::FaultKind::kWanPartition) delays traffic rather
  // than dropping it: each leg waits for the link before paying its half-RTT.
  const auto out_start = sim_.now();
  co_await ep.wan_gate().wait();
  co_await sim_.delay(ep.rtt() * 0.5);
  if (auto* tr = tracer()) {
    tr->add_closed(parent.trace, parent.span, app->name, "wan-out", out_start,
                   sim_.now(), ep.name());
  }
  faas::AppHandle inner = ep.dfk().submit(app, executor_label, parent);
  try {
    (void)co_await inner.future;
  } catch (...) {
    // The error stays in the settled future the caller reads.
  }
  const auto back_start = sim_.now();
  co_await ep.wan_gate().wait();
  co_await sim_.delay(ep.rtt() * 0.5);  // result's way back over the WAN
  if (auto* tr = tracer()) {
    tr->add_closed(parent.trace, parent.span, app->name, "wan-back", back_start,
                   sim_.now(), ep.name());
  }
  co_return inner;
}

std::map<std::string, std::size_t> ComputeService::dispatch_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const Endpoint* ep : fleet_) {
    if (ep->dispatches() > 0) counts.emplace_hint(counts.end(), ep->name(), ep->dispatches());
  }
  return counts;
}

sim::Co<void> ComputeService::shutdown() {
  for (auto& [name, ep] : endpoints_) {
    co_await ep->dfk().shutdown();
  }
}

}  // namespace faaspart::federation
