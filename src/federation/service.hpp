// ComputeService — the cloud side of Globus Compute (§2.2): users register
// functions once, and each invocation is carried over the WAN to an
// endpoint. Each hop pays the endpoint's WAN RTT (half on dispatch, half on
// the result's way back). Choosing the endpoint is ClusterService's job
// (federation/cluster.hpp).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faas/app.hpp"
#include "federation/endpoint.hpp"

namespace faaspart::federation {

class ComputeService {
 public:
  explicit ComputeService(sim::Simulator& sim) : sim_(sim) {}

  /// Registers an endpoint; its name becomes the routing key.
  Endpoint& register_endpoint(std::unique_ptr<Endpoint> endpoint);

  [[nodiscard]] Endpoint& endpoint(const std::string& name);
  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }
  [[nodiscard]] std::vector<std::string> endpoint_names() const;
  /// Every endpoint in name order — the fleet view routing iterates without
  /// a lookup per endpoint.
  [[nodiscard]] const std::vector<Endpoint*>& endpoints() const { return fleet_; }

  /// Registers a function; returns its id (Globus Compute's function UUID).
  /// The definition is stored once and shared, never copied: every task of
  /// the function, on every endpoint, runs this one body, just as every
  /// retry of a task already does. State the body captures is therefore
  /// shared by all of its tasks.
  std::string register_function(faas::AppDef app);

  /// The registered definition; throws util::NotFoundError on unknown ids.
  /// The registry never drops an entry, so the reference stays valid for
  /// the service's lifetime.
  [[nodiscard]] const std::shared_ptr<const faas::AppDef>& function(
      const std::string& function_id) const;

  /// Carries one invocation of registered function `app` to `ep`'s executor
  /// and back: waits for the WAN link and half the RTT, submits to the
  /// endpoint's DataFlowKernel, awaits the result, pays the return leg the
  /// same way, and returns the endpoint's handle, settled with the value or
  /// the execution error. An active `parent` context threads an upstream
  /// trace (the cluster request root) through the WAN legs and the
  /// endpoint-side task tree. `app` (an entry of this registry, from
  /// function()) and `executor_label` must outlive the call.
  sim::Co<faas::AppHandle> call(Endpoint& ep,
                                const std::shared_ptr<const faas::AppDef>& app,
                                const std::string& executor_label,
                                obs::TraceContext parent);

  /// Shuts down every endpoint's DataFlowKernel, each after its tasks
  /// settle. Calls still on the WAN are their caller's to wait for.
  sim::Co<void> shutdown();

  /// Dispatch counts per endpoint (routing observability), built from the
  /// endpoints' own counts; endpoints never dispatched to are left out.
  [[nodiscard]] std::map<std::string, std::size_t> dispatch_counts() const;

 private:
  sim::Simulator& sim_;
  std::map<std::string, std::unique_ptr<Endpoint>> endpoints_;
  std::vector<Endpoint*> fleet_;  ///< endpoints_ in name order
  std::map<std::string, std::shared_ptr<const faas::AppDef>> functions_;
  std::uint64_t next_function_ = 1;
};

}  // namespace faaspart::federation
