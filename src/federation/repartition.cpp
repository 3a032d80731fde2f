#include "federation/repartition.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::federation {

namespace {

/// Poll step while waiting for an evicted tenant's executor to drain.
constexpr util::Duration kDrainPoll = util::milliseconds(10);

bool placed_in(const core::GpuLayout& layout, const std::string& function_id) {
  for (const auto& p : layout.placements) {
    if (p.function == function_id) return true;
  }
  return false;
}

}  // namespace

Repartitioner::Repartitioner(sim::Simulator& sim, ClusterService& cluster,
                             std::vector<RepartitionTenant> tenants,
                             RepartitionerOptions opts)
    : sim_(sim), cluster_(cluster), tenants_(std::move(tenants)), opts_(opts) {
  FP_CHECK_MSG(!tenants_.empty(), "repartitioner needs tenants");
  FP_CHECK_MSG(opts_.interval.ns > 0, "repartition interval must be positive");
  for (std::size_t i = 1; i < tenants_.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      FP_CHECK_MSG(tenants_[i].function_id != tenants_[j].function_id,
                   "duplicate repartition tenant");
    }
  }
  last_admitted_.assign(tenants_.size(), 0);
}

void Repartitioner::add_endpoint(Endpoint& ep) {
  FP_CHECK_MSG(ep.devices().device_count() >= 1,
               "repartition endpoint needs a GPU");
  for (const auto& t : tenants_) {
    FP_CHECK_MSG(ep.gpu_executor(t.executor_label).worker_count() == 1,
                 "repartition tenants need single-worker GPU executors");
  }
  endpoints_.push_back(&ep);
}

std::size_t Repartitioner::applies() const {
  std::size_t n = 0;
  for (const auto& c : cycles_) n += c.applied ? 1 : 0;
  return n;
}

void Repartitioner::bootstrap_current() {
  const auto& arch = endpoints_.front()->devices().device(0).arch();
  std::vector<std::pair<std::string, std::string>> assignments;
  for (const auto& t : tenants_) {
    if (!t.initial_profile.empty()) {
      assignments.emplace_back(t.function_id, t.initial_profile);
    }
  }
  current_.gpus.assign(endpoints_.size(),
                       core::layout_from_profiles(arch, assignments));
}

void Repartitioner::count_cycle(const char* outcome) {
  if (auto* tel = sim_.telemetry()) {
    const obs::Labels labels{{"outcome", outcome}};
    // faaspart-lint: allow(O1) -- cold path: one optimizer cycle per
    // interval (tens of simulated seconds), plan churn is the metric
    tel->metrics().counter("repartition_cycles_total", labels).add();
  }
}

sim::Co<void> Repartitioner::run(util::TimePoint deadline) {
  if (!opts_.enabled || endpoints_.empty()) co_return;
  bootstrap_current();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    last_admitted_[i] = cluster_.admitted(tenants_[i].function_id);
  }
  last_at_ = sim_.now();
  while (sim_.now() + opts_.interval < deadline) {
    co_await sim_.delay(opts_.interval);
    co_await run_cycle(sim_.now());
  }
}

sim::Co<void> Repartitioner::run_cycle(util::TimePoint plan_start) {
  const double elapsed = (plan_start - last_at_).seconds();
  if (elapsed <= 0) co_return;

  RepartitionCycle cycle;
  cycle.at = plan_start;
  std::vector<core::FunctionDemand> demands;
  demands.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const RepartitionTenant& t = tenants_[i];
    const std::size_t admitted = cluster_.admitted(t.function_id);
    const double rate =
        static_cast<double>(admitted - last_admitted_[i]) / elapsed;
    last_admitted_[i] = admitted;
    cycle.rates_hz.push_back(rate);
    core::FunctionDemand d;
    d.name = t.function_id;
    d.rate_hz = rate;
    d.memory = t.memory;
    d.scores = t.scores;
    demands.push_back(std::move(d));
  }
  last_at_ = plan_start;

  const auto& arch = endpoints_.front()->devices().device(0).arch();
  cycle.plan = core::plan_fleet(arch, static_cast<int>(endpoints_.size()),
                                demands, current_, opts_.planner);

  obs::Tracer* tr = nullptr;
  if (auto* tel = sim_.telemetry()) tr = tel->tracer();
  std::uint64_t trace = 0;
  std::uint64_t root = 0;
  if (tr != nullptr) {
    // One control-plane trace per optimizer cycle: a repartition root, a
    // plan child for the decision, an apply child per relayouted device.
    trace = tr->begin_trace();
    root = tr->open_span(trace, 0, "repartition", "repartition",
                         "repartitioner");
    tr->add_closed(trace, root, "plan", "plan", plan_start, sim_.now(),
                   cycle.plan.reason);
  }

  if (cycle.plan.apply) {
    // A plan that leaves any tenant with no instance anywhere would strand
    // its traffic behind set_serving(false) on every endpoint — the planner
    // seeds presence, so this can only mean mis-wired tenants.
    for (const auto& t : tenants_) {
      bool anywhere = false;
      for (const auto& g : cycle.plan.plan.gpus) {
        anywhere = anywhere || placed_in(g, t.function_id);
      }
      FP_CHECK_MSG(anywhere, "plan drops a tenant from the whole fleet");
    }
    for (std::size_t g = 0; g < endpoints_.size(); ++g) {
      const bool same = g < current_.gpus.size() &&
                        current_.gpus[g] == cycle.plan.plan.gpus[g];
      if (same) continue;
      co_await apply_endpoint(g, cycle.plan.plan.gpus[g], cycle, trace, root);
      ++cycle.endpoints_changed;
    }
    current_ = cycle.plan.plan;
    cycle.applied = true;
  }
  count_cycle(cycle.plan.reason.c_str());
  if (tr != nullptr) {
    tr->annotate(root, cycle.plan.reason);
    tr->close_span(root);
  }
  cycles_.push_back(std::move(cycle));
}

sim::Co<void> Repartitioner::apply_endpoint(std::size_t g,
                                            const core::GpuLayout& layout,
                                            RepartitionCycle& cycle,
                                            std::uint64_t trace,
                                            std::uint64_t root) {
  Endpoint& ep = *endpoints_[g];
  const util::TimePoint start = sim_.now();
  ep.begin_repartition();

  // Tenants the new layout evicts stay parked after the reset, so any task
  // still queued on their executor would strand: wait for them to drain.
  // Routing stopped at begin_repartition(), so outstanding only shrinks.
  for (const auto& t : tenants_) {
    if (placed_in(layout, t.function_id)) continue;
    auto& ex = ep.gpu_executor(t.executor_label);
    while (ex.outstanding() > 0) {
      co_await sim_.delay(kDrainPoll);
    }
  }

  std::vector<core::Reconfigurer::TenantLayout> layouts;
  layouts.reserve(tenants_.size());
  for (const auto& t : tenants_) {
    core::Reconfigurer::TenantLayout tl;
    tl.executor = &ep.gpu_executor(t.executor_label);
    for (const auto& p : layout.placements) {
      if (p.function == t.function_id) tl.profiles.push_back(p.profile);
    }
    layouts.push_back(std::move(tl));
  }
  const core::ReconfigureReport report = co_await ep.reconfigurer().change_device_layout(
      std::move(layouts), /*device_index=*/0, ep.weight_cache());
  if (report.degraded) ++cycle.degraded;

  for (const auto& t : tenants_) {
    ep.set_serving(t.function_id, placed_in(layout, t.function_id));
  }
  ep.end_repartition();
  cluster_.notify_endpoints_changed();

  if (auto* tel = sim_.telemetry()) {
    if (auto* tr = tel->tracer(); tr != nullptr && root != 0) {
      tr->add_closed(trace, root, ep.name(), "apply", start, sim_.now(),
                     report.achieved);
    }
  }
}

}  // namespace faaspart::federation
