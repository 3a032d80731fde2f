// Federated serving — the Globus Compute picture the paper sits inside
// (§2.2): functions registered once with a cloud service, executed on
// user-deployed endpoints. Here two heterogeneous endpoints (an HPC site
// with two partitioned A100s, a nearby edge box with one) serve the same
// LLaMa-2 chat function; ClusterService queues the requests and routes each
// one by load, and the client only ever talks to the service.
#include <iostream>

#include "federation/cluster.hpp"
#include "trace/stats.hpp"
#include "trace/table.hpp"
#include "util/strings.hpp"
#include "workloads/llama.hpp"

using namespace faaspart;
using namespace util::literals;

int main() {
  sim::Simulator sim;
  federation::ComputeService service(sim);

  // --- endpoint 1: HPC site, 2x A100-80GB, each split for two tenants ----
  {
    federation::Endpoint::Options opts;
    opts.name = "hpc-site";
    opts.cpu_cores = 24;
    opts.rtt = 60_ms;  // across the WAN
    opts.gpus = {gpu::arch::a100_80gb(), gpu::arch::a100_80gb()};
    auto& ep = service.register_endpoint(
        std::make_unique<federation::Endpoint>(sim, std::move(opts)));
    faas::HtexConfig cfg;
    cfg.label = "llm";
    cfg.available_accelerators = {"0", "0", "1", "1"};
    cfg.gpu_percentages = {50, 50, 50, 50};
    ep.add_gpu_executor(cfg);
  }

  // --- endpoint 2: edge box, 1x A100-40GB, single worker -----------------
  {
    federation::Endpoint::Options opts;
    opts.name = "edge-box";
    opts.cpu_cores = 8;
    opts.rtt = 8_ms;  // close to the users
    opts.gpus = {gpu::arch::a100_sxm4_40gb()};
    auto& ep = service.register_endpoint(
        std::make_unique<federation::Endpoint>(sim, std::move(opts)));
    faas::HtexConfig cfg;
    cfg.label = "llm";
    cfg.available_accelerators = {"0"};
    ep.add_gpu_executor(cfg);
  }

  // --- one function, registered once --------------------------------------
  const auto fn = service.register_function(workloads::make_llama_completion_app(
      "chat", workloads::llama2_7b(), workloads::serving_config(), {64, 48}));

  // --- 40 requests, least-loaded routing -----------------------------------
  federation::ClusterService cluster(
      sim, service, {.policy = federation::ClusterPolicy::kLeastLoaded});
  std::vector<faas::AppHandle> handles;
  for (int i = 0; i < 40; ++i) handles.push_back(cluster.submit(fn, "llm"));
  sim.spawn(cluster.shutdown());
  sim.run();

  std::size_t failures = 0;
  std::vector<double> completions;
  for (const auto& h : handles) {
    if (h.record->state != faas::TaskRecord::State::kDone) {
      ++failures;
      continue;
    }
    completions.push_back(h.record->completion_time().seconds());
  }
  const auto summary = trace::summarize(std::move(completions));

  trace::Table table({"endpoint", "requests served"});
  for (const auto& [name, count] : service.dispatch_counts()) {
    table.add_row({name, std::to_string(count)});
  }
  table.print(std::cout);
  std::cout << "\n40 requests, " << failures << " failures; completion mean "
            << util::fixed(summary.mean, 1) << " s, p95 "
            << util::fixed(summary.p95, 1)
            << " s (includes WAN dispatch and queueing)\n"
            << "total virtual time: "
            << util::format_duration(sim.now() - util::TimePoint{}) << "\n";
  return 0;
}
