// PoolBalancer — planner-driven online re-partitioning of the prefill and
// decode pools (DESIGN.md §14).
//
// The disaggregated server's two pools are just two "functions" to the
// partition planner: "prefill" demands the request arrival rate with
// compute-bound GEMM scores, "decode" demands the same rate with scores
// from the batched-decode step time and each profile's KV capacity (which
// caps the sustainable batch). The balancer feeds both to core::plan_fleet
// over one GPU and reads the pool shapes back out of the winning layout —
// the same reset-cost amortization that gates the cluster Repartitioner
// decides whether flipping the pools is worth a MIG reset.
//
// PoolBalancer is the thin online applier: every interval it estimates the
// arrival rate from the server's counters, replans, and calls
// DisaggLlmServer::relayout() when the planner says apply.
#pragma once

#include <cstdint>

#include "serve/disagg.hpp"

namespace faaspart::serve {

class PoolBalancer {
 public:
  struct Options {
    util::Duration interval = util::from_seconds(30);
    /// Stop ticking this long after start(); must be positive so the
    /// balancer process cannot keep the simulation alive forever.
    util::Duration horizon = util::from_seconds(300);
    double mean_prompt = 128;
    double mean_output = 100;
  };

  PoolBalancer(DisaggLlmServer& server, Options opts);

  void start();

 private:
  sim::Co<void> loop();

  DisaggLlmServer& server_;
  Options opts_;
  bool started_ = false;
  std::uint64_t last_submitted_ = 0;
};

}  // namespace faaspart::serve
