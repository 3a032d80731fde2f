// DisaggLlmServer — prefill/decode disaggregation (DESIGN.md §14).
//
// DistServe-style pool separation on one MIG-partitioned GPU: prompt
// ingestion (compute-bound GEMMs) runs on a pool of prefill instances,
// token generation (bandwidth-bound batched decode) on a pool of decode
// instances running ServingEngine in decode-only mode. The two phases stop
// interfering: a long prompt no longer stalls every co-resident decode
// iteration (TTFT and TPOT decouple).
//
// The handoff is the price: a prefilled context's KV pages move to the
// decode pool over the host link (arch.host_link_bw), modelled as a fixed
// 200 µs plus bytes/bandwidth delay before the decode engine adopts the
// sequence (adopt_prefilled reserves its pages on arrival). Decode-side
// preemptions flow back here for re-prefill (copy-free eviction means
// recompute).
//
// The server queues whatever it is handed: rate limits, queue caps and
// deadlines belong to the federation front door (federation/cluster.hpp).
//
// relayout() re-partitions the pools online — drain, MIG reset, rebuild —
// and is what the PoolBalancer (balance.hpp) drives from planner output.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "sim/co.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace faaspart::serve {

/// One pool's MIG shape: how many instances of which profile.
struct PoolSpec {
  std::string profile = "3g.40gb";
  int instances = 1;

  friend bool operator==(const PoolSpec&, const PoolSpec&) = default;
};

struct DisaggConfig {
  workloads::LlamaSpec spec = workloads::llama2_7b();
  workloads::LlamaRunConfig run = workloads::serving_config();
  /// Template for the decode engines (spec/run/inline_prefill/
  /// external_requeue are overridden per instance).
  EngineConfig engine;

  PoolSpec prefill{"3g.40gb", 1};
  PoolSpec decode{"4g.40gb", 1};
};

struct DisaggStats {
  std::uint64_t submitted = 0;
  std::uint64_t prefill_tokens = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t requeues = 0;       ///< contexts sent back for re-prefill
  std::uint64_t relayouts = 0;      ///< pool re-partitions applied
  std::uint64_t device_errors = 0;  ///< prefill-side faults survived
};

class DisaggLlmServer {
 public:
  /// Enables MIG (the device must have no live contexts), carves both pools
  /// and starts their engines and prefill workers — the server accepts
  /// submissions as soon as it is constructed.
  DisaggLlmServer(sim::Simulator& sim, gpu::Device& dev, DisaggConfig cfg,
                  std::string name = "disagg");
  ~DisaggLlmServer();
  DisaggLlmServer(const DisaggLlmServer&) = delete;
  DisaggLlmServer& operator=(const DisaggLlmServer&) = delete;

  sim::Future<RequestOutcome> submit(LlmRequest req);

  /// Re-partitions the pools: stops the prefill workers, drains and shuts
  /// down the decode engines, destroys every instance, pays the MIG reset,
  /// rebuilds with the new shapes. Requests keep queueing at the front door
  /// throughout; in-flight decode work finishes before the reset (nothing
  /// decodes mid-reset — chaos-tested).
  sim::Co<void> relayout(PoolSpec prefill, PoolSpec decode);

  [[nodiscard]] const DisaggStats& stats() const { return stats_; }
  [[nodiscard]] const DisaggConfig& config() const { return cfg_; }
  [[nodiscard]] const PoolSpec& prefill_spec() const { return cfg_.prefill; }
  [[nodiscard]] const PoolSpec& decode_spec() const { return cfg_.decode; }
  [[nodiscard]] gpu::Device& device() { return dev_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<std::unique_ptr<ServingEngine>>&
  decode_engines() const {
    return decode_engines_;
  }

 private:
  struct PrefillSlot {
    gpu::InstanceId inst = 0;
    gpu::ContextId ctx = 0;
    gpu::AllocationId weights = 0;
  };

  void build_pools();
  sim::Co<void> teardown_pools();
  sim::Co<void> worker(int generation, std::size_t slot_index);
  sim::Co<void> run_prefill(PrefillSlot& slot, ServedRequestPtr r);
  [[nodiscard]] ServingEngine* pick_decode(int context_tokens);
  void requeue_front(ServedRequestPtr r);

  sim::Simulator& sim_;
  gpu::Device& dev_;
  DisaggConfig cfg_;
  std::string name_;

  std::deque<ServedRequestPtr> queue_;  ///< awaiting (re-)prefill, FCFS
  sim::Gate queue_gate_;

  std::vector<std::unique_ptr<PrefillSlot>> prefill_slots_;
  std::vector<gpu::InstanceId> decode_instances_;
  std::vector<std::unique_ptr<ServingEngine>> decode_engines_;

  int generation_ = 0;  ///< bumped per relayout; stale workers exit
  int workers_live_ = 0;
  sim::Gate workers_dead_;
  bool paused_ = false;  ///< relayout in progress: workers park, adopts defer

  RequestId next_request_id_ = 1;
  DisaggStats stats_;
};

}  // namespace faaspart::serve
