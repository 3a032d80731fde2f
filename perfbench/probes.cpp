// Layer probes: each drives one layer's public API in isolation at the
// operating point the traced run measured for its workload, and returns the
// median host ns per operation over a few batches.
#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "federation/wfq.hpp"
#include "gpu/device.hpp"
#include "gpu/kv_pager.hpp"
#include "harness.hpp"
#include "sched/engines.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"
#include "workloads/dnn.hpp"

namespace faasbench {

using namespace faaspart;

namespace {

constexpr int kBatches = 5;

double param(const std::map<std::string, double>& params, const std::string& key) {
  const auto it = params.find(key);
  if (it == params.end()) throw std::invalid_argument("probe needs --" + key);
  return it->second;
}

/// Median over kBatches of (host seconds per batch / ops per batch), in ns.
/// `batch` runs one batch and returns {cpu seconds, ops}.
double median_ns(const std::function<std::pair<double, double>()>& batch) {
  std::vector<double> ns;
  for (int i = 0; i < kBatches; ++i) {
    const auto [secs, ops] = batch();
    ns.push_back(1e9 * secs / ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// -- sim: schedule / step / cancel churn at a fixed pending depth ------------

struct Churn {
  sim::Simulator& sim;
  util::Rng rng;
  std::uint64_t fired = 0;

  util::Duration next_delay() { return util::from_seconds(rng.exponential(1e-3)); }
  void fire() {
    ++fired;
    sim.schedule_in(next_delay(), [this] { fire(); });
    if (fired % 4 == 0) {  // a replan-style reschedule: cancel a fresh event
      sim.cancel(sim.schedule_in(next_delay(), [this] { fire(); }));
    }
  }
};

double probe_sim(int depth) {
  constexpr int kSteps = 200000;
  return median_ns([depth] {
    sim::Simulator sim;
    Churn churn{sim, util::Rng(7)};
    for (int i = 0; i < depth; ++i) sim.schedule_in(churn.next_delay(), [&churn] { churn.fire(); });
    const double t0 = cpu_now();
    for (int i = 0; i < kSteps; ++i) sim.step();
    return std::pair{cpu_now() - t0, static_cast<double>(kSteps)};
  });
}

// -- sched: MPS kernel submit → complete at a fixed running-kernel count ------

sim::Co<void> launcher(gpu::Device& dev, gpu::ContextId ctx,
                       const std::vector<gpu::KernelDesc>& kernels, int n) {
  for (int i = 0; i < n; ++i) {
    co_await dev.launch(ctx, kernels[static_cast<std::size_t>(i) % kernels.size()]);
  }
}

double probe_sched(int concurrency) {
  constexpr int kKernels = 40000;
  const auto kernels = workloads::models::resnet50().inference_kernels(8);
  return median_ns([&] {
    sim::Simulator sim;
    gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory());
    const int per_ctx = kKernels / concurrency;
    for (int c = 0; c < concurrency; ++c) {
      gpu::ContextOptions copts;
      copts.active_thread_percentage = 50;
      const gpu::ContextId ctx = dev.create_context("probe" + std::to_string(c), copts);
      sim.spawn(launcher(dev, ctx, kernels, per_ctx), "launcher");
    }
    const double t0 = cpu_now();
    sim.run();
    return std::pair{cpu_now() - t0, static_cast<double>(per_ctx * concurrency)};
  });
}

// -- federation: WFQ push + pop at a fixed backlog over N flows ---------------

double probe_wfq(int flows, int depth) {
  constexpr int kOps = 200000;
  std::vector<std::string> names;
  for (int f = 0; f < flows; ++f) names.push_back("fn-" + std::to_string(f + 1) + "-probe");
  return median_ns([&] {
    federation::WfqScheduler<int> q;
    for (int f = 0; f < flows; ++f) q.set_weight(names[static_cast<std::size_t>(f)], 1.0 + f % 2);
    int next = 0;
    const auto push = [&] {
      const int f = next++ % flows;
      q.push(names[static_cast<std::size_t>(f)], 0.1 + 0.05 * f, f);
    };
    for (int i = 0; i < depth; ++i) push();
    const double t0 = cpu_now();
    for (int i = 0; i < kOps; ++i) {
      push();
      const int f = q.peek();
      (void)q.pop(names[static_cast<std::size_t>(f)]);
    }
    return std::pair{cpu_now() - t0, static_cast<double>(kOps)};
  });
}

// -- gpu: KvPager token-by-token grow, then release, beside resident pages ----

double probe_kv(int total_pages, int page_tokens, int resident_pages) {
  constexpr int kSequences = 2000;
  constexpr int kContext = 264;  // mean prompt + output of the paragraph mix
  gpu::KvPagerConfig cfg;
  cfg.page_tokens = page_tokens;
  cfg.bytes_per_token = 1;
  cfg.capacity = static_cast<util::Bytes>(total_pages) * page_tokens;
  cfg.admit_watermark = 1.0;
  return median_ns([&] {
    gpu::KvPager pager(cfg);
    const int room = pager.total_pages() - pager.pages_for_tokens(kContext);
    const int resident = std::clamp(resident_pages, 0, std::max(0, room));
    while (pager.used_pages() + 16 <= resident) {
      const gpu::KvSeqId id = pager.create("resident");
      pager.grow(id, 16 * page_tokens);
    }
    double ops = 0;
    const double t0 = cpu_now();
    for (int s = 0; s < kSequences; ++s) {
      const gpu::KvSeqId id = pager.create("probe");
      for (int t = 1; t <= kContext; ++t) {
        if (!pager.grow(id, t)) throw std::runtime_error("kv probe: pool exhausted");
      }
      pager.release(id);
      ops += kContext + 2;
    }
    return std::pair{cpu_now() - t0, ops};
  });
}

// -- trace: one kernel span per record, labelled as the engines label them ----

double probe_recorder() {
  constexpr int kRecords = 200000;
  const auto kernels = workloads::models::resnet50().inference_kernels(8);
  const std::string clients[] = {"llama", "resnet"};
  return median_ns([&] {
    trace::Recorder rec;
    const trace::LaneId lane = rec.add_lane("gpu0");
    util::TimePoint t{};
    const double t0 = cpu_now();
    for (int i = 0; i < kRecords; ++i) {
      const gpu::KernelDesc& k = kernels[static_cast<std::size_t>(i) % kernels.size()];
      const util::TimePoint end = t + util::microseconds(50);
      rec.record(lane, clients[i % 2] + "/" + k.name,
                 std::string("kernel:") + gpu::kernel_kind_name(k.kind), t, end);
      t = end;
    }
    return std::pair{cpu_now() - t0, static_cast<double>(kRecords)};
  });
}

int at_least_one(double v) { return std::max(1, static_cast<int>(std::lround(v))); }

}  // namespace

double run_probe(const std::string& kind, const std::map<std::string, double>& params) {
  if (kind == "sim") return probe_sim(at_least_one(param(params, "depth")));
  if (kind == "sched") return probe_sched(at_least_one(param(params, "concurrency")));
  if (kind == "wfq") {
    return probe_wfq(at_least_one(param(params, "flows")),
                     static_cast<int>(std::lround(param(params, "depth"))));
  }
  if (kind == "kv") {
    return probe_kv(at_least_one(param(params, "total_pages")),
                    at_least_one(param(params, "page_tokens")),
                    static_cast<int>(std::lround(param(params, "pages"))));
  }
  if (kind == "recorder") return probe_recorder();
  throw std::invalid_argument("unknown probe '" + kind + "'");
}

}  // namespace faasbench
