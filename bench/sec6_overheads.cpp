// §6 — "Discussion: execution overhead".
//
// Two measurements from the section:
//  (a) GPU cold-start decomposition: (1) function initialization,
//      (2) GPU context initialization, (3) application (model) loading —
//      with the paper's observation that loading LLaMa-2 13B takes ~10 s;
//  (b) partition reallocation: changing an MPS percentage forces a process
//      restart (10–20 s with an LLM because the model reloads); MIG
//      re-layout additionally resets the GPU (1–2 s) and disturbs every
//      tenant on it.
//  (c) observability: the telemetry layer's real (host) wall-time cost on
//      the headline 4-process MPS run, and proof it leaves virtual time
//      untouched (<2% overhead claim, DESIGN.md §7).
#include <algorithm>
#include <array>
#include <ctime>
#include <tuple>
#include <vector>
#include <iostream>

#include "core/partitioner.hpp"
#include "core/reconfigure.hpp"
#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "nvml/manager.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/sampler.hpp"
#include "trace/table.hpp"
#include "util/strings.hpp"
#include "workloads/llama.hpp"
#include "workloads/multiplex_experiment.hpp"

using namespace faaspart;
using namespace util::literals;

namespace {

struct ColdStart {
  double worker_spawn_s = 0;
  double context_init_s = 0;
  double function_init_s = 0;
  double model_load_s = 0;
  double first_task_total_s = 0;
};

ColdStart measure_cold_start(const workloads::LlamaSpec& spec,
                             workloads::LlamaRunConfig run) {
  sim::Simulator sim;
  nvml::DeviceManager mgr(sim);
  mgr.add_device(gpu::arch::a100_80gb());
  faas::LocalProvider provider(sim, 24);
  core::GpuPartitioner part(mgr);

  faas::HtexConfig htex;
  htex.label = "gpu";
  htex.available_accelerators = {"0"};
  auto ex = part.build_executor(sim, provider, htex);

  const auto app = std::make_shared<const faas::AppDef>(
      workloads::make_llama_completion_app(spec.name, spec, run, {16, 1}));
  auto h = ex->submit(app);
  sim.run();

  ColdStart c;
  c.worker_spawn_s = provider.worker_launch_cost().seconds();
  c.context_init_s = mgr.device(0).arch().context_create.seconds();
  c.function_init_s = app->function_init.seconds();
  c.model_load_s = static_cast<double>(app->model_bytes) /
                   mgr.device(0).arch().model_load_bw;
  c.first_task_total_s = (h.record->started - h.record->submitted).seconds();
  return c;
}

struct ReallocCost {
  double restart_only_s = 0;   ///< reconfigure wall time (workers down+up)
  double ready_again_s = 0;    ///< until the model is reloaded and serving
  bool gpu_reset = false;
};

ReallocCost measure_realloc(bool mig) {
  sim::Simulator sim;
  nvml::DeviceManager mgr(sim);
  mgr.add_device(gpu::arch::a100_80gb());
  faas::LocalProvider provider(sim, 24);
  core::GpuPartitioner part(mgr);
  core::Reconfigurer recon(mgr);

  faas::HtexConfig htex;
  htex.label = "gpu";
  if (mig) {
    gpu::Device& dev = mgr.device(0);
    dev.enable_mig();
    for (int i = 0; i < 2; ++i) {
      htex.available_accelerators.push_back(
          dev.instance(dev.create_instance("3g.40gb")).uuid);
    }
  } else {
    htex.available_accelerators = {"0", "0"};
    htex.gpu_percentages = {50, 50};
  }
  auto ex = part.build_executor(sim, provider, htex);

  // Warm both workers (model resident).
  const auto app = std::make_shared<const faas::AppDef>(
      workloads::make_llama_completion_app("chat", workloads::llama2_7b(),
                                           workloads::serving_config(), {16, 1}));
  (void)ex->submit(app);
  (void)ex->submit(app);
  sim.run();

  auto report = std::make_shared<core::ReconfigureReport>();
  const util::TimePoint t0 = sim.now();
  if (mig) {
    sim.spawn([](core::Reconfigurer& r, faas::HighThroughputExecutor& e,
                 std::shared_ptr<core::ReconfigureReport> out) -> sim::Co<void> {
      std::vector<core::Reconfigurer::TenantLayout> tenants{
          {&e, {"2g.20gb", "2g.20gb"}}};
      *out = co_await r.change_device_layout(std::move(tenants), 0);
    }(recon, *ex, report));
  } else {
    sim.spawn([](core::Reconfigurer& r, faas::HighThroughputExecutor& e,
                 std::shared_ptr<core::ReconfigureReport> out) -> sim::Co<void> {
      const std::vector<int> pcts{70, 30};
      *out = co_await r.change_mps_percentages(e, pcts);
    }(recon, *ex, report));
  }
  sim.run();

  // "Ready" = the first post-reconfigure task has its model loaded again.
  auto h = ex->submit(app);
  sim.run();
  ReallocCost out;
  out.restart_only_s = report->total_time.seconds();
  out.ready_again_s = (h.record->started - t0).seconds();
  out.gpu_reset = report->gpu_reset;
  return out;
}

}  // namespace

int main() {
  trace::print_banner(std::cout, "Sec 6: cold start and reallocation overheads");

  std::cout << "(a) GPU cold-start decomposition, first invocation on a fresh"
               " worker:\n\n";
  trace::Table cold({"component", "LLaMa-2 7B fp16 (s)", "LLaMa-2 13B fp32 (s)"});
  auto cfg13 = workloads::fig2_config();  // fp32, as in the paper's 10 s claim
  const auto c7 = measure_cold_start(workloads::llama2_7b(),
                                     workloads::serving_config());
  const auto c13 = measure_cold_start(workloads::llama2_13b(), cfg13);
  cold.add_row({"(0) worker process spawn", util::fixed(c7.worker_spawn_s, 2),
                util::fixed(c13.worker_spawn_s, 2)});
  cold.add_row({"(1) function initialization", util::fixed(c7.function_init_s, 2),
                util::fixed(c13.function_init_s, 2)});
  cold.add_row({"(2) GPU context init", util::fixed(c7.context_init_s, 2),
                util::fixed(c13.context_init_s, 2)});
  cold.add_row({"(3) model load into HBM", util::fixed(c7.model_load_s, 2),
                util::fixed(c13.model_load_s, 2)});
  cold.add_row({"total until body runs", util::fixed(c7.first_task_total_s, 2),
                util::fixed(c13.first_task_total_s, 2)});
  cold.print(std::cout);
  std::cout << "\nPaper: \"the loading time of LLaMa 2 13B can take up to 10"
               " seconds\" -- component (3) above.\n";

  std::cout << "\n(b) partition reallocation (2 workers, LLaMa-2 7B resident):\n\n";
  trace::Table realloc({"technique", "workers back up (s)",
                        "serving again (s)", "GPU reset"});
  const auto mps = measure_realloc(/*mig=*/false);
  const auto mig = measure_realloc(/*mig=*/true);
  realloc.add_row({"MPS percentage change", util::fixed(mps.restart_only_s, 2),
                   util::fixed(mps.ready_again_s, 2), "no"});
  realloc.add_row({"MIG re-layout", util::fixed(mig.restart_only_s, 2),
                   util::fixed(mig.ready_again_s, 2), "yes (1.5 s)"});
  realloc.print(std::cout);
  std::cout << "\nPaper: MPS reallocation costs a process restart and model"
               " reload (10-20 s for LLMs); MIG adds the GPU reset (1-2 s) and"
               " interferes with every other tenant on the GPU.\n";

  std::cout << "\n(c) observability overhead (4-process MPS, 500 completions,"
               " host wall time):\n\n";
  // Four tiers: no telemetry; metrics + utilization sampling at the 15 s
  // production scrape cadence (Prometheus' default — the always-on tier the
  // <2% claim covers); the same at the 50 ms dashboard/profiling cadence
  // that `fig4_completion_time --obs` uses (~42k ticks across the 2079 s
  // virtual makespan, so sampling cost dominates this tier); and everything
  // — causal span collection plus rendering the Prometheus/Chrome/dashboard
  // artifacts, whose cost is proportional to the ~50k spans serialized and
  // is paid only when the artifacts are requested.
  enum Tier { kOff, kMetrics15s, kMetrics50ms, kFull, kTierCount };
  // CLOCK_PROCESS_CPUTIME_ID: the simulator is single-threaded, so process
  // CPU time equals the run's wall time minus scheduler preemption.
  const auto cpu_now = [] {
    timespec ts{};
    // faaspart-lint: allow(D1) -- host-side overhead benchmark: measures
    // real CPU cost of the observability tiers, never simulated results
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const auto timed_run = [&cpu_now](Tier tier, bool render = false) {
    workloads::MultiplexRunConfig cfg;
    cfg.processes = 4;
    cfg.mode = workloads::MultiplexMode::kMps;
    cfg.total_completions = 500;
    cfg.observability = tier != kOff;
    cfg.obs_sample_period =
        tier == kMetrics15s ? util::seconds(15) : util::milliseconds(50);
    cfg.obs_tracing = tier == kFull;
    cfg.obs_render = tier == kFull || render;
    const double t0 = cpu_now();
    auto r = workloads::run_multiplex_experiment(cfg);
    const double t1 = cpu_now();
    return std::make_pair(t1 - t0, std::move(r));
  };
  (void)timed_run(kOff);  // warm-up: allocator/caches out of the measurement
  // A shared host drifts (frequency scaling, steal time, LLC interference)
  // by several percent on timescales from milliseconds to minutes, so an
  // end-to-end A/B delta can only resolve overheads well above that floor
  // (the 50 ms and full tiers). Each measured tier is the *median of paired
  // deltas* against adjacent off runs — consecutive runs share the host's
  // state, so slow drift cancels in the difference — and each pair
  // alternates which side runs first, so the systematic bias against
  // whichever run follows the other (allocator shape, cache residency)
  // cancels in the median too. The full tier runs last and unpaired: at ~8x
  // the baseline its overhead needs no such care, and serializing ~50k
  // spans churns the allocator enough to bias any sample taken right after.
  double makespan[kTierCount];
  std::fill(std::begin(makespan), std::end(makespan), 0.0);
  double off_min = 1e30;
  const auto paired_delta = [&](Tier tier, int pairs) {
    std::vector<double> d(static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
      double t_off = 0;
      double t_on = 0;
      if (i % 2 == 0) {
        const auto off = timed_run(kOff);
        const auto on = timed_run(tier);
        t_off = off.first;
        t_on = on.first;
        makespan[kOff] = off.second.batch.makespan.seconds();
        makespan[tier] = on.second.batch.makespan.seconds();
      } else {
        const auto on = timed_run(tier);
        const auto off = timed_run(kOff);
        t_off = off.first;
        t_on = on.first;
      }
      off_min = std::min(off_min, t_off);
      d[static_cast<std::size_t>(i)] = t_on - t_off;
    }
    std::nth_element(d.begin(), d.begin() + pairs / 2, d.end());
    return d[static_cast<std::size_t>(pairs / 2)];
  };
  const double aa_floor = paired_delta(kOff, 9);  // A/A: off vs off
  const double delta_15s = paired_delta(kMetrics15s, 9);
  const double delta_50ms = paired_delta(kMetrics50ms, 9);
  double full_min = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto [t, r] = timed_run(kFull);
    full_min = std::min(full_min, t);
    makespan[kFull] = r.batch.makespan.seconds();
  }
  double wall_s[kTierCount];
  wall_s[kOff] = off_min;
  wall_s[kMetrics15s] = off_min + delta_15s;
  wall_s[kMetrics50ms] = off_min + delta_50ms;
  wall_s[kFull] = full_min;
  const auto pct = [&](Tier tier) {
    return 100.0 * (wall_s[tier] - wall_s[kOff]) / wall_s[kOff];
  };

  // The production tier's true cost sits *below* the A/A noise floor, so an
  // A/B delta cannot prove the <2% claim on a shared host. Instead it is
  // decomposed: the run's instrumentation-op counts are deterministic (read
  // back from the metrics registry itself via the Prometheus exporter), and
  // each op's unit cost is microbenchmarked in a tight loop — which stays
  // accurate under interference because the loop's working set is tiny.
  // Overhead = sum(ops x unit cost) / baseline wall time.
  const auto counting = timed_run(kMetrics15s, /*render=*/true);
  const auto prom = obs::parse_prometheus_text(counting.second.prometheus_text);
  const auto total_of = [&prom](const char* name) {
    double v = 0;
    for (const auto& s : prom) {
      if (s.name == name) v += s.value;
    }
    return v;
  };
  const double launches = total_of("kernel_launches_total");
  const double attempts = total_of("htex_attempts_total");
  const double observes = total_of("dfk_completion_seconds_count") +
                          total_of("dfk_queue_seconds_count") +
                          total_of("htex_task_run_seconds_count");
  const double prod_ticks =
      makespan[kMetrics15s] / 15.0 + 2;  // 15 s cadence + final flush
  // Counter adds, counted conservatively: one launch + at most one throttle
  // add per kernel; per attempt the attempts/done/cold-pair/dfk-submit adds.
  const double counter_ops = 2 * launches + 6 * attempts;
  // Gauge writes: the kv-cache high-water set_max per task, and at most
  // three sampler gauge stores per tick (device util+queue, interchange
  // queue).
  const double gauge_ops = attempts + 3 * prod_ticks;

  obs::MetricsRegistry ureg;
  auto& ucounter = ureg.counter("bench_total");
  auto& uhist = ureg.histogram("bench_seconds");
  auto& ugauge = ureg.gauge("bench_gauge");
  const auto per_op_ns = [&cpu_now](int iters, auto&& op) {
    const double t0 = cpu_now();
    for (int i = 0; i < iters; ++i) op(i);
    return (cpu_now() - t0) / iters * 1e9;
  };
  const double add_ns = per_op_ns(4'000'000, [&](int) { ucounter.add(); });
  const double observe_ns =
      per_op_ns(4'000'000, [&](int i) { uhist.observe(1e-3 * i); });
  const double gauge_ns = per_op_ns(
      4'000'000, [&](int i) { ugauge.set_max(static_cast<double>(i)); });
  double tick_ns = 0;
  {
    // Per-tick cost with the headline run's source shape: one device source
    // with all three probes, one interchange source with a queue probe.
    sim::Simulator bsim;
    obs::MetricsRegistry breg;
    obs::UtilizationSampler bsampler(bsim, util::milliseconds(1), &breg);
    util::Duration busy{};
    bsampler.add_source(
        "gpu", obs::UtilizationSampler::Probes{
                   [&busy] {
                     busy += util::microseconds(500);
                     return busy;
                   },
                   [] { return 3.0; },
                   [] { return static_cast<util::Bytes>(1) << 30; }});
    obs::UtilizationSampler::Probes queue_probe;
    queue_probe.queue_depth = [] { return 2.0; };
    bsampler.add_source("queue", std::move(queue_probe));
    const double t0 = cpu_now();
    bsim.run_until(util::TimePoint{} + util::seconds(10));  // 10k ticks
    tick_ns =
        (cpu_now() - t0) / static_cast<double>(bsampler.tick_count()) * 1e9;
  }
  const double instr_s = (counter_ops * add_ns + observes * observe_ns +
                          gauge_ops * gauge_ns + prod_ticks * tick_ns) *
                         1e-9;
  const double derived_pct = 100.0 * instr_s / wall_s[kOff];

  trace::Table obs_table(
      {"telemetry", "wall time (ms)", "overhead", "virtual makespan (s)"});
  const auto row = [&](const char* name, Tier tier) {
    obs_table.add_row({name, util::fixed(wall_s[tier] * 1e3, 1),
                       tier == kOff ? "--" : util::fixed(pct(tier), 1) + "%",
                       util::fixed(makespan[tier], 3)});
  };
  row("off", kOff);
  row("metrics + 15 s sampling", kMetrics15s);
  row("metrics + 50 ms sampling", kMetrics50ms);
  row("+ causal tracing + artifacts", kFull);
  obs_table.print(std::cout);
  bool makespans_equal = true;
  for (int tier = kMetrics15s; tier < kTierCount; ++tier) {
    if (makespan[tier] != makespan[kOff]) makespans_equal = false;
  }
  std::cout << "\nThis host's A/A noise floor (off vs off, median paired"
               " delta): "
            << util::fixed(100.0 * aa_floor / wall_s[kOff], 1)
            << "% — A/B rows within it are indicative only.\n";
  std::cout << "\nProduction tier (metrics + 15 s sampling), decomposed as"
               " deterministic op counts x microbenchmarked unit costs:\n  "
            << util::fixed(counter_ops, 0) << " counter adds x "
            << util::fixed(add_ns, 1) << " ns + " << util::fixed(observes, 0)
            << " observes x " << util::fixed(observe_ns, 1) << " ns + "
            << util::fixed(gauge_ops, 0) << " gauge stores x "
            << util::fixed(gauge_ns, 1) << " ns + "
            << util::fixed(prod_ticks, 0) << " sampler ticks x "
            << util::fixed(tick_ns, 0) << " ns\n  = "
            << util::fixed(instr_s * 1e3, 2) << " ms = "
            << util::fixed(derived_pct, 2)
            << "% of the baseline wall time (claim: <2%).\n";
  std::cout << "\nVirtual makespans "
            << (makespans_equal ? "identical" : "DIFFER")
            << " across all tiers (telemetry must never perturb simulated"
               " time). Span collection and artifact serialization are"
               " pay-when-asked: the full tier's cost is proportional to the"
               " ~50k spans collected and serialized, and is paid only when"
               " the artifacts are requested.\n";
  return 0;
}
