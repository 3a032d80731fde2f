// The three benchmark testbeds. Each mirrors one runner::run_*_point body
// through the same public APIs, with host clocks around set-up, the run and
// the submit calls, and with the layer counters read back afterwards.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "federation/cluster.hpp"
#include "gpu/device.hpp"
#include "harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/telemetry.hpp"
#include "runner/experiments.hpp"
#include "scenario/driver.hpp"
#include "scenario/synthesize.hpp"
#include "sched/engines.hpp"
#include "serve/disagg.hpp"
#include "trace/recorder.hpp"
#include "trace/stats.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/dnn.hpp"
#include "workloads/llama.hpp"
#include "workloads/serving.hpp"

namespace faasbench {

using namespace faaspart;
using namespace util::literals;

double cpu_now() {
  timespec ts{};
  // faaspart-lint: allow(D1) -- benchmark host cost: CPU time of the driver
  // process itself, reported beside the run and never fed into the simulation
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double wall_now() {
  // faaspart-lint: allow(D1) -- benchmark host cost: elapsed host time of the
  // driver process, reported beside the run and never fed into the simulation
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would also carry the spawning process's peak across fork + exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// -- shared instruments ------------------------------------------------------

/// Host clocks around one run: set-up from construction to first_event(),
/// the run from there to stop(); wall time covers both.
class RunClock {
 public:
  void first_event() { cpu_first_ = cpu_now(); }
  [[nodiscard]] HostCost stop() const {
    const double cpu = cpu_now();
    return {.setup_s = cpu_first_ - cpu0_,
            .run_cpu_s = cpu - cpu_first_,
            .wall_s = wall_now() - wall0_,
            .peak_rss_mb = peak_rss_mb()};
  }

 private:
  double wall0_ = wall_now();
  double cpu0_ = cpu_now();
  double cpu_first_ = 0;
};

std::unique_ptr<obs::Telemetry> make_telemetry(sim::Simulator& sim, Tel tel) {
  if (tel == Tel::kOff) return nullptr;
  obs::TelemetryOptions topts;
  topts.tracing = tel == Tel::kFull;
  return std::make_unique<obs::Telemetry>(sim, topts);
}

/// Accumulates host time over the submit calls an arrival driver makes.
struct CallTimer {
  bool on = false;
  double total_s = 0;
  std::size_t calls = 0;

  template <typename Fn>
  auto measure(Fn&& fn) {
    if (!on) return fn();
    const double t0 = wall_now();
    auto out = fn();
    total_s += wall_now() - t0;
    ++calls;
    return out;
  }
  [[nodiscard]] double mean_ns() const {
    return calls > 0 ? 1e9 * total_s / static_cast<double>(calls) : 0.0;
  }
};

/// Averages operating-point probes taken every `period` of virtual time
/// from a weak event, so sampling never keeps the simulation alive.
class OpSampler {
 public:
  using Probe = std::function<void(std::map<std::string, double>&)>;

  OpSampler(sim::Simulator& sim, Probe probe) : sim_(sim), probe_(std::move(probe)) {}
  OpSampler(const OpSampler&) = delete;
  OpSampler& operator=(const OpSampler&) = delete;

  void start() { sim_.schedule_weak_in(kPeriod, [this] { tick(); }); }

  [[nodiscard]] std::map<std::string, double> means() const {
    std::map<std::string, double> out;
    for (const auto& [k, v] : sums_) out[k] = samples_ > 0 ? v / samples_ : 0.0;
    return out;
  }

 private:
  static constexpr util::Duration kPeriod = util::milliseconds(100);

  void tick() {
    sums_["sim_pending"] += static_cast<double>(sim_.pending_events());
    probe_(sums_);
    ++samples_;
    sim_.schedule_weak_in(kPeriod, [this] { tick(); });
  }

  sim::Simulator& sim_;
  Probe probe_;
  std::map<std::string, double> sums_;
  double samples_ = 0;
};

double counter_sum(const obs::Telemetry* tel, const std::string& name) {
  if (tel == nullptr) return 0;
  double sum = 0;
  for (const auto& [key, c] : tel->metrics().counters()) {
    if (key.first == name) sum += c->value();
  }
  return sum;
}

/// Share of p99-tail latency per critical-path segment, plus the worst
/// per-request coverage, from the traced run's request trees.
void add_critical_path(const obs::Telemetry* tel, std::map<std::string, double>& layers) {
  static const std::pair<const char*, const char*> kSegments[] = {
      {"squeue", "federation.squeue_tail_frac"},
      {"wan", "federation.wan_tail_frac"},
      {"equeue", "faas.equeue_tail_frac"},
      {"cold", "faas.cold_tail_frac"},
      {"exec", "gpu.exec_tail_frac"},
  };
  for (const auto& [seg, name] : kSegments) layers[name] = 0;
  layers["obs.coverage_min"] = 0;
  const obs::Tracer* tracer = tel != nullptr ? tel->tracer() : nullptr;
  if (tracer == nullptr) return;
  const auto breakdowns = obs::analyze_requests(tracer->spans());
  if (breakdowns.empty()) return;
  std::vector<double> totals;
  double coverage = 1.0;
  for (const auto& b : breakdowns) {
    totals.push_back(b.total.seconds());
    coverage = std::min(coverage, b.coverage());
  }
  std::sort(totals.begin(), totals.end());
  const double p99 = trace::percentile_sorted(totals, 0.99);
  double tail_total = 0;
  std::map<std::string, double> tail;
  for (const auto& b : breakdowns) {
    if (b.total.seconds() < p99) continue;
    tail_total += b.total.seconds();
    for (const auto& [seg, d] : b.segments) tail[seg] += d.seconds();
  }
  for (const auto& [seg, name] : kSegments) {
    layers[name] = tail_total > 0 ? tail[seg] / tail_total : 0.0;
  }
  layers["obs.coverage_min"] = coverage;
}

/// The FaaS and federation rows of the ledger, shared by both fleets.
void add_fleet_layers(federation::ComputeService& service,
                      const federation::ClusterService& cluster, const obs::Telemetry* tel,
                      const CallTimer& timer, std::map<std::string, double>& layers) {
  double tasks = 0;
  double records = 0;
  for (const auto& name : service.endpoint_names()) {
    faas::DataFlowKernel& dfk = service.endpoint(name).dfk();
    tasks += static_cast<double>(dfk.tasks_submitted());
    records += static_cast<double>(dfk.records().size());
  }
  const federation::ClusterStats& st = cluster.stats();
  layers["faas.tasks"] = tasks;
  layers["faas.attempts"] = counter_sum(tel, "htex_attempts_total");
  layers["faas.cold_starts"] = counter_sum(tel, "htex_cold_starts_total");
  layers["faas.cold_start_s"] = counter_sum(tel, "htex_cold_start_seconds_total");
  layers["faas.live_records"] = records;
  layers["federation.dispatched"] = static_cast<double>(st.dispatched);
  layers["federation.shed"] = static_cast<double>(st.shed);
  layers["federation.sticky_hit_frac"] =
      st.dispatched > 0
          ? static_cast<double>(st.sticky_hits) / static_cast<double>(st.dispatched)
          : 0.0;
  layers["federation.submit_ns"] = timer.mean_ns();
}

/// Settles a cluster handle's record into the outcome counters; returns the
/// submit → settle seconds for completed requests, or a negative value.
double settle(const faas::TaskRecord& rec, util::Duration deadline, Outcome& out) {
  switch (rec.state) {
    case faas::TaskRecord::State::kDone: {
      ++out.completed;
      const util::Duration t = rec.completion_time();
      if (deadline.ns == 0 || t <= deadline) ++out.good;
      return t.seconds();
    }
    case faas::TaskRecord::State::kFailed:
      if (rec.error.rfind("shed: ", 0) == 0) {
        ++out.shed;
      } else {
        ++out.failed;
      }
      return -1;
    default:
      return -1;  // unsettled: offered != completed + shed + failed flags it
  }
}

// -- cluster-mps ---------------------------------------------------------------

runner::ClusterServingPoint cluster_point(const RunOptions& ro) {
  runner::ClusterServingPoint p;
  p.policy = federation::ClusterPolicy::kSloAware;
  p.rate_mult = 1.0;
  p.opts.endpoints = ro.endpoints;
  const double scale = static_cast<double>(ro.endpoints) / 16.0;
  p.opts.llama_rate_hz *= scale;
  p.opts.resnet_rate_hz *= scale;
  p.opts.seed = ro.seed;
  return p;
}

// The runner's ResNet-50 batch-8 serving app (runner/experiments.cpp).
faas::AppDef resnet_app(const std::string& name) {
  faas::AppDef app;
  app.name = name;
  app.function_init = 500_ms;
  app.model_bytes = 2 * util::GB;
  app.model_key = "resnet50";
  const auto kernels = workloads::models::resnet50().inference_kernels(8);
  // faaspart-lint: allow(C2) -- the lambda is stored in AppDef::body for the
  // app's whole lifetime; every coroutine it starts finishes while the
  // owning AppDef (and so the captures) is still alive
  app.body = [kernels](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    for (const auto& k : kernels) co_await ctx.launch(k);
    co_return faas::AppValue{};
  };
  return app;
}

sim::Co<void> drain_cluster(sim::Simulator& sim, federation::ClusterService& cluster,
                            util::Duration at) {
  co_await sim.delay(at);
  co_await cluster.shutdown();
}

RunResult run_cluster(const RunOptions& ro) {
  const runner::ClusterServingPoint point = cluster_point(ro);
  const runner::ClusterServingOptions& o = point.opts;
  RunResult res;
  RunClock clock;

  sim::Simulator sim;
  std::unique_ptr<obs::Telemetry> tel = make_telemetry(sim, ro.tel);
  std::vector<std::unique_ptr<trace::Recorder>> recorders;
  federation::ComputeService service(sim);
  const util::Bytes cache_cap =
      workloads::llama_memory_footprint(workloads::llama2_7b(), workloads::serving_config()) +
      1 * util::GB;
  for (int i = 0; i < o.endpoints; ++i) {
    federation::Endpoint::Options eo;
    eo.name = util::strf("ep-", i < 10 ? "0" : "", i);
    eo.cpu_cores = 8;
    eo.rtt = util::milliseconds(10 + 10 * (i % 4));
    eo.gpus = {gpu::arch::a100_80gb()};
    trace::Recorder* rec = nullptr;
    if (ro.recorder) {
      recorders.push_back(std::make_unique<trace::Recorder>());
      rec = recorders.back().get();
    }
    auto ep = std::make_unique<federation::Endpoint>(sim, eo, rec);
    ep->enable_weight_cache(120_ms, cache_cap);
    faas::HtexConfig tenant;
    tenant.label = "llama";
    tenant.available_accelerators = {"0"};
    tenant.gpu_percentages = {50};
    ep->add_gpu_executor(tenant);
    tenant.label = "resnet";
    ep->add_gpu_executor(tenant);
    if (o.autoscale) {
      ep->enable_autoscaler({{"llama", 50}, {"resnet", 50}}, util::TimePoint{} + o.window,
                            {.interval = 30_s, .min_percentage = 20, .min_delta = 20,
                             .ewma_alpha = 0.5});
    }
    service.register_endpoint(std::move(ep));
  }
  const std::string llama_fn = service.register_function(workloads::make_llama_completion_app(
      "llama-7b", workloads::llama2_7b(), workloads::serving_config(), {32, 8}));
  const std::string resnet_fn = service.register_function(resnet_app("resnet-serve"));

  federation::ClusterService cluster(sim, service, {.policy = point.policy});
  federation::FunctionClass llama_cls;
  llama_cls.tenant = "llm";
  llama_cls.weight = 2.0;
  llama_cls.rate_hz = 1.25 * o.llama_rate_hz;
  llama_cls.burst = 16;
  llama_cls.max_queue = 64;
  llama_cls.deadline = 75_s;
  llama_cls.service_estimate = 2_s;
  cluster.configure_function(llama_fn, llama_cls);
  federation::FunctionClass resnet_cls;
  resnet_cls.tenant = "vision";
  resnet_cls.weight = 1.0;
  resnet_cls.rate_hz = 1.25 * o.resnet_rate_hz;
  resnet_cls.burst = 32;
  resnet_cls.max_queue = 256;
  resnet_cls.deadline = 20_s;
  resnet_cls.service_estimate = 200_ms;
  cluster.configure_function(resnet_fn, resnet_cls);

  std::vector<faas::AppHandle> llama_handles;
  std::vector<faas::AppHandle> resnet_handles;
  CallTimer timer{.on = ro.time_calls};
  workloads::spawn_open_loop_fn(
      sim, o.llama_rate_hz * point.rate_mult, o.window, o.seed * 7919 + 11, [&] {
        llama_handles.push_back(
            timer.measure([&] { return cluster.submit(llama_fn, "llama"); }));
      });
  workloads::spawn_open_loop_fn(
      sim, o.resnet_rate_hz * point.rate_mult, o.window, o.seed * 7919 + 13, [&] {
        resnet_handles.push_back(
            timer.measure([&] { return cluster.submit(resnet_fn, "resnet"); }));
      });
  sim.spawn(drain_cluster(sim, cluster, o.window + util::milliseconds(1)), "drain");

  OpSampler sampler(sim, [&](std::map<std::string, double>& sums) {
    double running = 0;
    for (const auto& name : service.endpoint_names()) {
      running += static_cast<double>(
          service.endpoint(name).devices().device(0).engine().active());
    }
    sums["gpu_running"] += running / o.endpoints;
    sums["squeue_depth"] += static_cast<double>(cluster.queue_depth());
  });
  if (ro.ledger) sampler.start();

  clock.first_event();
  sim.run();

  // The runner's reduction (run_cluster_serving_point), plus the deadline
  // split the runner does not report.
  runner::ClusterServingResult r;
  r.point = point;
  const federation::ClusterStats& st = cluster.stats();
  Outcome& out = res.outcome;
  r.offered = st.submitted;
  r.admitted = st.admitted;
  r.shed = st.shed;
  r.shed_rate = st.submitted > 0
                    ? static_cast<double>(st.shed) / static_cast<double>(st.submitted)
                    : 0.0;
  std::vector<double> completions;
  for (const auto* handles : {&llama_handles, &resnet_handles}) {
    const util::Duration deadline = handles == &llama_handles ? llama_cls.deadline
                                                              : resnet_cls.deadline;
    for (const auto& h : *handles) {
      ++out.offered;
      const double t = settle(*h.record, deadline, out);
      if (t >= 0) completions.push_back(t);
    }
  }
  out.window_s = o.window.seconds();
  r.throughput = static_cast<double>(out.completed) / o.window.seconds();
  const trace::Summary sum = trace::summarize(std::move(completions));
  out.p50_s = sum.p50;
  out.p99_s = sum.p99;
  r.p50_s = sum.p50;
  r.p95_s = sum.p95;
  r.p99_s = sum.p99;
  double util_total = 0;
  std::uint64_t reloads = 0;
  std::uint64_t hits = 0;
  for (const auto& name : service.endpoint_names()) {
    federation::Endpoint& ep = service.endpoint(name);
    util_total += ep.devices().device(0).measured_utilization(util::TimePoint{},
                                                              util::TimePoint{} + o.window);
    reloads += ep.weight_cache()->misses();
    hits += ep.weight_cache()->hits();
  }
  r.gpu_util = util_total / std::max(1, o.endpoints);
  r.weight_reloads = reloads;
  r.sticky_hit_rate = st.dispatched > 0 ? static_cast<double>(st.sticky_hits) /
                                              static_cast<double>(st.dispatched)
                                        : 0.0;
  if (tel != nullptr) tel->finish();

  res.host = clock.stop();
  res.sim_events = sim.processed_events();
  out.rendered = runner::render_cluster_serving({r});

  // Layer ledger — read after the clocks stop.
  auto& L = res.layers;
  const double offered = static_cast<double>(out.offered);
  double busy = 0;
  double spans = 0;
  for (const auto& name : service.endpoint_names()) {
    busy += service.endpoint(name).devices().device(0).busy_time().seconds();
  }
  for (const auto& rec : recorders) spans += static_cast<double>(rec->spans().size());
  L["gpu.kernels"] = counter_sum(tel.get(), "kernel_launches_total");
  L["gpu.kernels_per_req"] = L["gpu.kernels"] / offered;
  L["gpu.busy_frac"] = busy / o.endpoints / (sim.now() - util::TimePoint{}).seconds();
  L["sched.mps_throttle_s"] = counter_sum(tel.get(), "mps_throttle_seconds_total");
  L["trace.spans"] = spans;
  L["core.weight_reloads"] = static_cast<double>(reloads);
  L["core.weight_hits"] = static_cast<double>(hits);
  L["core.reconfigures"] = counter_sum(tel.get(), "reconfigures_total");
  add_fleet_layers(service, cluster, tel.get(), timer, L);
  add_critical_path(tel.get(), L);
  res.op_point = sampler.means();
  res.op_point["wfq_flows"] = 2;
  return res;
}

// -- scenario-cpu --------------------------------------------------------------

runner::ScenarioServingPoint scenario_point(const RunOptions& ro) {
  runner::ScenarioServingPoint p;
  p.policy = federation::ClusterPolicy::kSloAware;
  p.opts.seed = ro.seed;
  return p;
}

/// TraceDriver's arrival loop (scenario/driver.cpp) with the submit call
/// timed: each event is submitted at its exact virtual timestamp.
sim::Co<void> replay_arrivals(sim::Simulator& sim, federation::ClusterService& cluster,
                              const scenario::TraceDriver& driver,
                              std::vector<faas::AppHandle>& handles, CallTimer& timer) {
  for (const scenario::TraceEvent& ev : driver.trace().events) {
    if (ev.at > sim.now()) co_await sim.delay(ev.at - sim.now());
    const std::string& fn = driver.function_id(ev.function);
    handles.push_back(timer.measure([&] { return cluster.submit(fn, "cpu"); }));
  }
}

RunResult run_scenario(const RunOptions& ro) {
  const runner::ScenarioServingPoint point = scenario_point(ro);
  const runner::ScenarioServingOptions& o = point.opts;
  RunResult res;
  RunClock clock;

  sim::Simulator sim;
  std::unique_ptr<obs::Telemetry> tel = make_telemetry(sim, ro.tel);
  federation::ComputeService service(sim);
  for (int i = 0; i < o.endpoints; ++i) {
    federation::Endpoint::Options eo;
    eo.name = util::strf("ep-", i < 10 ? "0" : "", i);
    eo.rtt = util::milliseconds(10 + 10 * (i % 4));
    auto ep = std::make_unique<federation::Endpoint>(sim, eo);
    ep->add_cpu_executor("cpu", o.workers_per_endpoint);
    service.register_endpoint(std::move(ep));
  }
  federation::ClusterService cluster(sim, service, {.policy = point.policy});

  scenario::SynthesisSpec spec;
  spec.seed = o.seed;
  spec.functions = o.functions;
  spec.zipf_s = 1.0;
  spec.base_rate_hz = o.base_rate_hz;
  spec.phases = scenario::diurnal_burst_phases(o.phase_len);
  scenario::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 2.0;
  interactive.deadline = 3_s;
  interactive.service_estimate = 120_ms;
  interactive.max_queue = 64;
  scenario::TenantSpec batch;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.deadline = 15_s;
  batch.service_estimate = 400_ms;
  batch.rate_headroom = 1.5;
  batch.burst_seconds = 4.0;
  batch.max_queue = 128;
  spec.tenants = {interactive, batch};
  const double synth0 = cpu_now();
  scenario::Trace trace = scenario::synthesize(spec);
  const double synthesize_s = cpu_now() - synth0;
  const util::Duration horizon = trace.horizon;

  // scenario::replay_trace, unrolled so the arrival loop is ours to time.
  scenario::TraceDriver driver(sim, cluster, std::move(trace));
  driver.bind_all(
      [](const scenario::TraceFunction& f) {
        faas::AppDef app;
        app.function_init = 300_ms;
        const util::Duration mean = f.cls.service_estimate;
        // faaspart-lint: allow(C2) -- the lambda is stored in AppDef::body
        // for the run's whole lifetime; `mean` is captured by value.
        app.body = [mean](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
          co_await ctx.compute(ctx.rng().lognormal_duration(mean, 0.3));
          co_return faas::AppValue{1.0};
        };
        return app;
      },
      "cpu");
  std::map<std::string, util::Duration> deadline_of;
  for (const scenario::TraceFunction& f : driver.trace().catalog) {
    deadline_of[f.name] = f.cls.deadline;
  }
  std::vector<faas::AppHandle> handles;
  CallTimer timer{.on = ro.time_calls};
  sim.spawn(replay_arrivals(sim, cluster, driver, handles, timer), "trace-driver");
  sim.spawn(drain_cluster(sim, cluster, horizon + util::seconds(60)), "trace-drain");

  OpSampler sampler(sim, [&](std::map<std::string, double>& sums) {
    sums["squeue_depth"] += static_cast<double>(cluster.queue_depth());
  });
  if (ro.ledger) sampler.start();

  clock.first_event();
  sim.run();

  // TraceDriver::report's reduction, then run_scenario_serving_point's.
  Outcome& out = res.outcome;
  std::vector<double> completions;
  std::ostringstream hashed;
  for (const faas::AppHandle& h : handles) {
    const faas::TaskRecord& rec = *h.record;
    ++out.offered;
    const double t = settle(rec, deadline_of.at(rec.app), out);
    if (t >= 0) completions.push_back(t);
    hashed << rec.app << '|' << static_cast<int>(rec.state) << '|' << rec.finished.ns << '|'
           << rec.error << '\n';
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(scenario::fnv1a(hashed.str())));
  out.window_s = horizon.seconds();
  runner::ScenarioServingResult r;
  r.point = point;
  r.offered = out.offered;
  r.completed = out.completed;
  r.shed = out.shed;
  r.shed_rate = out.offered > 0 ? static_cast<double>(out.shed) /
                                      static_cast<double>(out.offered)
                                : 0.0;
  r.throughput = static_cast<double>(out.completed) / horizon.seconds();
  const trace::Summary sum = trace::summarize(std::move(completions));
  out.p50_s = sum.p50;
  out.p99_s = sum.p99;
  r.p50_s = sum.p50;
  r.p95_s = sum.p95;
  r.p99_s = sum.p99;
  r.digest = digest;
  if (tel != nullptr) tel->finish();

  res.host = clock.stop();
  res.sim_events = sim.processed_events();
  out.rendered = runner::render_scenario_serving({r});

  auto& L = res.layers;
  add_fleet_layers(service, cluster, tel.get(), timer, L);
  L["scenario.synthesize_s"] = synthesize_s;
  add_critical_path(tel.get(), L);
  res.op_point = sampler.means();
  res.op_point["wfq_flows"] = o.functions;
  return res;
}

// -- llm-disagg ----------------------------------------------------------------

/// Long enough that >= 10 completions lie beyond p99 at 2x saturation.
constexpr util::Duration kLlmWindow = util::seconds(1800);
constexpr double kLlmRateMult = 2.0;

runner::LlmServingPoint llm_point(const RunOptions& ro) {
  runner::LlmServingPoint p;
  p.mode = "disagg";
  p.rate_mult = kLlmRateMult;
  p.opts.rate_mult = kLlmRateMult;
  p.opts.window = kLlmWindow;
  p.opts.seed = ro.seed;
  return p;
}

struct Arrival {
  util::Duration at{};
  int prompt = 0;
  int output = 0;
};

// The runner's paragraph-chat mix and Poisson schedule (runner/llm_serving.cpp).
int pick_weighted(util::Rng& rng, const int (&values)[4], const double (&weights)[4]) {
  const double u = rng.uniform(0.0, 1.0);
  double acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += weights[i];
    if (u < acc) return values[i];
  }
  return values[3];
}

std::vector<Arrival> make_arrivals(const runner::LlmServingOptions& o, double rate_mult) {
  static constexpr int kPrompts[] = {64, 128, 256, 512};
  static constexpr double kPromptW[] = {0.3, 0.4, 0.2, 0.1};
  static constexpr int kOutputs[] = {32, 64, 128, 256};
  static constexpr double kOutputW[] = {0.25, 0.4, 0.25, 0.1};
  util::Rng rng(o.seed ^ 0x11a5e471ULL);
  const double rate = o.saturation_hz * rate_mult;
  std::vector<Arrival> out;
  util::Duration t{};
  for (;;) {
    t += util::from_seconds(rng.exponential(1.0 / rate));
    if (t > o.window) break;
    Arrival a;
    a.at = t;
    a.prompt = pick_weighted(rng, kPrompts, kPromptW);
    a.output = pick_weighted(rng, kOutputs, kOutputW);
    out.push_back(a);
  }
  return out;
}

sim::Co<void> drive_arrivals(sim::Simulator& sim, const std::vector<Arrival>& arrivals,
                             serve::DisaggLlmServer& server,
                             std::vector<sim::Future<serve::RequestOutcome>>& futures,
                             CallTimer& timer) {
  const util::TimePoint t0 = sim.now();
  for (const Arrival& a : arrivals) {
    const util::TimePoint due = t0 + a.at;
    if (due > sim.now()) co_await sim.delay(due - sim.now());
    const serve::LlmRequest req{0, a.prompt, a.output};
    futures.push_back(timer.measure([&] { return server.submit(req); }));
  }
}

RunResult run_llm(const RunOptions& ro) {
  const runner::LlmServingPoint point = llm_point(ro);
  const runner::LlmServingOptions& o = point.opts;
  RunResult res;
  RunClock clock;

  sim::Simulator sim;
  std::unique_ptr<obs::Telemetry> tel = make_telemetry(sim, ro.tel);
  gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory());
  const std::vector<Arrival> arrivals = make_arrivals(o, point.rate_mult);
  std::vector<sim::Future<serve::RequestOutcome>> futures;
  futures.reserve(arrivals.size());
  serve::DisaggConfig dcfg;
  dcfg.spec = workloads::llama2_7b();
  dcfg.run = workloads::serving_config();
  dcfg.prefill = serve::PoolSpec{"3g.40gb", 1};
  dcfg.decode = serve::PoolSpec{"4g.40gb", 1};
  // The iteration log only grows a vector; the ledger run counts it.
  dcfg.engine.keep_log = ro.ledger;
  serve::DisaggLlmServer disagg(sim, dev, dcfg);
  CallTimer timer{.on = ro.time_calls};
  sim.spawn(drive_arrivals(sim, arrivals, disagg, futures, timer), "arrivals");

  OpSampler sampler(sim, [&](std::map<std::string, double>& sums) {
    double running = 0;
    double engines = 0;
    for (const gpu::InstanceId id : dev.instance_ids()) {
      running += static_cast<double>(dev.instance(id).engine->active());
      engines += 1;
    }
    sums["gpu_running"] += engines > 0 ? running / engines : 0.0;
    double used = 0;
    for (const auto& e : disagg.decode_engines()) used += e->pager().used_pages();
    sums["kv_pages"] += used;
  });
  if (ro.ledger) sampler.start();

  clock.first_event();
  sim.run();

  // run_llm_serving_point's reduction.
  runner::LlmServingResult r;
  r.point = point;
  r.offered = futures.size();
  Outcome& out = res.outcome;
  const double window_s = o.window.seconds();
  std::vector<double> ttfts, tpots_ms, latencies;
  std::uint64_t tokens_out = 0;
  std::ostringstream hashed;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ++out.offered;
    if (!futures[i].ready() || futures[i].failed()) continue;  // unsettled
    const serve::RequestOutcome& done = futures[i].value();
    hashed << i << '|' << serve::outcome_kind_name(done.kind) << '|' << done.reason << '|'
           << done.ttft.ns << '|' << done.latency.ns << '|' << done.tokens_out << '\n';
    r.preemptions += static_cast<std::size_t>(done.preemptions);
    r.handoffs += static_cast<std::size_t>(done.handoffs);
    switch (done.kind) {
      case serve::OutcomeKind::kCompleted:
        ++r.completed;
        tokens_out += static_cast<std::uint64_t>(done.tokens_out);
        ttfts.push_back(done.ttft.seconds());
        latencies.push_back(done.latency.seconds());
        if (done.ttft <= o.ttft_slo) ++out.good;
        if (done.tokens_out > 1) {
          tpots_ms.push_back(1e3 * (done.latency - done.ttft).seconds() /
                             (done.tokens_out - 1));
        }
        break;
      case serve::OutcomeKind::kShed: ++r.shed; break;
      case serve::OutcomeKind::kFailed: ++r.failed; break;
    }
  }
  out.completed = r.completed;
  out.shed = r.shed;
  out.failed = r.failed;
  out.window_s = window_s;
  r.goodput_hz = static_cast<double>(out.good) / window_s;
  r.throughput_hz = static_cast<double>(r.completed) / window_s;
  r.tokens_per_s = static_cast<double>(tokens_out) / window_s;
  const trace::Summary st = trace::summarize(std::move(ttfts));
  r.ttft_p50_s = st.p50;
  r.ttft_p99_s = st.p99;
  const trace::Summary sp = trace::summarize(std::move(tpots_ms));
  r.tpot_p50_ms = sp.p50;
  r.tpot_p99_ms = sp.p99;
  const trace::Summary sl = trace::summarize(std::move(latencies));
  r.latency_p99_s = sl.p99;
  out.p50_s = sl.p50;
  out.p99_s = sl.p99;
  r.relayouts = disagg.stats().relayouts;
  for (const auto& e : disagg.decode_engines()) {
    r.peak_kv_pages = std::max(r.peak_kv_pages, e->pager().stats().peak_pages_in_use);
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(scenario::fnv1a(hashed.str())));
  r.digest = digest;
  if (tel != nullptr) tel->finish();

  res.host = clock.stop();
  res.sim_events = sim.processed_events();
  out.rendered = runner::render_llm_serving({r});

  auto& L = res.layers;
  double iterations = 0, decode_tokens = 0, peak_batch = 0, preemptions = 0, log_events = 0;
  for (const auto& e : disagg.decode_engines()) {
    const serve::EngineStats& es = e->stats();
    iterations += static_cast<double>(es.iterations);
    decode_tokens += static_cast<double>(es.decode_tokens);
    peak_batch = std::max(peak_batch, static_cast<double>(es.peak_batch));
    preemptions += static_cast<double>(es.preemptions);
    log_events += static_cast<double>(e->log().size());
  }
  const double offered = static_cast<double>(out.offered);
  L["gpu.kernels"] = counter_sum(tel.get(), "kernel_launches_total");
  L["gpu.kernels_per_req"] = L["gpu.kernels"] / offered;
  L["gpu.busy_frac"] = dev.busy_time().seconds() / (sim.now() - util::TimePoint{}).seconds();
  L["sched.mps_throttle_s"] = counter_sum(tel.get(), "mps_throttle_seconds_total");
  L["serve.iterations"] = iterations;
  L["serve.prefill_tokens"] = static_cast<double>(disagg.stats().prefill_tokens);
  L["serve.decode_tokens"] = decode_tokens;
  L["serve.peak_batch"] = peak_batch;
  L["serve.preemptions"] = preemptions;
  L["serve.handoffs"] = static_cast<double>(disagg.stats().handoffs);
  L["serve.peak_kv_pages"] = static_cast<double>(r.peak_kv_pages);
  L["serve.log_events"] = log_events;
  L["serve.submit_ns"] = timer.mean_ns();
  L["serve.ttft_p99_s"] = r.ttft_p99_s;
  L["serve.tpot_p99_ms"] = r.tpot_p99_ms;
  add_critical_path(tel.get(), L);
  res.op_point = sampler.means();
  if (!disagg.decode_engines().empty()) {
    const gpu::KvPager& pager = disagg.decode_engines().front()->pager();
    res.op_point["kv_total_pages"] = pager.total_pages();
    res.op_point["kv_page_tokens"] = pager.config().page_tokens;
  }
  return res;
}

}  // namespace

RunResult run_workload(const RunOptions& opts) {
  if (opts.workload == "cluster-mps") return run_cluster(opts);
  if (opts.workload == "scenario-cpu") return run_scenario(opts);
  if (opts.workload == "llm-disagg") return run_llm(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

std::string runner_rendered(const RunOptions& opts) {
  if (opts.workload == "cluster-mps") {
    runner::ClusterServingResult r = runner::run_cluster_serving_point(cluster_point(opts));
    if (!opts.recorder) r.gpu_util = 0;  // the runner always records spans
    return runner::render_cluster_serving({r});
  }
  if (opts.workload == "scenario-cpu") {
    return runner::render_scenario_serving(
        {runner::run_scenario_serving_point(scenario_point(opts))});
  }
  if (opts.workload == "llm-disagg") {
    return runner::render_llm_serving({runner::run_llm_serving_point(llm_point(opts))});
  }
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace faasbench
