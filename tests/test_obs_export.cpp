// Exporter round-trips and end-to-end telemetry acceptance checks:
//   * write_prometheus() -> parse_prometheus_text() recovers every sample;
//   * the enriched Chrome trace is one valid JSON object (validated by a
//     hand-rolled recursive-descent parser — the repo has no JSON library,
//     which is the point: the output must satisfy an independent reader);
//   * a retried task's attempts hang off one causal root and are linked by
//     flow events;
//   * a kernel span closes where the Device settles its launch, so tracing
//     adds no simulator event and an abort closes queued and running
//     kernels' spans at once; a launch that cannot happen opens none;
//   * the sampler's busy integral agrees with the device's measured busy
//     time within 1%;
//   * telemetry never perturbs virtual time, and leaves no residue when off.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>
#include <string>

#include "faas/dfk.hpp"
#include "faas/provider.hpp"
#include "gpu/device.hpp"
#include "obs/chrome.hpp"
#include "obs/dashboard.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "sched/engines.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads/multiplex_experiment.hpp"

namespace faaspart::obs {
namespace {

using namespace util::literals;

// -- a minimal JSON validator (recursive descent) ----------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || std::isxdigit(static_cast<unsigned char>(
                                         s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               s_[pos_ - 1])) != 0;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,-2.5e3,"x\n",true,null],"b":{}})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":01x})").valid());
  EXPECT_FALSE(JsonChecker("{\"a\":\"raw\nnewline\"}").valid());
  EXPECT_FALSE(JsonChecker(R"([1,2],[3])").valid());  // trailing garbage
}

// -- Prometheus round-trip ---------------------------------------------------

TEST(Prometheus, WriteParsesBackToTheSameSamples) {
  MetricsRegistry reg;
  reg.counter("requests_total", {{"app", "llama2,13b"}}).add(42);
  reg.gauge("queue_depth", {{"partition", "GPU0"}}).set(3.5);
  Histogram& h = reg.histogram("latency_seconds");
  h.observe(0.5);
  h.observe(0.5);
  h.observe(2.0);

  std::ostringstream os;
  write_prometheus(os, reg);
  const auto samples = parse_prometheus_text(os.str());

  double requests = -1;
  double queue = -1;
  double hist_count = -1;
  double hist_sum = -1;
  double inf_bucket = -1;
  bool buckets_cumulative = true;
  double prev_bucket = 0;
  for (const auto& s : samples) {
    if (s.name == "requests_total") {
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels.at("app"), "llama2,13b");  // comma survives quoting
      requests = s.value;
    } else if (s.name == "queue_depth") {
      EXPECT_EQ(s.labels.at("partition"), "GPU0");
      queue = s.value;
    } else if (s.name == "latency_seconds_count") {
      hist_count = s.value;
    } else if (s.name == "latency_seconds_sum") {
      hist_sum = s.value;
    } else if (s.name == "latency_seconds_bucket") {
      if (s.value + 1e-12 < prev_bucket) buckets_cumulative = false;
      prev_bucket = s.value;
      if (s.labels.at("le") == "+Inf") inf_bucket = s.value;
    }
  }
  EXPECT_EQ(requests, 42.0);
  EXPECT_EQ(queue, 3.5);
  EXPECT_EQ(hist_count, 3.0);
  EXPECT_NEAR(hist_sum, 3.0, 1e-9);
  EXPECT_EQ(inf_bucket, 3.0);  // le="+Inf" always equals _count
  EXPECT_TRUE(buckets_cumulative);
}

TEST(Prometheus, EmptyLabelSetsRoundTrip) {
  // A series with no labels writes bare (`up 1`), but the parser must also
  // accept the explicit empty-braces form other exporters emit.
  MetricsRegistry reg;
  reg.counter("bare_total").add(7);
  std::ostringstream os;
  write_prometheus(os, reg);
  EXPECT_NE(os.str().find("bare_total 7"), std::string::npos);

  const auto bare = parse_prometheus_text(os.str());
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_TRUE(bare[0].labels.empty());
  EXPECT_EQ(bare[0].value, 7.0);

  const auto braced = parse_prometheus_text("bare_total{} 7\n");
  ASSERT_EQ(braced.size(), 1u);
  EXPECT_EQ(braced[0].name, "bare_total");
  EXPECT_TRUE(braced[0].labels.empty());
  EXPECT_EQ(braced[0].value, 7.0);
}

TEST(Prometheus, EscapedQuotesBackslashesAndNewlinesRoundTrip) {
  MetricsRegistry reg;
  const std::string awkward = "he said \"p99\", path C:\\gpu\nline2";
  reg.counter("quoted_total", {{"msg", awkward}}).add(1);
  std::ostringstream os;
  write_prometheus(os, reg);
  // On the wire, the value is escaped per the exposition format...
  EXPECT_NE(os.str().find(R"(\"p99\")"), std::string::npos);
  EXPECT_NE(os.str().find(R"(C:\\gpu\n)"), std::string::npos);
  // ...and the parser recovers the original bytes.
  const auto samples = parse_prometheus_text(os.str());
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels.at("msg"), awkward);
}

TEST(Prometheus, ParserSkipsCommentsAndRejectsGarbage) {
  const auto ok = parse_prometheus_text(
      "# HELP up is the process up\n# TYPE up gauge\n\nup 1\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].name, "up");
  EXPECT_EQ(ok[0].value, 1.0);

  EXPECT_THROW(parse_prometheus_text("up notanumber\n"), util::Error);
  EXPECT_THROW(parse_prometheus_text("up{k=\"unterminated} 1\n"), util::Error);
  EXPECT_THROW(parse_prometheus_text("9bad_name 1\n"), util::Error);
}

// -- causal retry linkage ----------------------------------------------------

struct RetryTraceFixture : ::testing::Test {
  sim::Simulator sim;
  Telemetry tel{sim};
  faas::LocalProvider provider{sim, 8};
  faas::DataFlowKernel dfk{sim, [] {
    faas::Config c;
    c.retries = 1;
    return c;
  }()};

  RetryTraceFixture() {
    faas::HighThroughputExecutor::Options opts;
    opts.label = "cpu";
    opts.cpu_workers = 1;
    auto ex = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                             std::move(opts));
    ex->start();
    dfk.add_executor(std::move(ex));
  }
};

TEST_F(RetryTraceFixture, RetriedTaskAttemptsShareOneCausalRoot) {
  auto tries = std::make_shared<int>(0);
  faas::AppDef app;
  app.name = "flaky";
  app.body = [tries](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    co_await ctx.compute(util::seconds(1));
    if (++*tries == 1) throw util::TaskFailedError("injected fault");
    co_return faas::AppValue{1.0};
  };
  auto h = dfk.submit(app, "cpu");
  sim.run();
  ASSERT_EQ(h.record->state, faas::TaskRecord::State::kDone);

  const Tracer* tr = tel.tracer();
  ASSERT_NE(tr, nullptr);
  ASSERT_EQ(tr->trace_count(), 1u);
  const auto spans = tr->trace_spans(1);
  ASSERT_FALSE(spans.empty());
  const CausalSpan* root = spans.front();
  EXPECT_EQ(root->kind, "task");
  EXPECT_EQ(root->parent, 0u);
  EXPECT_FALSE(root->open);

  std::vector<const CausalSpan*> attempts;
  for (const auto* s : spans) {
    EXPECT_FALSE(s->open) << s->kind;  // everything closed once drained
    if (s->kind == "attempt") attempts.push_back(s);
  }
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attempts[0]->attempt, 1);
  EXPECT_EQ(attempts[1]->attempt, 2);
  for (const auto* a : attempts) EXPECT_EQ(a->parent, root->id);
  // The failure annotation lands on the failed attempt, not the survivor.
  EXPECT_NE(attempts[0]->note.find("injected fault"), std::string::npos);
  EXPECT_EQ(attempts[1]->note.find("injected fault"), std::string::npos);

  // The chrome export draws a flow ("s"/"f" pair keyed by the child's span
  // id) from the root to each attempt — the arrows a human follows to see
  // "this box is a retry of that one".
  std::ostringstream os;
  write_enriched_chrome_trace(os, nullptr, tr, nullptr);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid());
  for (const auto* a : attempts) {
    EXPECT_NE(json.find(util::strf("\"ph\":\"s\",\"id\":", a->id)),
              std::string::npos);
    EXPECT_NE(json.find(util::strf("\"id\":", a->id, ",\"pid\":2,\"tid\":",
                                   a->trace)),
              std::string::npos);
  }
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""),
            count_occurrences(json, "\"ph\":\"f\""));
}

// -- kernel spans close where the Device settles the launch -----------------

/// One GPU worker behind a DFK, observed through `opts`.
struct GpuDfk {
  explicit GpuDfk(TelemetryOptions opts) : tel(sim, opts) {
    faas::HighThroughputExecutor::Options ex;
    ex.label = "gpu";
    ex.bindings.push_back(faas::WorkerBinding{&dev, {}, "cuda:0"});
    auto owned = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                                std::move(ex));
    owned->start();
    dfk.add_executor(std::move(owned));
  }

  [[nodiscard]] std::vector<const CausalSpan*> kernel_spans() const {
    std::vector<const CausalSpan*> out;
    if (const Tracer* tr = tel.tracer()) {
      for (const CausalSpan& s : tr->spans()) {
        if (s.kind == "kernel") out.push_back(&s);
      }
    }
    return out;
  }

  sim::Simulator sim;
  Telemetry tel;
  gpu::Device dev{sim, gpu::arch::a100_80gb(), 0, sched::mps_factory()};
  faas::LocalProvider provider{sim, 8};
  faas::DataFlowKernel dfk{sim, faas::Config{}};
};

TEST(KernelSpans, TracingAddsNoSimulatorEvent) {
  faas::AppDef app;
  app.name = "five-kernels";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    const gpu::KernelDesc k{"k", gpu::KernelKind::kGemm, 1e11, 64 * util::MB,
                            40, 0.4};
    for (int i = 0; i < 5; ++i) co_await ctx.launch(k);
    co_return faas::AppValue{};
  };
  TelemetryOptions metrics_only;
  metrics_only.tracing = false;
  GpuDfk untraced(metrics_only);
  GpuDfk traced(TelemetryOptions{});
  for (GpuDfk* run : {&untraced, &traced}) {
    auto h = run->dfk.submit(app, "gpu");
    run->sim.run();
    ASSERT_EQ(h.record->state, faas::TaskRecord::State::kDone);
  }
  EXPECT_EQ(traced.sim.processed_events(), untraced.sim.processed_events());
  const auto spans = traced.kernel_spans();
  ASSERT_EQ(spans.size(), 5u);
  for (const CausalSpan* s : spans) EXPECT_FALSE(s->open);
}

TEST(KernelSpans, DeviceAbortClosesRunningAndQueuedKernelSpans) {
  GpuDfk run(TelemetryOptions{});
  faas::AppDef app;
  app.name = "two-kernels";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    // Minutes of work each; the second waits behind the first on the stream.
    const gpu::KernelDesc k{"long", gpu::KernelKind::kGemm, 1e16,
                            100 * util::MB, 108, 0.5};
    sim::Future<> first = ctx.launch(k);
    sim::Future<> second = ctx.launch(k);
    co_await first;
    co_await second;
    co_return faas::AppValue{};
  };
  auto h = run.dfk.submit(app, "gpu");
  const util::TimePoint t = util::TimePoint{} + util::seconds(30);
  run.sim.schedule_at(t, [&run] {
    (void)run.dev.abort_all_kernels(
        std::make_exception_ptr(util::DeviceError("device reset")));
  });
  run.sim.run();
  EXPECT_EQ(h.record->state, faas::TaskRecord::State::kFailed);
  const auto spans = run.kernel_spans();
  ASSERT_EQ(spans.size(), 2u);
  for (const CausalSpan* s : spans) {
    EXPECT_FALSE(s->open);
    EXPECT_EQ(s->end, t);
    EXPECT_NE(s->note.find("aborted"), std::string::npos);
  }
}

TEST(KernelSpans, LaunchOnACpuWorkerOpensNoSpan) {
  sim::Simulator sim;
  Telemetry tel{sim};
  faas::LocalProvider provider{sim, 8};
  faas::DataFlowKernel dfk{sim, faas::Config{}};
  faas::HighThroughputExecutor::Options ex;
  ex.label = "cpu";
  ex.cpu_workers = 1;
  auto owned = std::make_unique<faas::HighThroughputExecutor>(sim, provider,
                                                              std::move(ex));
  owned->start();
  dfk.add_executor(std::move(owned));

  faas::AppDef app;
  app.name = "gpu-less";
  app.body = [](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
    const gpu::KernelDesc k{"k", gpu::KernelKind::kGemm, 1e11, 64 * util::MB,
                            40, 0.4};
    co_await ctx.launch(k);  // the worker has no accelerator: StateError
    co_return faas::AppValue{};
  };
  auto h = dfk.submit(app, "cpu");
  sim.run();
  EXPECT_EQ(h.record->state, faas::TaskRecord::State::kFailed);
  EXPECT_NE(h.record->error.find("has no accelerator binding"), std::string::npos)
      << h.record->error;
  const Tracer* tr = tel.tracer();
  ASSERT_NE(tr, nullptr);
  ASSERT_FALSE(tr->spans().empty());
  for (const CausalSpan& s : tr->spans()) {
    EXPECT_FALSE(s.open) << s.kind;
    EXPECT_NE(s.kind, "kernel");
  }
}

// -- end-to-end experiment acceptance ----------------------------------------

workloads::MultiplexRunConfig small_mps_config(bool obs) {
  workloads::MultiplexRunConfig cfg;
  cfg.processes = 2;
  cfg.mode = workloads::MultiplexMode::kMps;
  cfg.total_completions = 6;
  cfg.shape = {16, 10};
  cfg.observability = obs;
  return cfg;
}

TEST(ObsExperiment, EnrichedTraceIsValidJsonWithFlowsAndCounters) {
  const auto r = workloads::run_multiplex_experiment(small_mps_config(true));
  ASSERT_FALSE(r.obs_chrome_trace.empty());
  EXPECT_TRUE(JsonChecker(r.obs_chrome_trace).valid());
  // All three sections present: resource lanes, causal trees, counters.
  EXPECT_NE(r.obs_chrome_trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(r.obs_chrome_trace.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(r.obs_chrome_trace.find("\"ph\":\"C\""), std::string::npos);
  // Balanced flows, and kernel spans actually made it into the causal tree.
  const auto starts = count_occurrences(r.obs_chrome_trace, "\"ph\":\"s\"");
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, count_occurrences(r.obs_chrome_trace, "\"ph\":\"f\""));
  EXPECT_NE(r.obs_chrome_trace.find("\"cat\":\"kernel\""), std::string::npos);
}

TEST(ObsExperiment, PrometheusExportCarriesEveryLayer) {
  const auto r = workloads::run_multiplex_experiment(small_mps_config(true));
  const auto samples = parse_prometheus_text(r.prometheus_text);
  ASSERT_FALSE(samples.empty());
  double submits = -1;
  double launches = -1;
  double contexts = -1;
  for (const auto& s : samples) {
    if (s.name == "dfk_submits_total") submits = s.value;
    if (s.name == "kernel_launches_total" &&
        s.labels.count("policy") != 0U && s.labels.at("policy") == "mps") {
      launches = s.value;
    }
    if (s.name == "gpu_contexts_created_total") contexts = s.value;
  }
  EXPECT_EQ(submits, 6.0);   // one per completion
  EXPECT_GT(launches, 6.0);  // prefill + decodes per completion
  EXPECT_EQ(contexts, 2.0);  // one MPS client context per process
}

TEST(ObsExperiment, SamplerBusyIntegralMatchesDeviceBusyWithin1Percent) {
  const auto r = workloads::run_multiplex_experiment(small_mps_config(true));
  ASSERT_FALSE(r.partition_busy_s.empty());
  // The device's own series carries the largest integral (it subsumes all
  // client work on the GPU).
  double device_busy = 0;
  for (const auto& [name, busy] : r.partition_busy_s) {
    device_busy = std::max(device_busy, busy);
  }
  const double measured = r.gpu_busy.seconds();
  ASSERT_GT(measured, 0.0);
  EXPECT_NEAR(device_busy, measured, measured * 0.01);
}

TEST(ObsExperiment, TelemetryNeverPerturbsVirtualTime) {
  const auto off = workloads::run_multiplex_experiment(small_mps_config(false));
  const auto on = workloads::run_multiplex_experiment(small_mps_config(true));
  EXPECT_EQ(off.batch.makespan.ns, on.batch.makespan.ns);
  EXPECT_EQ(off.run_end.ns, on.run_end.ns);
  EXPECT_EQ(off.gpu_busy.ns, on.gpu_busy.ns);
}

TEST(ObsExperiment, DisabledObservabilityLeavesNoResidue) {
  const auto r = workloads::run_multiplex_experiment(small_mps_config(false));
  EXPECT_TRUE(r.prometheus_text.empty());
  EXPECT_TRUE(r.obs_chrome_trace.empty());
  EXPECT_TRUE(r.dashboard_text.empty());
  EXPECT_TRUE(r.partition_busy_s.empty());
}

TEST(ObsExperiment, DashboardRendersTheHeadlineSections) {
  const auto r = workloads::run_multiplex_experiment(small_mps_config(true));
  ASSERT_FALSE(r.dashboard_text.empty());
  EXPECT_NE(r.dashboard_text.find("telemetry"), std::string::npos);
  EXPECT_NE(r.dashboard_text.find("dfk_submits_total"), std::string::npos);
  EXPECT_NE(r.dashboard_text.find("partition"), std::string::npos);
}

TEST(ObsExport, DashboardFromABareTelemetryDoesNotCrash) {
  sim::Simulator sim;
  Telemetry tel(sim);
  tel.metrics().counter("lonely_total").add();
  tel.finish();
  std::ostringstream os;
  write_dashboard(os, tel, "bare");
  EXPECT_NE(os.str().find("bare"), std::string::npos);
  EXPECT_NE(os.str().find("lonely_total"), std::string::npos);
}

TEST(ObsExport, DashboardRendersSloAlertsAndFlightState) {
  sim::Simulator sim;
  TelemetryOptions topts;
  topts.flight = true;
  Telemetry tel(sim, topts);

  SloTarget target;
  target.tenant = "llm";
  target.target = 0.9;
  tel.slo().configure("fn-1", target);
  // Drive a fire transition (and, through the telemetry hook, a flight
  // dump): 12 consecutive breaches saturate both burn windows.
  for (int i = 0; i < 12; ++i) {
    tel.slo().record_latency("fn-1", util::seconds(2), /*good=*/false);
  }
  ASSERT_FALSE(tel.slo().alerts().empty());
  ASSERT_NE(tel.flight(), nullptr);
  EXPECT_GE(tel.flight()->dumps().size(), 1u);

  tel.finish();
  std::ostringstream os;
  write_dashboard(os, tel, "incident");
  const std::string text = os.str();
  EXPECT_NE(text.find("slo alert"), std::string::npos);
  EXPECT_NE(text.find("fire"), std::string::npos);
  EXPECT_NE(text.find("fn-1"), std::string::npos);
  EXPECT_NE(text.find("llm"), std::string::npos);
  EXPECT_NE(text.find("flight recorder:"), std::string::npos);
  EXPECT_NE(text.find("1 dumps"), std::string::npos);
}

}  // namespace
}  // namespace faaspart::obs
