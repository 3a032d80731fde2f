// Unit tests for the telemetry primitives: the metrics registry (identity,
// label normalization, type clashes), the log-bucketed histogram, the causal
// tracer, and the virtual-time utilization sampler's window accounting.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace faaspart::obs {
namespace {

using namespace util::literals;

// -- MetricsRegistry ---------------------------------------------------------

TEST(Metrics, SameNameAndLabelsIsSameSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests_total", {{"app", "chat"}});
  a.add();
  Counter& b = reg.counter("requests_total", {{"app", "chat"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1.0);
  Counter& other = reg.counter("requests_total", {{"app", "embed"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("c", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("c", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(Metrics, TypeClashThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), util::ConfigError);
  EXPECT_THROW(reg.histogram("x"), util::ConfigError);
  reg.gauge("y", {{"k", "v"}});
  EXPECT_THROW(reg.counter("y"), util::ConfigError);  // labels don't matter
}

TEST(Metrics, SeriesIdFormatsLikePrometheus) {
  EXPECT_EQ(MetricsRegistry::series_id({"up", {}}), "up");
  EXPECT_EQ(MetricsRegistry::series_id({"up", {{"a", "1"}, {"b", "2"}}}),
            "up{a=\"1\",b=\"2\"}");
}

TEST(Metrics, GaugeSetMaxIsHighWaterMark) {
  Gauge g;
  g.set_max(5);
  g.set_max(3);
  EXPECT_EQ(g.value(), 5.0);
  g.set_max(9);
  EXPECT_EQ(g.value(), 9.0);
}

// -- Histogram ---------------------------------------------------------------

TEST(Histogram, StatsAreExactQuantilesWithinABucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  h.observe(0.001);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_NEAR(h.sum(), 100.001, 1e-9);
  EXPECT_EQ(h.min(), 0.001);
  EXPECT_EQ(h.max(), 1.0);
  // Buckets are factor-2: the p50/p95 estimates must land in 1.0's bucket.
  EXPECT_GE(h.p50(), 0.5);
  EXPECT_LE(h.p50(), 1.1);
  EXPECT_GE(h.p95(), 0.5);
  EXPECT_LE(h.p95(), 1.1);
}

TEST(Histogram, EmptyIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, BucketCountsCoverAllObservations) {
  Histogram h;
  h.observe(1e-9);  // below the first bound
  h.observe(1.0);
  h.observe(1e9);  // overflow bucket
  std::uint64_t total = 0;
  for (const auto c : h.buckets()) total += c;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(h.buckets().size(), h.bounds().size() + 1);  // +Inf bucket
  EXPECT_EQ(h.buckets().back(), 1u);
}

// -- Tracer ------------------------------------------------------------------

TEST(Tracer, SpansFormAParentedTree) {
  sim::Simulator sim;
  Tracer tr(sim);
  const auto trace = tr.begin_trace();
  const auto root = tr.open_span(trace, 0, "app", "task", "gpu");
  const auto child = tr.open_span(trace, root, "app", "attempt", "gpu", 1);
  sim.schedule_in(2_s, [&] {
    tr.close_span(child);
    tr.close_span(root);
  });
  sim.run();

  ASSERT_EQ(tr.spans().size(), 2u);
  const CausalSpan& r = tr.spans()[root - 1];
  const CausalSpan& c = tr.spans()[child - 1];
  EXPECT_EQ(r.parent, 0u);
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.trace, trace);
  EXPECT_EQ(c.attempt, 1);
  EXPECT_FALSE(r.open);
  EXPECT_EQ(r.start.ns, 0);
  EXPECT_EQ(r.end, util::TimePoint{} + 2_s);
}

TEST(Tracer, AnnotateJoinsNotesAndIgnoresNullSpan) {
  sim::Simulator sim;
  Tracer tr(sim);
  const auto id = tr.open_span(tr.begin_trace(), 0, "t", "task");
  tr.annotate(id, "first");
  tr.annotate(id, "second");
  EXPECT_EQ(tr.spans()[id - 1].note, "first; second");
  tr.annotate(0, "dropped");  // must be a no-op, not a crash
  tr.close_span(0);
}

TEST(Tracer, AddClosedRecordsHindsightIntervals) {
  sim::Simulator sim;
  Tracer tr(sim);
  const auto trace = tr.begin_trace();
  const auto root = tr.open_span(trace, 0, "t", "task");
  const auto q = tr.add_closed(trace, root, "t", "queue", util::TimePoint{} + 1_s,
                               util::TimePoint{} + 3_s, "htex");
  const CausalSpan& s = tr.spans()[q - 1];
  EXPECT_FALSE(s.open);
  EXPECT_EQ(s.start, util::TimePoint{} + 1_s);
  EXPECT_EQ(s.end, util::TimePoint{} + 3_s);
  EXPECT_EQ(s.site, "htex");
}

TEST(Tracer, TraceSpansFiltersByTraceInIdOrder) {
  sim::Simulator sim;
  Tracer tr(sim);
  const auto t1 = tr.begin_trace();
  const auto t2 = tr.begin_trace();
  const auto a = tr.open_span(t1, 0, "a", "task");
  const auto b = tr.open_span(t2, 0, "b", "task");
  const auto c = tr.open_span(t1, a, "a", "attempt");
  (void)b;
  const auto spans = tr.trace_spans(t1);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->id, a);
  EXPECT_EQ(spans[1]->id, c);
  EXPECT_EQ(tr.trace_count(), 2u);
  EXPECT_TRUE(tr.trace_spans(99).empty());
}

// -- UtilizationSampler ------------------------------------------------------

TEST(Sampler, WindowAccountingIsExact) {
  sim::Simulator sim;
  MetricsRegistry reg;
  UtilizationSampler s(sim, 1_s, &reg);
  // Busy accrues at 50% of wall time; queue depth equals the clock in
  // seconds; memory is constant.
  const auto id = s.add_source(
      "p0", {.busy = [&] { return util::Duration{sim.now().ns / 2}; },
             .queue_depth = [&] { return static_cast<double>(sim.now().ns) / 1e9; },
             .memory = [&] { return static_cast<util::Bytes>(100); }});
  EXPECT_NE(id, UtilizationSampler::kNoSource);

  sim.run_until(util::TimePoint{} + 4_s + util::milliseconds(500));
  s.finish();

  const auto* series = s.find("p0");
  ASSERT_NE(series, nullptr);
  // Ticks at 1..4 s plus the 0.5 s partial window flushed by finish().
  ASSERT_EQ(series->samples.size(), 5u);
  for (const auto& sample : series->samples) {
    EXPECT_NEAR(sample.utilization, 0.5, 1e-9);
    EXPECT_EQ(sample.memory, 100u);
  }
  EXPECT_NEAR(series->busy_integral_s, 2.25, 1e-9);
  EXPECT_EQ(series->memory_peak, 100u);
  EXPECT_EQ(series->samples.back().at, util::TimePoint{} + 4_s + util::milliseconds(500));
  // Queue depths are snapshots at window ends: 1,2,3,4,4.5.
  EXPECT_NEAR(series->samples[3].queue_depth, 4.0, 1e-9);
  EXPECT_NEAR(series->samples[4].queue_depth, 4.5, 1e-9);
  EXPECT_EQ(s.find("unknown"), nullptr);
}

TEST(Sampler, SamplerNeverKeepsTheRunAlive) {
  sim::Simulator sim;
  UtilizationSampler s(sim, 1_s);
  (void)s.add_source("p0", {.busy = [] { return util::Duration{}; }});
  sim.schedule_in(2_s + util::milliseconds(500), [] {});
  sim.run();  // would never return if the tick were a strong event
  EXPECT_EQ(sim.now(), util::TimePoint{} + 2_s + util::milliseconds(500));
  EXPECT_EQ(s.tick_count(), 2u);  // t = 1 s, 2 s; then the workload drained
}

TEST(Sampler, ZeroPeriodOnlyFlushesAtFinish) {
  sim::Simulator sim;
  UtilizationSampler s(sim, util::Duration{0});
  (void)s.add_source(
      "p0", {.busy = [&] { return util::Duration{sim.now().ns / 4}; }});
  sim.schedule_in(2_s, [] {});
  sim.run();
  s.finish();
  const auto* series = s.find("p0");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->samples.size(), 1u);  // the single [0, 2 s) window
  EXPECT_NEAR(series->samples[0].utilization, 0.25, 1e-9);
  EXPECT_NEAR(series->busy_integral_s, 0.5, 1e-9);
}

TEST(Sampler, DetachFlushesAndStopsProbing) {
  sim::Simulator sim;
  UtilizationSampler s(sim, 1_s);
  int probes = 0;
  const auto id = s.add_source("gone", {.busy = [&] {
    ++probes;
    return util::Duration{sim.now().ns};
  }});
  sim.schedule_in(util::milliseconds(500), [&] { s.detach(id); });
  sim.schedule_in(3_s, [] {});
  sim.run();
  const int probes_at_detach = probes;
  s.finish();
  EXPECT_EQ(probes, probes_at_detach);  // no probing after detach
  const auto* series = s.find("gone");
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->detached);
  ASSERT_EQ(series->samples.size(), 1u);  // the partial window at detach
  EXPECT_NEAR(series->samples[0].utilization, 1.0, 1e-9);
  EXPECT_NEAR(series->busy_integral_s, 0.5, 1e-9);
}

TEST(Sampler, FeedsPartitionGaugesIntoTheRegistry) {
  sim::Simulator sim;
  MetricsRegistry reg;
  UtilizationSampler s(sim, 1_s, &reg);
  (void)s.add_source("p0", {.busy = [&] { return util::Duration{sim.now().ns}; },
                            .queue_depth = [] { return 7.0; }});
  sim.schedule_in(2_s, [] {});
  sim.run();
  bool saw_util = false;
  bool saw_queue = false;
  for (const auto& [key, gauge] : reg.gauges()) {
    if (key.first == "partition_utilization" &&
        key.second == Labels{{"partition", "p0"}}) {
      saw_util = true;
      EXPECT_NEAR(gauge->value(), 1.0, 1e-9);
    }
    if (key.first == "partition_queue_depth" &&
        key.second == Labels{{"partition", "p0"}}) {
      saw_queue = true;
      EXPECT_NEAR(gauge->value(), 7.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw_util);
  EXPECT_TRUE(saw_queue);
}

TEST(Sampler, MissingProbesReadAsZero) {
  // Probes are optional: a source with no queue/memory probe (a CPU pool,
  // say) samples zeros there instead of crashing.
  sim::Simulator sim;
  UtilizationSampler s(sim, 1_s);
  (void)s.add_source("probeless", {});
  sim.schedule_in(2_s, [] {});
  sim.run();
  s.finish();
  const auto* series = s.find("probeless");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->samples.empty());
  for (const auto& sample : series->samples) {
    EXPECT_EQ(sample.utilization, 0.0);
    EXPECT_EQ(sample.queue_depth, 0.0);
    EXPECT_EQ(sample.memory, 0u);
  }
  EXPECT_EQ(series->busy_integral_s, 0.0);
}

TEST(Sampler, FinishIsIdempotentAndDetachTwiceIsSafe) {
  sim::Simulator sim;
  UtilizationSampler s(sim, 1_s);
  const auto id = s.add_source(
      "p0", {.busy = [&] { return util::Duration{sim.now().ns}; }});
  sim.schedule_in(1_s + 500_ms, [] {});
  sim.run();
  s.finish();
  const auto samples_after_first = s.find("p0")->samples.size();
  s.finish();  // no extra partial window
  s.detach(id);
  EXPECT_EQ(s.find("p0")->samples.size(), samples_after_first);
}

TEST(Sampler, MemoryPeakTracksTheHighWaterMark) {
  sim::Simulator sim;
  UtilizationSampler s(sim, 1_s);
  // Ramps to 300 bytes at t=2s then falls back; the peak is what capacity
  // planning reads, not the final value.
  (void)s.add_source(
      "p0", {.memory = [&]() -> util::Bytes {
        return sim.now().ns == (2_s).ns ? 300 : 100;
      }});
  sim.schedule_in(4_s, [] {});
  sim.run();
  s.finish();
  const auto* series = s.find("p0");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->memory_peak, 300u);
  EXPECT_EQ(series->samples.back().memory, 100u);
}

TEST(Sampler, CsvExportHasHeaderAndOneRowPerSample) {
  sim::Simulator sim;
  UtilizationSampler s(sim, 1_s);
  (void)s.add_source("p0", {.busy = [&] { return util::Duration{sim.now().ns}; }});
  sim.schedule_in(2_s, [] {});
  sim.run();
  s.finish();
  std::ostringstream os;
  s.write_csv(os);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(is, line)));
  EXPECT_EQ(line, "at_s,partition,utilization,queue_depth,memory_bytes");
  std::size_t rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, s.find("p0")->samples.size());
}

}  // namespace
}  // namespace faaspart::obs
