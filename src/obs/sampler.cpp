#include "obs/sampler.hpp"

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::obs {

UtilizationSampler::UtilizationSampler(sim::Simulator& sim,
                                       util::Duration period,
                                       MetricsRegistry* metrics)
    : sim_(sim), period_(period), metrics_(metrics) {
  FP_CHECK_MSG(period_.ns >= 0, "negative sample period");
  if (period_.ns > 0) arm();
}

UtilizationSampler::~UtilizationSampler() {
  if (tick_event_ != 0) sim_.cancel(tick_event_);
}

void UtilizationSampler::arm() {
  tick_event_ = sim_.schedule_weak_in(period_, [this] { tick(); });
}

UtilizationSampler::SourceId UtilizationSampler::add_source(std::string name,
                                                            Probes probes) {
  const SourceId id = series_.size();
  Series s;
  s.name = std::move(name);
  series_.push_back(std::move(s));
  State st;
  st.probes = std::move(probes);
  st.window_start = sim_.now();
  st.busy_seen = st.probes.busy ? st.probes.busy() : util::Duration{};
  if (metrics_ != nullptr) {
    const Labels labels{{"partition", series_[id].name}};
    if (st.probes.busy) {
      st.util_gauge = &metrics_->gauge("partition_utilization", labels);
    }
    if (st.probes.queue_depth) {
      st.queue_gauge = &metrics_->gauge("partition_queue_depth", labels);
    }
  }
  states_.push_back(std::move(st));
  return id;
}

void UtilizationSampler::flush(SourceId id) {
  auto& series = series_[id];
  auto& st = states_[id];
  const util::TimePoint now = sim_.now();
  const util::Duration window = now - st.window_start;
  if (window.ns <= 0) return;

  PartitionSample sample;
  sample.at = now;
  if (st.probes.busy) {
    const util::Duration busy_now = st.probes.busy();
    const util::Duration delta = busy_now - st.busy_seen;
    sample.utilization = delta / window;
    series.busy_integral_s += delta.seconds();
    st.busy_seen = busy_now;
  }
  if (st.probes.queue_depth) sample.queue_depth = st.probes.queue_depth();
  if (st.probes.memory) {
    sample.memory = st.probes.memory();
    if (sample.memory > series.memory_peak) series.memory_peak = sample.memory;
  }
  st.window_start = now;
  series.samples.push_back(sample);

  if (st.util_gauge != nullptr) st.util_gauge->set(sample.utilization);
  if (st.queue_gauge != nullptr) st.queue_gauge->set(sample.queue_depth);
}

void UtilizationSampler::tick() {
  tick_event_ = 0;
  if (finished_) return;
  ++ticks_;
  for (SourceId id = 0; id < series_.size(); ++id) {
    if (!series_[id].detached) flush(id);
  }
  arm();
}

void UtilizationSampler::detach(SourceId id) {
  if (id == kNoSource) return;
  FP_CHECK_MSG(id < series_.size(), "detach of unknown sampler source");
  if (series_[id].detached) return;
  flush(id);
  series_[id].detached = true;
  states_[id].probes = Probes{};
}

void UtilizationSampler::finish() {
  if (finished_) return;
  for (SourceId id = 0; id < series_.size(); ++id) {
    if (!series_[id].detached) flush(id);
  }
  finished_ = true;
  if (tick_event_ != 0) {
    sim_.cancel(tick_event_);
    tick_event_ = 0;
  }
}

const UtilizationSampler::Series* UtilizationSampler::find(
    const std::string& name) const {
  for (const auto& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void UtilizationSampler::write_csv(std::ostream& os) const {
  trace::CsvWriter csv(os);
  csv.row({"at_s", "partition", "utilization", "queue_depth", "memory_bytes"});
  for (const auto& s : series_) {
    for (const auto& p : s.samples) {
      csv.row({util::fixed(p.at.seconds(), 6), s.name,
               util::fixed(p.utilization, 6), util::fixed(p.queue_depth, 2),
               std::to_string(p.memory)});
    }
  }
}

}  // namespace faaspart::obs
