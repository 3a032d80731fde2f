// Virtual-time utilization sampler — the in-sim analogue of polling DCGM /
// `nvidia-smi` at a fixed cadence.
//
// Sources register three probes (cumulative busy time, instantaneous queue
// depth, instantaneous memory in use); every `period` the sampler snapshots
// each source into a time series of per-window utilization. The tick is a
// *weak* simulator event, so a sampler never keeps run() alive — it simply
// stops observing when the workload drains.
//
// Window accounting is exact: utilization is (busy-delta / window), and
// finish()/detach() flush a final partial window, so the utilization
// integral over a source's series equals the engine's busy time (the
// acceptance bar is agreement with trace::Recorder::busy_time within 1%;
// this construction is exact up to float rounding). The exporters and the
// terminal dashboard read these series.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace faaspart::sim {
class Simulator;
}  // namespace faaspart::sim

namespace faaspart::obs {

class Gauge;
class MetricsRegistry;

struct PartitionSample {
  util::TimePoint at{};     ///< window end
  double utilization = 0;   ///< busy fraction over the window [0, 1]
  double queue_depth = 0;   ///< instantaneous at window end
  util::Bytes memory = 0;   ///< instantaneous at window end
};

class UtilizationSampler {
 public:
  using SourceId = std::size_t;
  static constexpr SourceId kNoSource = static_cast<SourceId>(-1);

  /// Probes a partition exposes; any may be empty.
  struct Probes {
    std::function<util::Duration()> busy;  ///< cumulative busy integral
    std::function<double()> queue_depth;
    std::function<util::Bytes()> memory;
  };

  struct Series {
    std::string name;
    std::vector<PartitionSample> samples;
    double busy_integral_s = 0;   ///< sum of busy deltas seen (seconds)
    util::Bytes memory_peak = 0;
    bool detached = false;
  };

  /// `metrics` (optional) receives partition_utilization /
  /// partition_queue_depth gauges on every sample. period.ns == 0 disables
  /// ticking; sources can still register and be flushed by finish().
  UtilizationSampler(sim::Simulator& sim, util::Duration period,
                     MetricsRegistry* metrics = nullptr);
  ~UtilizationSampler();

  UtilizationSampler(const UtilizationSampler&) = delete;
  UtilizationSampler& operator=(const UtilizationSampler&) = delete;

  /// Registers a partition. Sampling of this source starts now.
  SourceId add_source(std::string name, Probes probes);

  /// Flushes a final partial window for the source and stops probing it.
  /// Partitions call this from their destructors (MIG destroy, device
  /// teardown) so the sampler never holds dangling probes.
  void detach(SourceId id);

  /// Flushes a final partial window for every attached source and stops the
  /// periodic tick. Idempotent; called by Telemetry before exporting.
  void finish();

  [[nodiscard]] util::Duration period() const { return period_; }
  [[nodiscard]] std::size_t tick_count() const { return ticks_; }
  [[nodiscard]] const std::vector<Series>& series() const { return series_; }
  [[nodiscard]] const Series* find(const std::string& name) const;

  /// timeseries.csv: at_s,partition,utilization,queue_depth,memory_bytes.
  void write_csv(std::ostream& os) const;

 private:
  struct State {
    Probes probes;
    util::TimePoint window_start{};
    util::Duration busy_seen{};  ///< probe value at window_start
    // Gauge handles resolved once at add_source (registry pointers are
    // stable), so the per-tick cost is two stores, not two map lookups.
    Gauge* util_gauge = nullptr;
    Gauge* queue_gauge = nullptr;
  };

  void tick();
  void flush(SourceId id);
  void arm();

  sim::Simulator& sim_;
  util::Duration period_{};
  MetricsRegistry* metrics_ = nullptr;
  std::vector<Series> series_;
  std::vector<State> states_;
  std::uint64_t tick_event_ = 0;
  std::size_t ticks_ = 0;
  bool finished_ = false;
};

}  // namespace faaspart::obs
