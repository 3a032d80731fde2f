// The telemetry hub: one object that owns the metrics registry, the causal
// tracer, and the utilization sampler, and installs itself on the Simulator
// so every layer can reach it through a single nullable pointer
// (sim.telemetry()). Constructed before the devices/executors it observes
// and destroyed after them, mirroring faults::FaultInjector.
//
//   sim::Simulator sim;
//   obs::Telemetry tel(sim);          // opt in (one flag in the benches)
//   ... build testbed, run ...
//   tel.finish();                     // flush partial sampler windows
//   tel.export_all("runinfo/obs");    // metrics.prom, trace.json, timeseries.csv
//   obs::write_dashboard(std::cout, tel);
#pragma once

#include <string>
#include <vector>

#include <memory>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "util/units.hpp"

namespace faaspart::sim {
class Simulator;
}  // namespace faaspart::sim

namespace faaspart::trace {
class Recorder;
}  // namespace faaspart::trace

namespace faaspart::obs {

struct TelemetryOptions {
  /// Sampler cadence — 50 ms of virtual time, i.e. DCGM's default polling
  /// class. 0 disables periodic sampling (sources still flush at finish()).
  util::Duration sample_period = util::milliseconds(50);
  /// Causal span collection; metrics stay on when this is off.
  bool tracing = true;
  /// Post-mortem flight recorder; off by default — most runs only want
  /// metrics + spans, incident studies opt in.
  bool flight = false;
};

class Telemetry {
 public:
  explicit Telemetry(sim::Simulator& sim, TelemetryOptions opts = {});
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const TelemetryOptions& options() const { return opts_; }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] UtilizationSampler& sampler() { return sampler_; }
  [[nodiscard]] const UtilizationSampler& sampler() const { return sampler_; }

  /// Null when options().tracing is false — span call sites skip work.
  [[nodiscard]] Tracer* tracer() { return opts_.tracing ? &tracer_ : nullptr; }
  [[nodiscard]] const Tracer* tracer() const {
    return opts_.tracing ? &tracer_ : nullptr;
  }

  /// Always present; the serving layer feeds it for configured functions.
  /// Alerts automatically trigger a flight-recorder dump when one is on.
  [[nodiscard]] SloMonitor& slo() { return slo_; }
  [[nodiscard]] const SloMonitor& slo() const { return slo_; }

  /// Null when options().flight is false — recording sites skip work.
  [[nodiscard]] FlightRecorder* flight() { return flight_.get(); }
  [[nodiscard]] const FlightRecorder* flight() const { return flight_.get(); }

  /// Flushes sampler windows and stops the periodic tick. Idempotent; call
  /// after the run drains and before exporting.
  void finish();

  /// Writes metrics.prom (Prometheus text), trace.json (enriched Chrome
  /// trace; pass the run's Recorder for resource lanes, or null),
  /// timeseries.csv, and — when the flight recorder is on — flight.fdump
  /// into `dir` (created if missing). Returns the paths.
  std::vector<std::string> export_all(const std::string& dir,
                                      const trace::Recorder* rec = nullptr);

 private:
  sim::Simulator& sim_;
  TelemetryOptions opts_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  UtilizationSampler sampler_;
  SloMonitor slo_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace faaspart::obs
