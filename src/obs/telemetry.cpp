#include "obs/telemetry.hpp"

#include <filesystem>
#include <fstream>

#include "obs/chrome.hpp"
#include "obs/prometheus.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::obs {

Telemetry::Telemetry(sim::Simulator& sim, TelemetryOptions opts)
    : sim_(sim),
      opts_(opts),
      tracer_(sim),
      sampler_(sim, opts.sample_period, &metrics_),
      slo_(sim, &metrics_) {
  FP_CHECK_MSG(sim_.telemetry() == nullptr,
               "a Telemetry is already installed on this simulator");
  if (opts_.flight) {
    flight_ = std::make_unique<FlightRecorder>(sim);
    // A burn-rate alert is exactly the "something went wrong" moment the
    // flight recorder exists for: snapshot the rings at the transition.
    slo_.set_alert_hook([this](const SloAlert& alert) {
      flight_->record("slo", alert.firing ? "alert-fire" : "alert-clear",
                      util::strf(alert.key, " burn long=",
                                 util::fixed(alert.burn_long, 2),
                                 " short=", util::fixed(alert.burn_short, 2)));
      if (alert.firing) flight_->dump(util::strf("slo:", alert.key));
    });
  }
  sim_.install_telemetry(this);
}

Telemetry::~Telemetry() { sim_.install_telemetry(nullptr); }

void Telemetry::finish() { sampler_.finish(); }

std::vector<std::string> Telemetry::export_all(const std::string& dir,
                                               const trace::Recorder* rec) {
  finish();
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;

  const auto open = [&](const char* file) {
    const std::string path = (std::filesystem::path(dir) / file).string();
    std::ofstream os(path);
    if (!os) throw util::Error(util::strf("cannot write ", path));
    paths.push_back(path);
    return os;
  };

  {
    auto os = open("metrics.prom");
    write_prometheus(os, metrics_);
  }
  {
    auto os = open("trace.json");
    write_enriched_chrome_trace(os, rec, tracer(), &sampler_);
  }
  {
    auto os = open("timeseries.csv");
    sampler_.write_csv(os);
  }
  if (flight_ != nullptr) {
    auto os = open("flight.fdump");
    flight_->write(os);
  }
  return paths;
}

}  // namespace faaspart::obs
