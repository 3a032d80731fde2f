// faasbench — shared types of the benchmark driver.
//
// One invocation runs one workload once (or one layer probe) in its own
// process and prints one JSON object; perfbench/run.py spawns the
// invocations, checks them and reduces them to the reported metrics.
//
// A workload's testbed is built here from the same public APIs the runner's
// run_*_point uses, so the driver can time set-up apart from the run, read
// Simulator::processed_events(), and time the public calls it makes. The
// outcome it reduces is rendered with the runner's own render_* function,
// which is how it is checked against run_*_point for the same point.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace faasbench {

/// Telemetry tier installed on the run's simulator.
enum class Tel { kOff, kMetrics, kFull };

struct RunOptions {
  std::string workload;  ///< cluster-mps | scenario-cpu | llm-disagg
  std::uint64_t seed = 1;
  Tel tel = Tel::kOff;
  /// cluster-mps only: give each Endpoint its (nullable) trace::Recorder, as
  /// the runner does. Off for the differential run.
  bool recorder = true;
  /// Time every public submit call the arrival driver makes.
  bool time_calls = false;
  /// Ledger run: sample the operating point (pending events, running
  /// kernels, service queue depth, KV pages) from a weak periodic event and
  /// keep the serving engines' iteration logs. Its host times are not used.
  bool ledger = false;
  /// cluster-mps fleet size; arrival rates scale with it (ladder mode).
  int endpoints = 16;
};

/// Host cost of one run, measured from outside the simulator.
struct HostCost {
  double setup_s = 0;    ///< process CPU: testbed + inputs, up to the first event
  double run_cpu_s = 0;  ///< process CPU: first event until results are reduced
  double wall_s = 0;     ///< steady clock: set-up + run
  double peak_rss_mb = 0;
};

/// Modelled outcome of one run (virtual time; deterministic per seed).
struct Outcome {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t good = 0;  ///< completions within their class deadline / TTFT SLO
  double window_s = 0;   ///< simulated arrival window
  double p50_s = 0;      ///< submit → settle over completed requests
  double p99_s = 0;
  /// The runner's rendering of this run's result row — byte-equal to
  /// rendering run_*_point's result for the same point when the testbeds
  /// agree. Without a Recorder the cluster-mps GPU-util column reads 0.
  std::string rendered;
};

struct RunResult {
  Outcome outcome;
  HostCost host;
  std::uint64_t sim_events = 0;
  /// Per-layer values, named `layer.metric`; those read from telemetry
  /// counters are 0 unless a telemetry tier was installed.
  std::map<std::string, double> layers;
  /// Operating point for the probes (present when RunOptions::ledger).
  std::map<std::string, double> op_point;
};

/// Builds, runs and reduces one workload. Throws on an unknown workload.
RunResult run_workload(const RunOptions& opts);

/// Renders the result row of runner::run_*_point for the same point, seed
/// and fleet size (untraced, as the runner's sweeps run it).
std::string runner_rendered(const RunOptions& opts);

/// Process CPU seconds; the single-threaded driver makes it the run's CPU.
double cpu_now();

/// Runs probe `kind` (sim | sched | wfq | kv | recorder) at the operating
/// point `params` and returns host ns per operation.
double run_probe(const std::string& kind, const std::map<std::string, double>& params);

}  // namespace faasbench
