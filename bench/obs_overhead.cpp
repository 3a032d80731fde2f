// Observability host-overhead budget — the same cluster-serving point run
// three ways: telemetry off, metrics-only (counters + SLO monitors, no span
// collection), and full (tracing + flight recorder). Reports best-of-rounds
// CPU time per mode and writes the machine-readable summary to
// BENCH_obs.json (path overridable as argv[1]).
//
// The gate tier1.sh enforces: metrics-only must stay within 2% of off. Full
// tracing is reported informationally — span collection allocates per
// request and is an opt-in diagnostic mode, not the steady-state default.
//
// Methodology: single-threaded workload, so CLOCK_PROCESS_CPUTIME_ID
// (immune to scheduler preemption on a shared host), best of a number of
// interleaved rounds fixed before any reading, so no reading decides
// whether to measure more. Each run also cross-checks the virtual outcome
// against the telemetry-off baseline — the zero-perturbation property,
// enforced here so a perf regression can't hide behind a behavior change.
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "runner/experiments.hpp"
#include "trace/table.hpp"
#include "util/strings.hpp"

using namespace faaspart;

namespace {

double cpu_now() {
  timespec ts{};
  // faaspart-lint: allow(D1) -- host-side overhead benchmark: measures real
  // CPU time of the harness itself, never feeds simulated results
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Mode {
  std::string name;
  bool observability = false;
  bool tracing = false;
  bool flight = false;
};

runner::ClusterServingPoint make_point(const Mode& m) {
  runner::ClusterServingOptions o;
  o.endpoints = 8;
  o.window = util::seconds(90);
  o.observability = m.observability;
  o.obs_tracing = m.tracing;
  o.flight = m.flight;
  runner::ClusterServingPoint p;
  p.policy = federation::ClusterPolicy::kLeastLoaded;
  p.rate_mult = 1.0;
  p.opts = o;
  return p;
}

/// (offered, admitted, shed, throughput) — the virtual outcome that must be
/// identical across modes for the timing comparison to mean anything.
std::string outcome_digest(const runner::ClusterServingResult& r) {
  return util::strf(r.offered, "|", r.admitted, "|", r.shed, "|", r.throughput,
                    "|", r.p99_s);
}

struct Timing {
  double best_s = 1e30;
  std::vector<double> reps_s;
  std::string digest;
};

void time_mode_once(const Mode& m, Timing& t) {
  const double start = cpu_now();
  const auto result = runner::run_cluster_serving_point(make_point(m));
  const double elapsed = cpu_now() - start;
  t.reps_s.push_back(elapsed);
  t.best_s = std::min(t.best_s, elapsed);
  t.digest = outcome_digest(result);
}

std::string workload_label(const runner::ClusterServingPoint& p) {
  return util::strf("cluster_serving ", federation::to_string(p.policy), " ",
                    p.rate_mult, "x, ", p.opts.endpoints, " endpoints, ",
                    p.opts.window.seconds(), " s");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  constexpr double kGatePct = 2.0;
  constexpr int kRounds = 10;

  const std::vector<Mode> modes = {
      {"off", false, false, false},
      {"metrics", true, false, false},
      {"full", true, true, true},
  };

  // Interleave the modes across rounds, rotating which goes first, so slow
  // drift on a shared host — thermal throttling, a neighbor's burst — hits
  // every mode alike instead of biasing whichever ran last.
  std::vector<Timing> timings(modes.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < modes.size(); ++k) {
      const std::size_t i = (static_cast<std::size_t>(round) + k) % modes.size();
      time_mode_once(modes[i], timings[i]);
    }
  }
  std::cout << kRounds << " interleaved rounds\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    std::cout << "mode " << modes[i].name << ": best of " << kRounds << " rounds "
              << util::strf(timings[i].best_s) << " s CPU (rounds:";
    for (const double s : timings[i].reps_s) std::cout << " " << util::strf(s);
    std::cout << ")\n";
  }

  bool perturbed = false;
  for (std::size_t i = 1; i < timings.size(); ++i) {
    if (timings[i].digest != timings[0].digest) {
      perturbed = true;
      std::cout << "FAIL: mode " << modes[i].name
                << " changed the virtual outcome\n  off:  " << timings[0].digest
                << "\n  " << modes[i].name << ": " << timings[i].digest << "\n";
    }
  }

  const auto overhead_pct = [&](std::size_t i) {
    return 100.0 * (timings[i].best_s - timings[0].best_s) / timings[0].best_s;
  };
  // The runs are deterministic, so each mode's true cost is the infimum of
  // its round times; the fixed round count keeps the stopping rule from
  // favouring either verdict.
  const double metrics_pct = overhead_pct(1);
  const double full_pct = overhead_pct(2);

  trace::Table table({"mode", "cpu (s)", "overhead"});
  table.add_row({"off", util::strf(timings[0].best_s), "-"});
  table.add_row({"metrics", util::strf(timings[1].best_s),
                 util::strf(metrics_pct, "%")});
  table.add_row({"full", util::strf(timings[2].best_s),
                 util::strf(full_pct, "%")});
  std::cout << "\n" << table.to_string() << "\n";

  const bool gate_pass = !perturbed && metrics_pct < kGatePct;
  std::cout << "gate: metrics-only overhead " << util::strf(metrics_pct)
            << "% vs budget " << kGatePct << "% -> "
            << (gate_pass ? "PASS" : "FAIL") << "\n";

  std::ofstream js(json_path);
  js << "{\n"
     << "  \"bench\": \"obs_overhead\",\n"
     << "  \"workload\": \"" << workload_label(make_point(modes[0])) << "\",\n"
     << "  \"rounds\": " << kRounds << ",\n"
     << "  \"off_cpu_s\": " << timings[0].best_s << ",\n"
     << "  \"metrics_cpu_s\": " << timings[1].best_s << ",\n"
     << "  \"full_cpu_s\": " << timings[2].best_s << ",\n"
     << "  \"metrics_overhead_pct\": " << metrics_pct << ",\n"
     << "  \"full_overhead_pct\": " << full_pct << ",\n"
     << "  \"outcome_identical\": " << (perturbed ? "false" : "true") << ",\n"
     << "  \"gate_threshold_pct\": " << kGatePct << ",\n"
     << "  \"gate_pass\": " << (gate_pass ? "true" : "false") << "\n"
     << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return gate_pass ? 0 : 1;
}
