// TraceDriver — deterministic replay of an .fstrace scenario into the
// cluster serving layer (DESIGN.md §11).
//
// The driver owns none of the serving stack: the caller builds the
// Simulator, endpoints and ClusterService, then hands the driver a trace
// plus an AppDef factory. Each request's settle hook writes into the
// driver, so the driver must outlive the run. bind_all() registers one function per catalog
// entry (through the ComputeService) and installs its serving class;
// start() spawns the arrival coroutine, which submits each event at its
// exact virtual timestamp — so a trace replays byte-identically however
// many runner jobs shard the surrounding sweep, and a synthesize→save→
// load→replay round trip lands on the same outcome digest.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "faas/app.hpp"
#include "federation/cluster.hpp"
#include "scenario/trace.hpp"
#include "trace/stats.hpp"

namespace faaspart::scenario {

/// Outcome of one replay, summarized after the cluster drains.
struct ReplayReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< records in State::kDone
  std::size_t shed = 0;       ///< failed with a ShedError ("shed: ...")
  std::size_t failed = 0;     ///< failed for any other reason, or unsettled
  std::size_t unsettled = 0;  ///< never settled (also counted in `failed`)
  /// Completed within their class deadline (every completion when the
  /// deadline is 0).
  std::size_t within_deadline = 0;
  std::map<std::string, std::size_t> submitted_by_function;
  std::map<std::string, std::size_t> completed_by_tenant;
  trace::Summary completion;  ///< submit→finish seconds, completed requests
  /// FNV-1a over every request's (function, state, finished_ns, error) in
  /// submit order — byte-identical replays have equal digests.
  std::string digest;
};

class TraceDriver {
 public:
  /// Builds an executable app for a catalog entry. The returned AppDef's
  /// name is overridden with the catalog name so reports reconcile.
  using AppFactory = std::function<faas::AppDef(const TraceFunction&)>;

  /// Sorts the trace's events by (time, input order); `trace` must be
  /// valid (scenario::validate) — throws TraceFormatError otherwise.
  TraceDriver(sim::Simulator& sim, federation::ClusterService& cluster,
              Trace trace);

  /// Picks the executor label a catalog function's submits target — lets
  /// one trace span heterogeneous executors (e.g. one GPU executor per
  /// function under the Repartitioner).
  using LabelFn = std::function<std::string(const TraceFunction&)>;

  /// Registers every catalog function with the compute service, installs
  /// its FunctionClass on the cluster, and remembers the (function id,
  /// executor label) binding replay will submit with.
  void bind_all(const AppFactory& make_app, const std::string& executor_label);
  void bind_all(const AppFactory& make_app, const LabelFn& label_of);

  /// Spawns the arrival coroutine; the caller then runs the simulator and
  /// drains the cluster (typically shutdown after the trace horizon).
  void start();

  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// The ComputeService function id bind_all registered for a catalog name —
  /// what callers need to configure per-function machinery (e.g. the online
  /// Repartitioner) around a replay. Throws std::out_of_range before
  /// bind_all or for names missing from the catalog.
  [[nodiscard]] const std::string& function_id(const std::string& name) const {
    return bindings_.at(name).function_id;
  }

  /// Summarizes the replay; call after the simulator drained.
  [[nodiscard]] ReplayReport report() const;

 private:
  struct Binding {
    std::string function_id;
    std::string executor_label;
    std::uint32_t function = 0;  ///< index into trace_.catalog
  };

  /// What report() reads of one request, written as it settles: 24 bytes
  /// where its AppHandle would keep a future state and a record alive.
  struct Outcome {
    util::TimePoint finished{};
    util::Duration completion{};  ///< submit → finish
    std::uint32_t function = 0;   ///< index into trace_.catalog
    std::uint16_t error = 0;      ///< index into errors_; 0 is no error
    faas::TaskRecord::State state = faas::TaskRecord::State::kPending;
  };
  static_assert(sizeof(Outcome) <= 24);

  sim::Co<void> arrivals();
  /// Writes request `i`'s outcome from its final record.
  void settle(std::size_t i, const faas::TaskRecord& rec);

  sim::Simulator& sim_;
  federation::ClusterService& cluster_;
  Trace trace_;
  std::map<std::string, Binding> bindings_;
  std::vector<Outcome> outcomes_;  ///< in submission order
  /// Distinct error texts, so a failed request keeps an index rather than a
  /// string. There are a few: shed reasons and task failure messages.
  std::vector<std::string> errors_{""};
  bool started_ = false;
};

/// Convenience one-shot: bind, replay, drain `drain_grace` past the trace
/// horizon, shut the cluster down, and return the report.
ReplayReport replay_trace(sim::Simulator& sim,
                          federation::ClusterService& cluster, Trace trace,
                          const TraceDriver::AppFactory& make_app,
                          const std::string& executor_label,
                          util::Duration drain_grace = util::seconds(60));

}  // namespace faaspart::scenario
