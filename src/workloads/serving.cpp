#include "workloads/serving.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faaspart::workloads {

namespace {

/// What the closed-loop clients of one batch fold as their tasks settle:
/// two samples per completed task, then one summary when the last client
/// finishes.
struct BatchTally {
  std::vector<double> run_times;
  std::vector<double> completions;
  util::TimePoint first_start{INT64_MAX};
  util::TimePoint last_finish{0};
  std::size_t tasks = 0;
  std::size_t failures = 0;
  int clients_left = 0;

  void add(const faas::TaskRecord& rec) {
    ++tasks;
    if (rec.state == faas::TaskRecord::State::kFailed) {
      ++failures;
      return;
    }
    run_times.push_back(rec.run_time().seconds());
    completions.push_back(rec.completion_time().seconds());
    first_start = std::min(first_start, rec.started);
    last_finish = std::max(last_finish, rec.finished);
  }

  [[nodiscard]] BatchRunResult summary() {
    BatchRunResult r;
    r.tasks = tasks;
    r.failures = failures;
    if (last_finish > first_start) r.makespan = last_finish - first_start;
    r.latency = trace::summarize(std::move(run_times));
    r.completion = trace::summarize(std::move(completions));
    return r;
  }
};

sim::Co<void> client_loop(faas::DataFlowKernel& dfk, std::string label,
                          std::shared_ptr<const faas::AppDef> app, int requests,
                          std::shared_ptr<BatchTally> tally,
                          std::shared_ptr<BatchRunResult> out) {
  for (int i = 0; i < requests; ++i) {
    faas::AppHandle h = dfk.submit(app, label);
    try {
      (void)co_await h.future;
    } catch (...) {
      // Failure is reflected in the record; the loop carries on (a real
      // client would log and continue).
    }
    tally->add(*h.record);
  }
  if (--tally->clients_left == 0) *out = tally->summary();
}

sim::Co<void> open_loop(sim::Simulator& sim, double rate_hz,
                        util::Duration duration, std::uint64_t seed,
                        std::function<void()> submit_one) {
  util::Rng rng(seed);
  const util::TimePoint end = sim.now() + duration;
  while (sim.now() < end) {
    co_await sim.delay(rng.exponential_duration(util::from_seconds(1.0 / rate_hz)));
    if (sim.now() >= end) break;
    submit_one();
  }
}

}  // namespace

std::vector<int> split_evenly(int total, int parts) {
  FP_CHECK_MSG(parts >= 1, "need at least one part");
  FP_CHECK_MSG(total >= 0, "negative total");
  std::vector<int> shares(static_cast<std::size_t>(parts), total / parts);
  for (int i = 0; i < total % parts; ++i) ++shares[static_cast<std::size_t>(i)];
  return shares;
}

void spawn_closed_loop_batch(sim::Simulator& sim, faas::DataFlowKernel& dfk,
                             const std::string& executor_label, faas::AppDef app,
                             int clients, int total_tasks,
                             std::shared_ptr<BatchRunResult> out) {
  FP_CHECK_MSG(clients >= 1, "need at least one client");
  FP_CHECK_MSG(total_tasks >= clients, "fewer tasks than clients");
  auto tally = std::make_shared<BatchTally>();
  tally->clients_left = clients;
  const auto shared_app = std::make_shared<const faas::AppDef>(std::move(app));
  const std::vector<int> shares = split_evenly(total_tasks, clients);
  for (int c = 0; c < clients; ++c) {
    sim.spawn(client_loop(dfk, executor_label, shared_app,
                          shares[static_cast<std::size_t>(c)], tally, out),
              "client" + std::to_string(c));
  }
}

void spawn_open_loop_fn(sim::Simulator& sim, double rate_hz,
                        util::Duration duration, std::uint64_t seed,
                        std::function<void()> submit_one) {
  FP_CHECK_MSG(rate_hz > 0, "rate must be positive");
  FP_CHECK_MSG(static_cast<bool>(submit_one), "open loop needs a callback");
  sim.spawn(open_loop(sim, rate_hz, duration, seed, std::move(submit_one)),
            "open-loop");
}

void spawn_open_loop(sim::Simulator& sim, faas::DataFlowKernel& dfk,
                     const std::string& executor_label, faas::AppDef app,
                     double rate_hz, util::Duration duration, std::uint64_t seed,
                     std::shared_ptr<std::vector<TaskOutcome>> out) {
  spawn_open_loop_fn(
      sim, rate_hz, duration, seed,
      [&dfk, label = executor_label,
       app = std::make_shared<const faas::AppDef>(std::move(app)), out] {
        (void)dfk.submit(app, label, {}, [out](const faas::TaskRecord& rec) {
          out->push_back(TaskOutcome{rec.run_time(), rec.completion_time(), rec.state});
        });
      });
}

}  // namespace faaspart::workloads
