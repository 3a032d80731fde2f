#include "faas/monitoring.hpp"

#include <filesystem>
#include <fstream>

#include "trace/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::faas {

namespace {

const char* state_name(TaskRecord::State s) {
  switch (s) {
    case TaskRecord::State::kPending: return "pending";
    case TaskRecord::State::kRunning: return "running";
    case TaskRecord::State::kDone: return "done";
    case TaskRecord::State::kFailed: return "failed";
  }
  return "?";
}

}  // namespace

std::vector<AppSummary> Monitoring::app_summaries() const {
  std::map<std::string, AppSummary> by_app;
  std::map<std::string, std::vector<double>> runs;
  std::map<std::string, std::vector<double>> queues;
  for (const auto& r : dfk_.records()) {
    AppSummary& s = by_app[r->app];
    s.app = r->app;
    ++s.submitted;
    if (r->tries > 1) s.retries += static_cast<std::size_t>(r->tries - 1);
    if (r->timed_out) ++s.walltime_kills;
    s.backoff_total += r->backoff_total;
    if (r->state == TaskRecord::State::kDone) {
      ++s.done;
      if (r->slo_miss) ++s.slo_misses;
      if (r->memoized) ++s.memoized;
      runs[r->app].push_back(r->run_time().seconds());
      queues[r->app].push_back(r->queue_time().seconds());
      s.cold_start_total += r->cold_start;
    } else if (r->state == TaskRecord::State::kFailed) {
      ++s.failed;
    }
  }
  std::vector<AppSummary> out;
  for (auto& [app, s] : by_app) {
    s.run_time = trace::summarize(std::move(runs[app]));
    s.queue_time = trace::summarize(std::move(queues[app]));
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<WorkerSummary> Monitoring::worker_summaries() const {
  std::map<std::string, WorkerSummary> by_worker;
  for (const auto& r : dfk_.records()) {
    if (r->state != TaskRecord::State::kDone || r->worker.empty()) continue;
    WorkerSummary& s = by_worker[r->worker];
    s.worker = r->worker;
    ++s.tasks;
    s.busy += r->run_time();
  }
  std::vector<WorkerSummary> out;
  out.reserve(by_worker.size());
  for (auto& [w, s] : by_worker) out.push_back(std::move(s));
  return out;
}

std::vector<std::string> Monitoring::export_csv() const {
  namespace fs = std::filesystem;
  fs::create_directories(run_dir_);
  std::vector<std::string> written;

  {
    const std::string path = (fs::path(run_dir_) / "tasks.csv").string();
    std::ofstream os(path);
    if (!os) throw util::Error("cannot write " + path);
    trace::CsvWriter csv(os);
    csv.row({"id", "app", "executor", "worker", "state", "tries",
             "submitted_s", "started_s", "finished_s", "cold_start_s",
             "error", "backoff_s", "timed_out"});
    for (const auto& r : dfk_.records()) {
      csv.row({std::to_string(r->id), r->app, r->executor, r->worker,
               state_name(r->state), std::to_string(r->tries),
               util::fixed(r->submitted.seconds(), 6),
               util::fixed(r->started.seconds(), 6),
               util::fixed(r->finished.seconds(), 6),
               util::fixed(r->cold_start.seconds(), 6), r->error,
               util::fixed(r->backoff_total.seconds(), 6),
               r->timed_out ? "1" : "0"});
    }
    written.push_back(path);
  }

  if (rec_ != nullptr) {
    const std::string path = (fs::path(run_dir_) / "spans.csv").string();
    std::ofstream os(path);
    if (!os) throw util::Error("cannot write " + path);
    trace::CsvWriter csv(os);
    csv.row({"lane", "name", "category", "start_s", "end_s"});
    for (const auto& s : rec_->spans()) {
      csv.row({rec_->lane_name(s.lane), std::string(rec_->label(s.name)),
               std::string(rec_->label(s.category)),
               util::fixed(s.start.seconds(), 6),
               util::fixed(s.end.seconds(), 6)});
    }
    written.push_back(path);
  }
  return written;
}

}  // namespace faaspart::faas
