#include "faas/dfk.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::faas {

namespace {

/// Ceiling on one retry pause, however many attempts have failed.
constexpr util::Duration kBackoffCap = util::seconds(60);

}  // namespace

DataFlowKernel::DataFlowKernel(sim::Simulator& sim, Config cfg)
    : sim_(sim), cfg_(cfg), all_settled_(sim) {}

void DataFlowKernel::add_executor(std::unique_ptr<HighThroughputExecutor> executor) {
  FP_CHECK(executor != nullptr);
  const std::string label = executor->label();
  const auto [it, inserted] = executors_.emplace(label, std::move(executor));
  if (!inserted) {
    throw util::ConfigError(util::strf("duplicate executor label '", label, "'"));
  }
}

HighThroughputExecutor& DataFlowKernel::executor(const std::string& label) {
  const auto it = executors_.find(label);
  if (it == executors_.end()) {
    throw util::NotFoundError(util::strf("executor '", label, "'"));
  }
  return *it->second;
}

const HighThroughputExecutor& DataFlowKernel::executor(
    const std::string& label) const {
  const auto it = executors_.find(label);
  if (it == executors_.end()) {
    throw util::NotFoundError(util::strf("executor '", label, "'"));
  }
  return *it->second;
}

AppHandle DataFlowKernel::submit(std::shared_ptr<const AppDef> app,
                                 const std::string& executor_label,
                                 obs::TraceContext parent, SettleHook on_settle) {
  return start({}, std::move(app), executor_label, parent, std::move(on_settle));
}

AppHandle DataFlowKernel::submit(AppDef app, const std::string& executor_label,
                                 obs::TraceContext parent) {
  return submit(std::make_shared<const AppDef>(std::move(app)), executor_label, parent);
}

AppHandle DataFlowKernel::submit_after(std::vector<sim::Future<AppValue>> deps,
                                       AppDef app,
                                       const std::string& executor_label,
                                       obs::TraceContext parent) {
  return start(std::move(deps), std::make_shared<const AppDef>(std::move(app)),
               executor_label, parent, {});
}

AppHandle DataFlowKernel::start(std::vector<sim::Future<AppValue>> deps,
                                std::shared_ptr<const AppDef> app,
                                const std::string& executor_label,
                                obs::TraceContext parent, SettleHook on_settle) {
  HighThroughputExecutor* ex = &executor(executor_label);
  auto logical = std::make_shared<TaskRecord>();
  logical->id = next_id_++;
  logical->app = app->name;
  logical->submitted = sim_.now();
  if (auto* tel = sim_.telemetry()) {
    if (!obs_metrics_resolved_) resolve_task_metrics();
    submits_counter_->add();
    if (auto* tracer = tel->tracer()) {
      // Root of the task's causal tree; every attempt/queue/cold/body/kernel
      // span downstream hangs off it. With an upstream parent (a federation
      // request root), the task tree attaches there instead of starting a
      // new trace.
      const auto trace = parent.active() ? parent.trace : tracer->begin_trace();
      const auto root = tracer->open_span(trace, parent.span, logical->app,
                                          "task", executor_label);
      logical->trace = obs::TraceContext{trace, root};
    }
  }
  sim::Promise<AppValue> outer(sim_);
  auto future = outer.future();
  ++submitted_;
  // The task enters live_ as its coroutine starts, which spawn() does now.
  sim_.spawn(run_attempts(std::move(app), ex, std::move(outer), logical, std::move(deps),
                          std::move(on_settle)),
             "dfk/task" + std::to_string(logical->id));
  return AppHandle{std::move(future), std::move(logical)};
}

sim::Co<void> DataFlowKernel::run_attempts(
    std::shared_ptr<const AppDef> app, HighThroughputExecutor* ex,
    sim::Promise<AppValue> outer, std::shared_ptr<TaskRecord> logical,
    std::vector<sim::Future<AppValue>> deps, SettleHook on_settle) {
  std::size_t slot = 0;  // this task's index in live_; removals keep it current
  track(logical, &slot);
  auto* tel = sim_.telemetry();
  obs::Tracer* tracer =
      tel != nullptr && logical->trace.active() ? tel->tracer() : nullptr;
  const auto count = [tel](const char* name, double n = 1.0) {
    // faaspart-lint: allow(O1) -- cold path: only retry/failure bookkeeping
    // goes through this helper, never the per-task happy path
    if (tel != nullptr) tel->metrics().counter(name).add(n);
  };
  const auto close_root = [&](const std::string& note) {
    if (tracer == nullptr) return;
    if (!note.empty()) tracer->annotate(logical->trace.span, note);
    tracer->close_span(logical->trace.span);
  };

  // Dependency stage: a failed parent fails this task immediately.
  for (auto& dep : deps) {
    try {
      (void)co_await dep;
    } catch (...) {
      logical->state = TaskRecord::State::kFailed;
      logical->finished = sim_.now();
      logical->error = "dependency failed";
      count("dfk_dependency_failures_total");
      close_root("dependency failed");
      outer.set_exception(std::make_exception_ptr(
          util::TaskFailedError(util::strf(app->name, ": dependency failed"))));
      ++failed_;
      note_settled(slot, on_settle);
      co_return;
    }
  }

  for (int attempt = 0;; ++attempt) {
    std::uint64_t attempt_span = 0;
    if (tracer != nullptr) {
      attempt_span =
          tracer->open_span(logical->trace.trace, logical->trace.span,
                            app->name, "attempt", ex->label(), attempt + 1);
    }
    AppHandle h = ex->submit(app);
    // Safe to stamp after submit(): futures defer every wakeup through the
    // event queue, so the worker cannot have observed the record yet.
    h.record->trace = obs::TraceContext{logical->trace.trace, attempt_span};
    logical->tries = attempt + 1;
    try {
      AppValue v = co_await h.future;
      // Fold the successful attempt's observables into the logical record.
      logical->worker = h.record->worker;
      logical->started = h.record->started;
      logical->finished = h.record->finished;
      logical->cold_start = h.record->cold_start;
      logical->state = TaskRecord::State::kDone;
      if (tracer != nullptr) tracer->close_span(attempt_span);
      if (completion_hist_ != nullptr) {
        completion_hist_->observe(logical->completion_time().seconds());
        queue_hist_->observe(logical->queue_time().seconds());
      }
      close_root("");
      outer.set_value(std::move(v));
      note_settled(slot, on_settle);
      co_return;
    } catch (const std::exception& e) {
      if (tracer != nullptr) {
        tracer->annotate(attempt_span, e.what());
        tracer->close_span(attempt_span);
      }
      if (attempt >= cfg_.retries) {
        logical->worker = h.record->worker;
        logical->finished = sim_.now();
        logical->state = TaskRecord::State::kFailed;
        logical->error = e.what();
        count("dfk_failures_total");
        close_root(util::strf("failed after ", logical->tries, " attempts"));
        outer.set_exception(std::current_exception());
        ++failed_;
        note_settled(slot, on_settle);
        co_return;
      }
      // Resubmit (Parsl logs and retries transparently) — the backoff pause
      // happens below, outside the handler (no co_await in a catch block).
      count("dfk_retries_total");
      ++retries_;
    }
    const util::Duration pause = backoff_delay(attempt + 1);
    if (pause.ns > 0) {
      logical->backoff_total += pause;
      count("dfk_backoff_seconds_total", pause.seconds());
      std::uint64_t backoff_span = 0;
      if (tracer != nullptr) {
        backoff_span =
            tracer->open_span(logical->trace.trace, logical->trace.span,
                              app->name, "backoff", "", attempt + 1);
      }
      co_await sim_.delay(pause);
      if (tracer != nullptr) tracer->close_span(backoff_span);
    }
  }
}

util::Duration DataFlowKernel::backoff_delay(int failed_attempts) const {
  util::Duration pause = cfg_.retry_backoff;
  if (pause.ns <= 0) return util::Duration{};
  for (int n = 1; n < failed_attempts && pause < kBackoffCap; ++n) {
    pause += pause;
  }
  return std::min(pause, kBackoffCap);
}

void DataFlowKernel::resolve_task_metrics() {
  auto* tel = sim_.telemetry();
  if (tel == nullptr) return;  // don't latch — telemetry may install later
  obs_metrics_resolved_ = true;
  auto& m = tel->metrics();
  submits_counter_ = &m.counter("dfk_submits_total");
  completion_hist_ = &m.histogram("dfk_completion_seconds");
  queue_hist_ = &m.histogram("dfk_queue_seconds");
}

void DataFlowKernel::track(std::shared_ptr<TaskRecord> record, std::size_t* slot) {
  *slot = live_.size();
  live_.push_back(std::move(record));
  live_slots_.push_back(slot);
}

void DataFlowKernel::note_settled(std::size_t slot, const SettleHook& on_settle) {
  if (on_settle) on_settle(*live_[slot]);
  if (slot + 1 != live_.size()) {
    live_[slot] = std::move(live_.back());
    live_slots_[slot] = live_slots_.back();
    *live_slots_[slot] = slot;
  }
  live_.pop_back();
  live_slots_.pop_back();
  if (live_.empty()) all_settled_.open();
}

sim::Co<void> DataFlowKernel::wait_all_settled() {
  // New tasks may be submitted while we wait (workflows submit from task
  // bodies); each one re-arms the wait.
  while (!live_.empty()) {
    all_settled_.close();
    co_await all_settled_.wait();
  }
}

sim::Co<void> DataFlowKernel::shutdown() {
  co_await wait_all_settled();
  for (auto& [label, ex] : executors_) {
    co_await ex->shutdown();
  }
}

}  // namespace faaspart::faas
