#include "faas/executor.hpp"

#include <set>

#include "faults/faults.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace faaspart::faas {

namespace {

/// The tracer iff telemetry is installed, tracing is on, and the task is
/// part of a trace — the single gate every causal-span site goes through.
obs::Tracer* tracer_for(sim::Simulator& sim, const obs::TraceContext& trace) {
  if (!trace.active()) return nullptr;
  auto* tel = sim.telemetry();
  return tel != nullptr ? tel->tracer() : nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// TaskContext (declared in app.hpp; implemented here to keep app.hpp light)
// ---------------------------------------------------------------------------

gpu::Device& TaskContext::device() {
  if (device_ == nullptr) {
    throw util::StateError(util::strf("worker '", worker_name_,
                                      "' has no accelerator binding"));
  }
  return *device_;
}

int TaskContext::sm_cap() const {
  if (device_ == nullptr) return 0;
  return device_->context(gpu_ctx_).sm_cap();
}

sim::Future<> TaskContext::launch(const gpu::KernelDesc& kernel) {
  // A worker without an accelerator throws here, before any span opens; the
  // Device closes the span where it settles the launch.
  gpu::Device& dev = device();
  obs::Tracer* tracer = tracer_for(sim_, trace_);
  const std::uint64_t span =
      tracer != nullptr ? tracer->open_span(trace_.trace, trace_.span,
                                            kernel.name, "kernel", worker_name_)
                        : 0;
  return dev.launch(gpu_ctx_, kernel, span);
}

// ---------------------------------------------------------------------------
// HighThroughputExecutor
// ---------------------------------------------------------------------------

HighThroughputExecutor::HighThroughputExecutor(sim::Simulator& sim,
                                               LocalProvider& provider,
                                               Options opts, ModelLoader* loader,
                                               trace::Recorder* rec)
    : sim_(sim),
      provider_(provider),
      opts_(std::move(opts)),
      loader_(loader),
      rec_(rec),
      central_(sim),
      idle_(sim),
      drained_(sim) {
  if (loader_ == nullptr) {
    default_loader_ = std::make_unique<DirectLoader>();
    loader_ = default_loader_.get();
  }
  seeder_ = util::Rng(opts_.seed);

  if (!opts_.bindings.empty()) {
    // GPU executor: one worker per accelerator entry (Parsl's pinning).
    for (auto& binding : opts_.bindings) create_worker(binding);
  } else {
    FP_CHECK_MSG(opts_.cpu_workers >= 1, "executor needs at least one worker");
    for (int i = 0; i < opts_.cpu_workers; ++i) create_worker(std::nullopt);
  }

  if (auto* tel = sim_.telemetry()) {
    obs::UtilizationSampler::Probes probes;
    probes.queue_depth = [this] {
      return static_cast<double>(central_.size());
    };
    obs_queue_source_ =
        tel->sampler().add_source("queue:" + opts_.label, std::move(probes));
  }
}

void HighThroughputExecutor::create_worker(
    std::optional<WorkerBinding> binding) {
  auto w = std::make_unique<Worker>();
  w->name = util::strf(opts_.label, "/worker", workers_.size());
  if (binding.has_value() && !binding->accelerator.empty()) {
    w->name += "@" + binding->accelerator;
  }
  w->binding = std::move(binding);
  w->inbox = std::make_unique<sim::Mailbox<Msg>>(sim_);
  w->rng = seeder_.fork();
  if (rec_ != nullptr) w->lane = rec_->add_lane(w->name);
  workers_.push_back(std::move(w));
}

HighThroughputExecutor::~HighThroughputExecutor() {
  if (auto* fi = sim_.faults()) {
    for (const auto id : fault_subs_) fi->unsubscribe(id);
  }
  if (auto* tel = sim_.telemetry()) {
    tel->sampler().detach(obs_queue_source_);
  }
}

void HighThroughputExecutor::start() {
  if (started_) throw util::StateError("executor '" + opts_.label + "' already started");
  started_ = true;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    sim_.spawn(worker_main(i), workers_[i]->name);
  }
  sim_.spawn(dispatcher_main(), opts_.label + "/interchange");
  subscribe_faults();
}

void HighThroughputExecutor::subscribe_faults() {
  auto* fi = sim_.faults();
  if (fi == nullptr) return;
  fault_subs_.push_back(fi->subscribe(
      faults::FaultKind::kWorkerCrash, opts_.label,
      [this](const faults::FaultEvent& ev) {
        // An explicit worker index wins; otherwise the event's salt picks
        // uniformly among the workers.
        if (ev.index >= 0) {
          if (static_cast<std::size_t>(ev.index) < workers_.size()) {
            crash_worker_now(static_cast<std::size_t>(ev.index));
          }
          return;
        }
        crash_worker_now(ev.salt % workers_.size());
      }));
  // Device-level faults kill every worker process bound to the device (a
  // reset destroys their contexts); MPS daemon death spares MIG-bound
  // workers — instances do not go through the control daemon.
  std::set<gpu::Device*> devices;
  for (const auto& w : workers_) {
    if (w->binding.has_value() && w->binding->device != nullptr) {
      devices.insert(w->binding->device);
    }
  }
  for (gpu::Device* dev : devices) {
    const std::string key = util::strf("gpu:", dev->index());
    fault_subs_.push_back(fi->subscribe(
        faults::FaultKind::kDeviceError, key,
        [this, dev](const faults::FaultEvent&) {
          for (std::size_t i = 0; i < workers_.size(); ++i) {
            const Worker& w = *workers_[i];
            if (w.binding.has_value() && w.binding->device == dev) {
              crash_worker_now(i);
            }
          }
        }));
    fault_subs_.push_back(fi->subscribe(
        faults::FaultKind::kMpsDaemonDeath, key,
        [this, dev](const faults::FaultEvent&) {
          for (std::size_t i = 0; i < workers_.size(); ++i) {
            const Worker& w = *workers_[i];
            if (w.binding.has_value() && w.binding->device == dev &&
                !w.binding->ctx_opts.instance.has_value()) {
              crash_worker_now(i);
            }
          }
        }));
  }
}

void HighThroughputExecutor::crash_worker_now(std::size_t index) {
  Worker& w = *workers_[index];
  ++crashes_injected_;
  ++w.crashes;
  if (auto* tel = sim_.telemetry()) {
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: runs only when a worker
        // crashes under fault injection
        .counter("htex_crash_respawns_total", {{"executor", opts_.label}})
        .add();
  }
  FP_LOG_DEBUG("worker '" << w.name << "' killed by fault injection");
  if (w.busy || !w.alive || !w.inbox->empty()) {
    // A task is in flight (or imminent in the inbox): the process dies
    // before its result leaves — run_task fails the task and worker_main
    // respawns the process cold.
    w.crash_pending = true;
    return;
  }
  // Idle process dies now: respawn cold immediately (dropped ack — nobody
  // waits on an unplanned death), so the next task pays only the cold start.
  sim::Promise<> ack(sim_);
  Msg m;
  m.kind = Msg::Kind::kRestart;
  m.ack = ack;
  w.inbox->put(std::move(m));
}

AppHandle HighThroughputExecutor::submit(std::shared_ptr<const AppDef> app) {
  FP_CHECK_MSG(app != nullptr && static_cast<bool>(app->body), "empty app");
  if (stopping_) {
    throw util::StateError("executor '" + opts_.label + "' is shutting down");
  }
  auto record = std::make_shared<TaskRecord>();
  record->id = next_task_id_++;
  record->app = app->name;
  record->submitted = sim_.now();
  if (!obs_metrics_resolved_) resolve_task_metrics();
  if (attempts_counter_ != nullptr) attempts_counter_->add();
  sim::Promise<AppValue> promise(sim_);
  auto future = promise.future();
  ++outstanding_;
  central_.put(QueuedTask{std::move(app), std::move(promise), record});
  return AppHandle{std::move(future), std::move(record)};
}

void HighThroughputExecutor::note_task_settled() {
  FP_CHECK(outstanding_ > 0);
  --outstanding_;
  if (stopping_ && outstanding_ == 0) drained_.open();
}

sim::Co<void> HighThroughputExecutor::dispatcher_main() {
  while (true) {
    QueuedTask task;
    try {
      task = co_await central_.get();
    } catch (const util::StateError&) {
      break;  // closed and drained — shutdown
    }
    const std::size_t w = co_await idle_.get();
    Msg m;
    m.kind = Msg::Kind::kTask;
    m.task = std::move(task);
    workers_[w]->inbox->put(std::move(m));
  }
}

sim::Co<void> HighThroughputExecutor::worker_boot(Worker& w) {
  const util::TimePoint boot_start = sim_.now();
  // (process spawn + interpreter + imports) then CUDA context init (§6).
  co_await sim_.delay(provider_.worker_launch_cost());
  if (w.binding.has_value()) {
    gpu::Device& dev = *w.binding->device;
    co_await sim_.delay(dev.arch().context_create);
    w.ctx = dev.create_context(w.name, w.binding->ctx_opts);
    w.ctx_live = true;
  }
  w.alive = true;
  if (auto* tel = sim_.telemetry()) {
    const obs::Labels labels{{"executor", opts_.label}};
    // faaspart-lint: allow(O1) -- cold path: a boot pays hundreds of ms of
    // simulated init, so the registry lookup is invisible next to it
    tel->metrics().counter("htex_worker_boots_total", labels).add();
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: same boot event as above
        .counter("htex_worker_boot_seconds_total", labels)
        .add((sim_.now() - boot_start).seconds());
  }
}

void HighThroughputExecutor::worker_teardown(Worker& w) {
  w.alive = false;
  if (w.ctx_live) {
    gpu::Device& dev = *w.binding->device;
    loader_->on_context_destroyed(dev, w.ctx);
    dev.destroy_context(w.ctx);
    w.ctx_live = false;
    w.ctx = 0;
  }
  // A fresh process has no warm state: function inits and model loads are
  // re-charged after a restart (this is the §6 reallocation cost).
  w.inited_apps.clear();
  w.loaded_models.clear();
}

sim::Co<void> HighThroughputExecutor::worker_main(std::size_t index) {
  Worker& w = *workers_[index];
  auto core_lease =
      co_await provider_.cpu_cores().acquire(opts_.cpu_cores_per_worker);
  co_await worker_boot(w);
  idle_.put(index);

  // Tasks assigned (via a stale idle token) while the worker is parked wait
  // here and run right after the next boot.
  std::deque<QueuedTask> backlog;
  // faaspart-lint: allow(C2) -- the lambda is a named local of this worker
  // coroutine and every drain_one() call is co_awaited to completion before
  // the worker loop (and thus the lambda) can go away
  const auto drain_one = [&](QueuedTask task) -> sim::Co<void> {
    w.busy = true;
    co_await run_task(w, std::move(task));
    w.busy = false;
    ++w.tasks_done;
    idle_.put(index);
  };

  while (true) {
    Msg m = co_await w.inbox->get();
    if (m.kind == Msg::Kind::kStop) {
      worker_teardown(w);
      m.ack.set_value();
      break;
    }
    if (m.kind == Msg::Kind::kPark) {
      worker_teardown(w);
      m.ack.set_value();
      continue;
    }
    if (m.kind == Msg::Kind::kRestart) {
      worker_teardown(w);
      if (m.new_opts.has_value() && w.binding.has_value()) {
        w.binding->ctx_opts = *m.new_opts;
      }
      co_await worker_boot(w);
      ++w.restarts;
      m.ack.set_value();
      while (!backlog.empty()) {
        QueuedTask t = std::move(backlog.front());
        backlog.pop_front();
        co_await drain_one(std::move(t));
      }
      continue;  // idle tokens track task capacity; restart consumed none
    }
    if (w.binding.has_value() && !w.ctx_live) {
      backlog.push_back(std::move(m.task));  // parked — run after restart
      continue;
    }
    co_await drain_one(std::move(m.task));
    if (w.crash_pending) {
      // The process died before delivering the result (run_task already
      // failed the task). Respawn cold.
      w.crash_pending = false;
      worker_teardown(w);
      co_await worker_boot(w);
      ++w.restarts;
    }
  }
}

sim::Co<void> HighThroughputExecutor::run_task(Worker& w, QueuedTask task) {
  const AppDef& app = *task.app;
  TaskRecord& rec = *task.record;
  rec.worker = w.name;
  rec.state = TaskRecord::State::kRunning;
  const util::TimePoint t0 = sim_.now();
  std::uint64_t body_span = 0;
  try {
    // Cold start (1): function initialization, once per worker incarnation.
    if (app.function_init.ns > 0 && w.inited_apps.count(app.name) == 0) {
      co_await sim_.delay(app.function_init);
      w.inited_apps.insert(app.name);
    }
    // Cold start (3): model upload, once per worker incarnation and model key.
    if (app.model_bytes > 0 && w.ctx_live &&
        w.loaded_models.count(app.effective_model_key()) == 0) {
      co_await loader_->load(*w.binding->device, w.ctx, app);
      w.loaded_models.insert(app.effective_model_key());
    }
    rec.cold_start = sim_.now() - t0;
    rec.started = sim_.now();
    body_span = open_body_trace(w, app, rec, t0);

    TaskContext tctx(sim_, w.rng, w.name, opts_.cpu_cores_per_worker,
                     w.binding.has_value() ? w.binding->device : nullptr, w.ctx,
                     obs::TraceContext{rec.trace.trace, body_span});
    AppValue value = co_await app.body(tctx);

    if (w.crash_pending) {
      // Injected failure: the process dies before the result leaves it.
      throw util::TaskFailedError(
          util::strf("worker '", w.name, "' crashed before returning"));
    }

    rec.finished = sim_.now();
    rec.state = TaskRecord::State::kDone;
    close_body_trace(body_span, "");
    if (rec_ != nullptr) {
      if (rec.cold_start.ns > 0) {
        rec_->record(w.lane, app.name, "cold:" + app.name, t0, rec.started);
      }
      rec_->record(w.lane, app.name, "task:" + app.name, rec.started, rec.finished);
    }
    note_task_metrics(rec);
    task.promise.set_value(std::move(value));
  } catch (const std::exception& e) {
    rec.finished = sim_.now();
    rec.state = TaskRecord::State::kFailed;
    rec.error = e.what();
    close_body_trace(body_span, rec.error);
    note_task_metrics(rec);
    FP_LOG_DEBUG("task " << rec.id << " (" << app.name << ") failed: " << e.what());
    task.promise.set_exception(std::current_exception());
  }
  note_task_settled();
}

std::uint64_t HighThroughputExecutor::open_body_trace(const Worker& w,
                                                      const AppDef& app,
                                                      const TaskRecord& rec,
                                                      util::TimePoint t0) {
  auto* tracer = tracer_for(sim_, rec.trace);
  if (tracer == nullptr) return 0;
  if (t0 > rec.submitted) {
    tracer->add_closed(rec.trace.trace, rec.trace.span, app.name, "queue",
                       rec.submitted, t0, opts_.label);
  }
  if (rec.started > t0) {
    tracer->add_closed(rec.trace.trace, rec.trace.span, app.name, "cold", t0,
                       rec.started, w.name);
  }
  return tracer->open_span(rec.trace.trace, rec.trace.span, app.name, "body",
                           w.name);
}

void HighThroughputExecutor::close_body_trace(std::uint64_t span,
                                              const std::string& note) {
  if (span == 0) return;
  if (auto* tel = sim_.telemetry()) {
    if (auto* tracer = tel->tracer()) {
      if (!note.empty()) tracer->annotate(span, note);
      tracer->close_span(span);
    }
  }
}

void HighThroughputExecutor::note_task_metrics(const TaskRecord& rec) {
  if (!obs_metrics_resolved_) resolve_task_metrics();
  if (attempts_counter_ == nullptr) return;
  if (rec.state == TaskRecord::State::kDone) {
    tasks_done_counter_->add();
    run_seconds_hist_->observe(rec.run_time().seconds());
  } else {
    tasks_failed_counter_->add();
  }
  if (rec.cold_start.ns > 0) {
    cold_starts_counter_->add();
    cold_start_seconds_counter_->add(rec.cold_start.seconds());
  }
}

void HighThroughputExecutor::resolve_task_metrics() {
  auto* tel = sim_.telemetry();
  if (tel == nullptr) return;  // don't latch — telemetry may install later
  obs_metrics_resolved_ = true;
  const obs::Labels labels{{"executor", opts_.label}};
  auto& m = tel->metrics();
  attempts_counter_ = &m.counter("htex_attempts_total", labels);
  tasks_done_counter_ = &m.counter("htex_tasks_done_total", labels);
  tasks_failed_counter_ = &m.counter("htex_tasks_failed_total", labels);
  run_seconds_hist_ = &m.histogram("htex_task_run_seconds", labels);
  cold_starts_counter_ = &m.counter("htex_cold_starts_total", labels);
  cold_start_seconds_counter_ = &m.counter("htex_cold_start_seconds_total", labels);
}

sim::Future<> HighThroughputExecutor::restart_worker(
    std::size_t index, std::optional<gpu::ContextOptions> new_opts) {
  FP_CHECK_MSG(index < workers_.size(), "worker index out of range");
  FP_CHECK_MSG(started_, "executor not started");
  sim::Promise<> ack(sim_);
  Msg m;
  m.kind = Msg::Kind::kRestart;
  m.new_opts = new_opts;
  m.ack = ack;
  workers_[index]->inbox->put(std::move(m));
  return ack.future();
}

sim::Future<> HighThroughputExecutor::park_worker(std::size_t index) {
  FP_CHECK_MSG(index < workers_.size(), "worker index out of range");
  FP_CHECK_MSG(started_, "executor not started");
  sim::Promise<> ack(sim_);
  Msg m;
  m.kind = Msg::Kind::kPark;
  m.ack = ack;
  workers_[index]->inbox->put(std::move(m));
  return ack.future();
}

HighThroughputExecutor::WorkerInfo HighThroughputExecutor::worker_info(
    std::size_t index) const {
  FP_CHECK_MSG(index < workers_.size(), "worker index out of range");
  const Worker& w = *workers_[index];
  WorkerInfo info;
  info.name = w.name;
  info.accelerator = w.binding.has_value() ? w.binding->accelerator : "";
  info.alive = w.alive;
  info.busy = w.busy;
  info.restarts = w.restarts;
  info.crashes = w.crashes;
  info.tasks_done = w.tasks_done;
  info.gpu_ctx = w.ctx_live ? w.ctx : 0;
  return info;
}

sim::Co<void> HighThroughputExecutor::shutdown() {
  FP_CHECK_MSG(started_, "shutdown of an executor that never started");
  stopping_ = true;
  if (outstanding_ > 0) {
    co_await drained_.wait();
  }
  central_.close();
  std::vector<sim::Future<>> acks;
  for (auto& w : workers_) {
    sim::Promise<> p(sim_);
    Msg m;
    m.kind = Msg::Kind::kStop;
    m.ack = p;
    w->inbox->put(std::move(m));
    acks.push_back(p.future());
  }
  co_await sim::when_all(std::move(acks));
}

}  // namespace faaspart::faas
