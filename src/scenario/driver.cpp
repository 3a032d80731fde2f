#include "scenario/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace faaspart::scenario {

TraceDriver::TraceDriver(sim::Simulator& sim,
                         federation::ClusterService& cluster, Trace trace)
    : sim_(sim), cluster_(cluster), trace_(std::move(trace)) {
  validate(trace_);
  std::stable_sort(trace_.events.begin(), trace_.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
}

void TraceDriver::bind_all(const AppFactory& make_app,
                           const std::string& executor_label) {
  bind_all(make_app,
           [&executor_label](const TraceFunction&) { return executor_label; });
}

void TraceDriver::bind_all(const AppFactory& make_app, const LabelFn& label_of) {
  for (std::uint32_t i = 0; i < trace_.catalog.size(); ++i) {
    const TraceFunction& f = trace_.catalog[i];
    faas::AppDef app = make_app(f);
    app.name = f.name;
    const std::string id =
        cluster_.service().register_function(std::move(app));
    federation::FunctionClass cls = f.cls;
    cls.tenant = f.tenant;  // tag request spans / SLIs with the SLO class
    cluster_.configure_function(id, cls);
    bindings_[f.name] = Binding{id, label_of(f), i};
  }
}

sim::Co<void> TraceDriver::arrivals() {
  outcomes_.reserve(trace_.events.size());
  for (const TraceEvent& ev : trace_.events) {
    if (ev.at > sim_.now()) co_await sim_.delay(ev.at - sim_.now());
    const Binding& b = bindings_.at(ev.function);
    const std::size_t i = outcomes_.size();
    outcomes_.push_back(Outcome{.function = b.function});
    (void)cluster_.submit(b.function_id, b.executor_label,
                          [this, i](const faas::TaskRecord& rec) { settle(i, rec); });
  }
}

void TraceDriver::settle(std::size_t i, const faas::TaskRecord& rec) {
  Outcome& o = outcomes_[i];
  o.finished = rec.finished;
  o.completion = rec.completion_time();
  o.state = rec.state;
  if (rec.error.empty()) return;
  auto it = std::find(errors_.begin(), errors_.end(), rec.error);
  if (it == errors_.end()) {
    FP_CHECK_MSG(errors_.size() <= UINT16_MAX, "too many distinct request errors");
    it = errors_.insert(errors_.end(), rec.error);
  }
  o.error = static_cast<std::uint16_t>(it - errors_.begin());
}

void TraceDriver::start() {
  FP_CHECK_MSG(!started_, "TraceDriver::start called twice");
  FP_CHECK_MSG(bindings_.size() == trace_.catalog.size(),
               "TraceDriver::start before bind_all");
  started_ = true;
  sim_.spawn(arrivals(), "trace-driver");
}

ReplayReport TraceDriver::report() const {
  ReplayReport r;
  r.submitted = outcomes_.size();
  std::vector<double> completions;
  std::ostringstream hashed;
  for (const Outcome& o : outcomes_) {
    const TraceFunction& f = trace_.catalog[o.function];
    const std::string& error = errors_[o.error];
    ++r.submitted_by_function[f.name];
    if (o.state == faas::TaskRecord::State::kDone) {
      ++r.completed;
      ++r.completed_by_tenant[f.tenant];
      if (f.cls.deadline.ns == 0 || o.completion <= f.cls.deadline) ++r.within_deadline;
      completions.push_back(o.completion.seconds());
    } else if (error.rfind("shed: ", 0) == 0) {
      ++r.shed;
    } else {
      ++r.failed;
      if (o.state == faas::TaskRecord::State::kPending) ++r.unsettled;
    }
    hashed << f.name << '|' << static_cast<int>(o.state) << '|' << o.finished.ns << '|'
           << error << '\n';
  }
  r.completion = trace::summarize(std::move(completions));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(hashed.str())));
  r.digest = buf;
  return r;
}

namespace {

sim::Co<void> drain_after(sim::Simulator& sim,
                          federation::ClusterService& cluster,
                          util::Duration at_least) {
  co_await sim.delay(at_least);
  co_await cluster.shutdown();
}

}  // namespace

ReplayReport replay_trace(sim::Simulator& sim,
                          federation::ClusterService& cluster, Trace trace,
                          const TraceDriver::AppFactory& make_app,
                          const std::string& executor_label,
                          util::Duration drain_grace) {
  TraceDriver driver(sim, cluster, std::move(trace));
  driver.bind_all(make_app, executor_label);
  driver.start();
  sim.spawn(drain_after(sim, cluster, driver.trace().horizon + drain_grace),
            "trace-drain");
  sim.run();
  return driver.report();
}

}  // namespace faaspart::scenario
