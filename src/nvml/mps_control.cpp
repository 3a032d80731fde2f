#include "nvml/mps_control.hpp"

#include "sched/slot.hpp"
#include "util/error.hpp"

namespace faaspart::nvml {

void MpsControl::start(sched::MpsOptions opts) {
  if (running_) throw util::StateError("MPS daemon already running");
  // set_engine_factory enforces the no-live-clients rule.
  device_.set_engine_factory(sched::mps_factory(opts));
  running_ = true;
}

void MpsControl::stop() {
  if (!running_) throw util::StateError("MPS daemon not running");
  device_.set_engine_factory(sched::timeshare_factory());
  running_ = false;
}

}  // namespace faaspart::nvml
