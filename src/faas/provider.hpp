// The execution provider — where worker processes come from.
//
// The paper's testbed uses Parsl's LocalProvider (§2.2.1): workers are
// processes on the local node. LocalProvider models the node's CPU core
// pool (24 Xeon cores in §5.1) and the cost of spawning a Python worker.
#pragma once

#include "sim/sync.hpp"
#include "util/units.hpp"

namespace faaspart::faas {

class LocalProvider {
 public:
  LocalProvider(sim::Simulator& sim, int cores,
                util::Duration launch_cost = util::milliseconds(750))
      : cores_(sim, cores, "cpu-cores"), launch_cost_(launch_cost) {}

  /// Shared CPU core pool workers pin cores from.
  [[nodiscard]] sim::Resource& cpu_cores() { return cores_; }

  /// Cost of spawning one worker process (fork + interpreter + imports).
  [[nodiscard]] util::Duration worker_launch_cost() const { return launch_cost_; }

 private:
  sim::Resource cores_;
  util::Duration launch_cost_;
};

}  // namespace faaspart::faas
