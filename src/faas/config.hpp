// Configuration structs mirroring the paper's Parsl listings.
//
// Listing 1 (baseline): a CPU executor with max_workers, and a GPU executor
// with available_accelerators.
// Listing 2 (this paper's extension): available_accelerators may repeat a
// GPU id, and a parallel gpu_percentages list gives each worker slot its
// CUDA_MPS_ACTIVE_THREAD_PERCENTAGE.
// Listing 3: available_accelerators holds MIG instance UUIDs.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace faaspart::faas {

struct HtexConfig {
  std::string label;

  /// CPU worker count when no accelerators are listed; ignored otherwise
  /// (one worker is deployed per accelerator entry, as Parsl does).
  int max_workers = 1;

  /// GPU indices ("0", "1", "cuda:0") or MIG UUIDs ("MIG-..."); entries may
  /// repeat a device to multiplex it (Listing 2).
  std::vector<std::string> available_accelerators;

  /// Parallel to available_accelerators: the GPU percentage for each worker
  /// slot (our MPS extension, §4.1). Empty = no caps. Values in (0, 100].
  std::vector<int> gpu_percentages;

  /// CPU cores pinned per worker.
  int cpu_cores_per_worker = 1;
};

struct Config {
  /// DataFlowKernel resubmission count on task failure (Listing 1: retries=1).
  int retries = 0;
  /// Exponential backoff between DFK retry attempts (the analogue of Parsl's
  /// retry_handler): the n-th resubmission (n = failed attempts so far, from
  /// 1) waits min(60 s, retry_backoff * 2^(n-1)). 0 resubmits immediately.
  util::Duration retry_backoff{};
};

}  // namespace faaspart::faas
