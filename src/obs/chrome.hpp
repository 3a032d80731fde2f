// Enriched Chrome-trace export: resource lanes + causal task trees + sampled
// utilization counters in one chrome://tracing / ui.perfetto.dev file.
//
// Layout:
//   pid 1 — the trace::Recorder lanes: one tid per lane, one complete ("X")
//           slice per recorded span;
//   pid 2 — one tid per causal trace (logical task): the root "task" span,
//           its attempts, and each attempt's queue/cold/body/kernel children
//           as nested "X" slices, with flow events ("s"/"f", cat "causal")
//           drawn along every parent→child edge — a retried task renders as
//           arrows from the root to each attempt;
//   pid 3 — "C" counter tracks from the utilization sampler's series.
#pragma once

#include <ostream>
#include <string>

namespace faaspart::trace {
class Recorder;
}  // namespace faaspart::trace

namespace faaspart::obs {

class Tracer;
class UtilizationSampler;

/// Any of `rec`, `tracer`, `sampler` may be null; the corresponding section
/// is omitted. The output is a single valid-JSON object.
void write_enriched_chrome_trace(std::ostream& os, const trace::Recorder* rec,
                                 const Tracer* tracer,
                                 const UtilizationSampler* sampler,
                                 const std::string& process_name = "faaspart");

}  // namespace faaspart::obs
