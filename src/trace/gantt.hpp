// ASCII Gantt rendering of a Recorder's spans — the Fig 3 timeline view.
#pragma once

#include <ostream>
#include <string>

#include "trace/recorder.hpp"

namespace faaspart::trace {

struct GanttOptions {
  int width = 100;             // character columns for the time axis
  bool show_axis = true;       // print a seconds scale below
  /// If nonempty, only spans whose category starts with this prefix render.
  std::string category_prefix;
  /// Skip lanes that would render no spans under the current filter.
  bool hide_empty_lanes = false;
};

/// Renders one row per lane; spans map to glyphs by category first letter
/// (e.g. "phase:simulation" → 's'). Overlapping spans on the same lane
/// render with '+'.
void render_gantt(std::ostream& os, const Recorder& rec, const GanttOptions& opts = {});

}  // namespace faaspart::trace
