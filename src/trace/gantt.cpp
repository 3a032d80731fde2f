#include "trace/gantt.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace faaspart::trace {

void render_gantt(std::ostream& os, const Recorder& rec, const GanttOptions& opts) {
  const TimePoint t0 = rec.first_start();
  const TimePoint t1 = rec.last_end();
  if (t1 <= t0 || rec.lane_count() == 0) {
    os << "(empty timeline)\n";
    return;
  }
  const double span_ns = static_cast<double>((t1 - t0).ns);
  const int width = std::max(10, opts.width);

  std::size_t label_w = 0;
  for (LaneId l = 0; l < rec.lane_count(); ++l) {
    label_w = std::max(label_w, rec.lane_name(l).size());
  }

  for (LaneId l = 0; l < rec.lane_count(); ++l) {
    std::string row(static_cast<std::size_t>(width), '.');
    bool any = false;
    for (const auto& s : rec.spans()) {
      if (s.lane != l) continue;
      const std::string_view category = rec.label(s.category);
      if (!opts.category_prefix.empty() &&
          !util::starts_with(category, opts.category_prefix)) {
        continue;
      }
      any = true;
      // Glyph: the character after the last ':' in the category, or '#'.
      char glyph = '#';
      const auto colon = category.rfind(':');
      const std::string_view tail =
          colon == std::string_view::npos ? category : category.substr(colon + 1);
      if (!tail.empty()) glyph = tail[0];

      auto to_col = [&](TimePoint t) {
        const double frac = static_cast<double>((t - t0).ns) / span_ns;
        return std::clamp(static_cast<int>(frac * width), 0, width - 1);
      };
      const int b = to_col(s.start);
      const int e = std::max(b, to_col(s.end));
      for (int c = b; c <= e; ++c) {
        auto& cell = row[static_cast<std::size_t>(c)];
        cell = (cell == '.') ? glyph : (cell == glyph ? glyph : '+');
      }
    }
    if (opts.hide_empty_lanes && !any) continue;
    os << rec.lane_name(l) << std::string(label_w - rec.lane_name(l).size(), ' ')
       << " |" << row << "|\n";
  }

  if (opts.show_axis) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fs", t0.seconds());
    std::string axis(static_cast<std::size_t>(width), ' ');
    const std::string left = buf;
    std::snprintf(buf, sizeof buf, "%.1fs", t1.seconds());
    const std::string right = buf;
    os << std::string(label_w, ' ') << "  " << left
       << std::string(
              std::max<std::size_t>(1, static_cast<std::size_t>(width) -
                                           left.size() - right.size()),
              ' ')
       << right << "\n";
  }
}

}  // namespace faaspart::trace
