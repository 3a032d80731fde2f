#include "obs/chrome.hpp"

#include <cstdio>
#include <limits>
#include <map>
#include <string_view>

#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "trace/recorder.hpp"
#include "util/strings.hpp"

namespace faaspart::obs {

namespace {

/// Emits `s` as a double-quoted JSON string (escapes quotes, backslashes,
/// and control characters).
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

double to_us(util::TimePoint t) { return static_cast<double>(t.ns) / 1e3; }
double to_us(util::Duration d) { return static_cast<double>(d.ns) / 1e3; }

}  // namespace

void write_enriched_chrome_trace(std::ostream& os, const trace::Recorder* rec,
                                 const Tracer* tracer,
                                 const UtilizationSampler* sampler,
                                 const std::string& process_name) {
  // Full double precision: µs timestamps late in a long run would otherwise
  // truncate to 6 significant digits, and obs-query's offline reconstruction
  // (tools/obsquery/loader.cpp) must re-quantize them to exact nanoseconds.
  const auto saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto begin = [&]() -> std::ostream& {
    if (!first) os << ",";
    first = false;
    os << "{";
    return os;
  };
  const auto meta_process = [&](int pid, const std::string& name) {
    begin() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
  };
  const auto meta_thread = [&](int pid, std::uint64_t tid,
                               const std::string& name) {
    begin() << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":" << tid << ",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
  };

  // -- pid 1: resource lanes (what ran where) -------------------------------
  if (rec != nullptr) {
    meta_process(1, process_name + " / resources");
    for (trace::LaneId l = 0; l < rec->lane_count(); ++l) {
      meta_thread(1, l + 1, rec->lane_name(l));
    }
    for (const auto& s : rec->spans()) {
      begin() << "\"name\":";
      write_json_string(os, rec->label(s.name));
      os << ",\"cat\":";
      write_json_string(os, rec->label(s.category));
      os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane + 1
         << ",\"ts\":" << to_us(s.start) << ",\"dur\":" << to_us(s.end - s.start)
         << "}";
    }
  }

  // -- pid 2: causal task trees (what happened to each task) ----------------
  if (tracer != nullptr && !tracer->spans().empty()) {
    meta_process(2, process_name + " / tasks");
    // Name each task row after its root span.
    std::map<std::uint64_t, std::string> root_names;
    for (const auto& s : tracer->spans()) {
      if (s.parent == 0 && root_names.find(s.trace) == root_names.end()) {
        root_names.emplace(s.trace, s.name);
      }
    }
    for (const auto& [trace_id, name] : root_names) {
      meta_thread(2, trace_id, util::strf("task ", trace_id, ": ", name));
    }
    for (const auto& s : tracer->spans()) {
      begin() << "\"name\":";
      write_json_string(os, s.kind + ":" + s.name);
      os << ",\"cat\":";
      write_json_string(os, s.kind);
      os << ",\"ph\":\"X\",\"pid\":2,\"tid\":" << s.trace
         << ",\"ts\":" << to_us(s.start) << ",\"dur\":" << to_us(s.end - s.start)
         << ",\"args\":{";
      os << "\"span\":" << s.id << ",\"parent\":" << s.parent;
      if (s.attempt > 0) os << ",\"attempt\":" << s.attempt;
      if (!s.site.empty()) {
        os << ",\"site\":";
        write_json_string(os, s.site);
      }
      if (!s.tenant.empty()) {
        os << ",\"tenant\":";
        write_json_string(os, s.tenant);
      }
      if (!s.note.empty()) {
        os << ",\"note\":";
        write_json_string(os, s.note);
      }
      os << "}}";
    }
    // Flow events along every parent→child edge; the child's span id is the
    // flow id. The start point is clamped into the parent slice so viewers
    // bind it to the right box.
    for (const auto& s : tracer->spans()) {
      if (s.parent == 0 || s.parent > tracer->spans().size()) continue;
      const auto& p = tracer->spans()[s.parent - 1];
      util::TimePoint from = s.start;
      if (from > p.end) from = p.end;
      if (from < p.start) from = p.start;
      begin() << "\"name\":\"causal\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":"
              << s.id << ",\"pid\":2,\"tid\":" << p.trace
              << ",\"ts\":" << to_us(from) << "}";
      begin() << "\"name\":\"causal\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":"
              << "\"e\",\"id\":" << s.id << ",\"pid\":2,\"tid\":" << s.trace
              << ",\"ts\":" << to_us(s.start) << "}";
    }
  }

  // -- pid 3: sampled per-partition utilization counters --------------------
  if (sampler != nullptr) {
    bool any = false;
    for (const auto& series : sampler->series()) {
      if (!series.samples.empty()) any = true;
    }
    if (any) meta_process(3, process_name + " / partitions");
    for (const auto& series : sampler->series()) {
      for (const auto& p : series.samples) {
        begin() << "\"name\":";
        write_json_string(os, "util:" + series.name);
        os << ",\"ph\":\"C\",\"pid\":3,\"ts\":" << to_us(p.at)
           << ",\"args\":{\"utilization\":" << p.utilization
           << ",\"queue_depth\":" << p.queue_depth << "}}";
      }
    }
  }

  os << "]}";
  os.precision(saved_precision);
}

}  // namespace faaspart::obs
