// faasbench — runs one benchmark workload, or one layer probe, and prints
// one JSON object on stdout. perfbench/run.py is the user-facing command;
// this binary is its single-run worker.
//
//   faasbench run --workload W --seed S [--tel off|metrics|full]
//                 [--no-recorder] [--time-calls] [--ledger] [--endpoints N]
//                 [--check]
//   faasbench probe --kind sim|sched|wfq|kv|recorder [--KEY VALUE]...
//
// `--check` also runs runner::run_*_point for the same point and seed after
// the timed run and reports whether its rendered result row is identical.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace {

using faasbench::RunOptions;
using faasbench::Tel;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + number(v);
  }
  return out + "}";
}

int usage() {
  std::cerr << "usage: faasbench run --workload W --seed S [--tel off|metrics|full]\n"
               "                     [--no-recorder] [--time-calls] [--ledger]\n"
               "                     [--endpoints N] [--check]\n"
               "       faasbench probe --kind sim|sched|wfq|kv|recorder [--KEY VALUE]...\n";
  return 2;
}

int cmd_run(int argc, char** argv) {
  RunOptions ro;
  bool check = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      ro.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      ro.seed = std::stoull(argv[++i]);
    } else if (a == "--endpoints" && has_value) {
      ro.endpoints = std::stoi(argv[++i]);
    } else if (a == "--tel" && has_value) {
      const std::string t = argv[++i];
      if (t == "off") {
        ro.tel = Tel::kOff;
      } else if (t == "metrics") {
        ro.tel = Tel::kMetrics;
      } else if (t == "full") {
        ro.tel = Tel::kFull;
      } else {
        return usage();
      }
    } else if (a == "--no-recorder") {
      ro.recorder = false;
    } else if (a == "--time-calls") {
      ro.time_calls = true;
    } else if (a == "--ledger") {
      ro.ledger = true;
    } else if (a == "--check") {
      check = true;
    } else {
      return usage();
    }
  }
  if (ro.workload.empty() || ro.endpoints < 1) return usage();

  const faasbench::RunResult r = faasbench::run_workload(ro);
  const faasbench::Outcome& o = r.outcome;
  std::ostringstream js;
  js << "{\"workload\": " << quoted(ro.workload) << ", \"seed\": " << ro.seed
     << ", \"host\": "
     << object({{"setup_s", r.host.setup_s},
                {"run_cpu_s", r.host.run_cpu_s},
                {"wall_s", r.host.wall_s},
                {"peak_rss_mb", r.host.peak_rss_mb}})
     << ", \"sim_events\": " << r.sim_events << ", \"outcome\": "
     << object({{"offered", static_cast<double>(o.offered)},
                {"completed", static_cast<double>(o.completed)},
                {"shed", static_cast<double>(o.shed)},
                {"failed", static_cast<double>(o.failed)},
                {"good", static_cast<double>(o.good)},
                {"window_s", o.window_s},
                {"p50_s", o.p50_s},
                {"p99_s", o.p99_s}})
     << ", \"rendered\": " << quoted(o.rendered) << ", \"layers\": " << object(r.layers)
     << ", \"op_point\": " << object(r.op_point);
  if (check) {
    const std::string ref = faasbench::runner_rendered(ro);
    js << ", \"runner_match\": " << (ref == o.rendered ? "true" : "false");
    if (ref != o.rendered) std::cerr << "runner:\n" << ref << "\nbench:\n" << o.rendered;
  }
  js << "}\n";
  std::cout << js.str();
  return 0;
}

int cmd_probe(int argc, char** argv) {
  std::string kind;
  std::map<std::string, double> params;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return usage();
    if (a == "--kind") {
      kind = argv[i + 1];
    } else {
      params[a.substr(2)] = std::stod(argv[i + 1]);
    }
  }
  if (kind.empty() || argc % 2 != 0) return usage();
  const double ns = faasbench::run_probe(kind, params);
  std::cout << "{\"probe\": " << quoted(kind) << ", \"ns_per_op\": " << number(ns) << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "probe") return cmd_probe(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "faasbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
