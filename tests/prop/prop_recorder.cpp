// Recorder properties (DESIGN.md §7), each against a reference kept here.
//
// Busy-time index: record() folds every span into its lane's merged
// intervals, and busy_time() sums those intervals clipped to the window.
// The reference collects the lane's clipped spans, sorts, merges and sums,
// over random op sequences on several lanes: spans that end in order (as
// engines record them) and out of order, overlapping, touching and
// zero-length spans, windows that clip spans on either side, and clear().
//
// Span log: every read of the 16-byte-entry log (indexing, iteration,
// lane_spans, category_spans, first_start, last_end) must give back the
// spans a plain std::vector<Span> holds, over string-form and key-form
// records from small name and category pools on several lanes, clear(),
// zero-length spans, durations just below, at and above the 2^32 - 1 ns
// sentinel, and bursts that fill more than one block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "prop/prop.hpp"
#include "trace/recorder.hpp"
#include "util/strings.hpp"

namespace faaspart::prop {
namespace {

struct Op {
  enum class Kind { kRecord, kQuery, kClear } kind = Kind::kRecord;
  trace::LaneId lane = 0;
  std::int64_t a = 0;  ///< span start / window from
  std::int64_t b = 0;  ///< span end / window to
};

struct Case {
  int lanes = 1;
  std::vector<Op> ops;
};

/// Busy time by sort-and-merge over the spans recorded on `lane`.
std::int64_t reference_busy(const std::vector<Op>& spans, trace::LaneId lane,
                            std::int64_t from, std::int64_t to) {
  std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
  for (const Op& s : spans) {
    const std::int64_t b = std::max(s.a, from);
    const std::int64_t e = std::min(s.b, to);
    if (s.lane == lane && e > b) ivals.emplace_back(b, e);
  }
  std::sort(ivals.begin(), ivals.end());
  std::int64_t busy = 0;
  std::int64_t cur_b = 0;
  std::int64_t cur_e = -1;
  for (const auto& [b, e] : ivals) {
    if (cur_e < 0) {
      cur_b = b;
      cur_e = e;
    } else if (b <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      busy += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    }
  }
  if (cur_e >= 0) busy += cur_e - cur_b;
  return busy;
}

Case random_case(util::Rng& rng) {
  Case c;
  c.lanes = static_cast<int>(rng.uniform_int(1, 3));
  const int n = static_cast<int>(rng.uniform_int(1, 60));
  std::vector<std::int64_t> last_end(static_cast<std::size_t>(c.lanes), 0);
  for (int i = 0; i < n; ++i) {
    Op op;
    op.lane = static_cast<trace::LaneId>(rng.uniform_int(0, c.lanes - 1));
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.03) {
      op.kind = Op::Kind::kClear;
    } else if (roll < 0.25) {
      op.kind = Op::Kind::kQuery;
      op.a = rng.uniform_int(0, 200);
      op.b = op.a + rng.uniform_int(0, 120);
    } else {
      std::int64_t& end = last_end[op.lane];
      const double shape = rng.uniform(0.0, 1.0);
      if (shape < 0.5) {
        // Engine order: ends never go back; starts may overlap the tail,
        // touch it, or leave a gap.
        op.b = end + rng.uniform_int(0, 15);
        op.a = std::max<std::int64_t>(0, op.b - rng.uniform_int(0, 25));
      } else if (shape < 0.6) {
        op.a = end;  // touching (zero length when the roll is 0)
        op.b = end + rng.uniform_int(0, 10);
      } else {
        op.a = rng.uniform_int(0, 220);  // anywhere: out of order
        op.b = op.a + rng.uniform_int(0, 30);
      }
      end = std::max(end, op.b);
    }
    c.ops.push_back(op);
  }
  return c;
}

std::vector<Case> shrink_case(const Case& c) {
  std::vector<Case> out;
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    Case smaller = c;
    smaller.ops.erase(smaller.ops.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(smaller));
  }
  return out;
}

/// Replays the ops on a Recorder; after every op, every lane's busy time
/// over the op's window (and over everything) must match the reference.
std::string busy_matches_reference(const Case& c) {
  trace::Recorder rec;
  for (int l = 0; l < c.lanes; ++l) (void)rec.add_lane(util::strf("lane-", l));
  std::vector<Op> spans;  // recorded since the last clear
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    const Op& op = c.ops[i];
    switch (op.kind) {
      case Op::Kind::kRecord:
        rec.record(op.lane, "k", "kernel", util::TimePoint{op.a}, util::TimePoint{op.b});
        spans.push_back(op);
        break;
      case Op::Kind::kClear:
        rec.clear();
        spans.clear();
        break;
      case Op::Kind::kQuery: break;
    }
    const std::int64_t from = op.kind == Op::Kind::kQuery ? op.a : 0;
    const std::int64_t to = op.kind == Op::Kind::kQuery ? op.b : 400;
    for (int l = 0; l < c.lanes; ++l) {
      const auto lane = static_cast<trace::LaneId>(l);
      const std::int64_t got =
          rec.busy_time(lane, util::TimePoint{from}, util::TimePoint{to}).ns;
      const std::int64_t want = reference_busy(spans, lane, from, to);
      if (got != want) {
        return util::strf("after op ", i, " lane ", l, " window [", from, ", ", to,
                          "): busy ", got, " ns, reference ", want, " ns");
      }
    }
  }
  return {};
}

TEST(PropRecorder, BusyTimeMatchesSortAndMerge) {
  Config cfg;
  cfg.iterations = env_iterations(200);
  cfg.seed = 0x7ecc0de5;
  const Outcome<Case> out =
      check<Case>(random_case, shrink_case, busy_matches_reference, cfg);
  EXPECT_FALSE(out.falsified) << out.message << " (seed " << out.failing_seed
                              << ", " << out.counterexample.ops.size() << " ops)";
  EXPECT_EQ(out.iterations_run, cfg.iterations);
}

// -- Span log ---------------------------------------------------------------

constexpr std::int64_t kLong = trace::SpanLog::kLongDuration;
constexpr const char* kNames[] = {"llama/decode-b4", "resnet/conv", "task"};
constexpr const char* kCategories[] = {"kernel:gemv", "kernel:conv", "task:a"};
/// A category no op records: its query must come back empty.
constexpr const char* kUnrecorded = "phase:none";
/// A burst's spans start this far apart and cycle through these durations.
constexpr std::int64_t kBurstStride = 1000;
constexpr std::int64_t kBurstDurations[] = {500, 0, kLong - 1, 700, kLong, 0, kLong + 1};

struct SpanOp {
  enum class Kind { kText, kKey, kClear } kind = Kind::kText;
  trace::LaneId lane = 0;
  int name = 0;      ///< index into kNames
  int category = 0;  ///< index into kCategories
  std::int64_t start = 0;
  std::int64_t duration = 0;
  /// Spans the op records; more than one makes a burst under one name.
  std::int64_t count = 1;
};

struct SpanCase {
  int lanes = 1;
  std::vector<SpanOp> ops;
};

/// The [start, end) of the j-th span `op` records.
std::pair<std::int64_t, std::int64_t> span_of(const SpanOp& op, std::int64_t j) {
  if (op.count == 1) return {op.start, op.start + op.duration};
  const std::int64_t start = op.start + j * kBurstStride;
  const auto shape = static_cast<std::size_t>(j) % std::size(kBurstDurations);
  return {start, start + kBurstDurations[shape]};
}

/// Zero, short, around the sentinel, or far beyond it.
std::int64_t random_duration(util::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return 0;
    case 1: return kLong - 1;
    case 2: return kLong;
    case 3: return kLong + 1;
    case 4: return rng.uniform_int(kLong + 2, INT64_C(1) << 40);
    default: return rng.uniform_int(1, 100000);
  }
}

SpanCase random_span_case(util::Rng& rng) {
  SpanCase c;
  c.lanes = static_cast<int>(rng.uniform_int(1, 3));
  const int n = static_cast<int>(rng.uniform_int(1, 40));
  // One case in eight records a burst that spills out of its first block.
  const std::int64_t burst_at = rng.uniform(0.0, 1.0) < 0.125 ? rng.uniform_int(0, n - 1) : -1;
  for (int i = 0; i < n; ++i) {
    SpanOp op;
    op.lane = static_cast<trace::LaneId>(rng.uniform_int(0, c.lanes - 1));
    op.name = static_cast<int>(rng.uniform_int(0, std::size(kNames) - 1));
    op.category = static_cast<int>(rng.uniform_int(0, std::size(kCategories) - 1));
    op.start = rng.uniform_int(0, INT64_C(1) << 45);
    op.duration = random_duration(rng);
    const double roll = rng.uniform(0.0, 1.0);
    op.kind = roll < 0.04  ? SpanOp::Kind::kClear
              : roll < 0.5 ? SpanOp::Kind::kText
                           : SpanOp::Kind::kKey;
    if (i == burst_at) {
      op.kind = rng.uniform(0.0, 1.0) < 0.5 ? SpanOp::Kind::kText : SpanOp::Kind::kKey;
      const auto block = static_cast<std::int64_t>(trace::SpanLog::kBlockEntries);
      op.count = rng.uniform_int(block + 1, 2 * block + 16);
    }
    c.ops.push_back(op);
  }
  return c;
}

std::vector<SpanCase> shrink_span_case(const SpanCase& c) {
  std::vector<SpanCase> out;
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    SpanCase smaller = c;
    smaller.ops.erase(smaller.ops.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(smaller));
  }
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    if (c.ops[i].count == 1) continue;
    SpanCase shorter = c;
    shorter.ops[i].count /= 2;
    out.push_back(std::move(shorter));
  }
  return out;
}

bool same_span(const trace::Span& a, const trace::Span& b) {
  return a.lane == b.lane && a.name == b.name && a.category == b.category &&
         a.start == b.start && a.end == b.end;
}

std::string describe(const trace::Span& s) {
  return util::strf("{lane ", s.lane, " name ", s.name, " category ", s.category, " ",
                    s.start.ns, "..", s.end.ns, "}");
}

/// Empty when `got` equals `want`, else where they first differ.
std::string compare_spans(std::string_view what, const std::vector<trace::Span>& got,
                          const std::vector<trace::Span>& want) {
  if (got.size() != want.size()) {
    return util::strf(what, ": ", got.size(), " spans, reference ", want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_span(got[i], want[i])) {
      return util::strf(what, " [", i, "]: ", describe(got[i]), ", reference ",
                        describe(want[i]));
    }
  }
  return {};
}

/// Every read of the Recorder's spans against the reference vector, whose
/// label ids index `labels`.
std::string reads_match(const trace::Recorder& rec, int lanes,
                        const std::vector<trace::Span>& want,
                        const std::vector<std::string>& labels) {
  const trace::SpanLog& log = rec.spans();
  if (log.size() != want.size() || log.empty() != want.empty()) {
    return util::strf("size ", log.size(), ", reference ", want.size());
  }
  std::vector<trace::Span> indexed;
  std::vector<trace::Span> iterated;
  for (std::size_t i = 0; i < log.size(); ++i) indexed.push_back(log[i]);
  for (const trace::Span s : log) iterated.push_back(s);
  std::string diff = compare_spans("spans()[i]", indexed, want);
  if (diff.empty()) diff = compare_spans("iteration", iterated, want);
  for (int l = 0; l < lanes && diff.empty(); ++l) {
    const auto lane = static_cast<trace::LaneId>(l);
    std::vector<trace::Span> on_lane;
    for (const trace::Span& s : want) {
      if (s.lane == lane) on_lane.push_back(s);
    }
    diff = compare_spans(util::strf("lane_spans(", l, ")"), rec.lane_spans(lane), on_lane);
  }
  std::vector<std::string_view> categories(std::begin(kCategories), std::end(kCategories));
  categories.push_back(kUnrecorded);
  for (const std::string_view category : categories) {
    if (!diff.empty()) break;
    std::vector<trace::Span> in_category;
    for (const trace::Span& s : want) {
      if (labels[s.category] == category) in_category.push_back(s);
    }
    diff = compare_spans(util::strf("category_spans(", category, ")"),
                         rec.category_spans(category), in_category);
  }
  if (!diff.empty()) return diff;
  util::TimePoint first{want.empty() ? 0 : INT64_MAX};
  util::TimePoint last{0};
  for (const trace::Span& s : want) {
    first = std::min(first, s.start);
    last = std::max(last, s.end);
  }
  if (rec.first_start() != first || rec.last_end() != last) {
    return util::strf("extent ", rec.first_start().ns, "..", rec.last_end().ns,
                      ", reference ", first.ns, "..", last.ns);
  }
  return {};
}

/// Replays the ops on a Recorder and on a std::vector<Span> with label ids
/// assigned in first-seen order, name before category; key-form ops cache
/// their keys across clear(), as the Device does.
std::string span_log_matches(const SpanCase& c) {
  trace::Recorder rec;
  for (int l = 0; l < c.lanes; ++l) (void)rec.add_lane(util::strf("gpu-", l));
  std::vector<std::string> labels;
  const auto model_id = [&labels](std::string_view text) {
    const auto it = std::find(labels.begin(), labels.end(), text);
    if (it != labels.end()) return static_cast<trace::LabelId>(it - labels.begin());
    labels.emplace_back(text);
    return static_cast<trace::LabelId>(labels.size() - 1);
  };
  std::map<std::tuple<trace::LaneId, int, int>, trace::SpanKey> keys;
  std::vector<trace::Span> want;
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    const SpanOp& op = c.ops[i];
    if (op.kind == SpanOp::Kind::kClear) {
      rec.clear();
      want.clear();
    } else {
      const char* name = kNames[op.name];
      const char* category = kCategories[op.category];
      const trace::LabelId name_id = model_id(name);
      const trace::LabelId category_id = model_id(category);
      trace::SpanKey key = 0;
      if (op.kind == SpanOp::Kind::kKey) {
        const auto [it, inserted] =
            keys.try_emplace(std::tuple{op.lane, op.name, op.category}, 0);
        if (inserted) it->second = rec.key(op.lane, name, category);
        key = it->second;
      }
      for (std::int64_t j = 0; j < op.count; ++j) {
        const auto [start, end] = span_of(op, j);
        if (op.kind == SpanOp::Kind::kKey) {
          rec.record(key, util::TimePoint{start}, util::TimePoint{end});
        } else {
          rec.record(op.lane, name, category, util::TimePoint{start}, util::TimePoint{end});
        }
        want.push_back(trace::Span{op.lane, name_id, category_id, util::TimePoint{start},
                                   util::TimePoint{end}});
      }
    }
    const std::string diff = reads_match(rec, c.lanes, want, labels);
    if (!diff.empty()) return util::strf("after op ", i, ": ", diff);
  }
  return {};
}

TEST(PropRecorder, SpanLogMatchesAVector) {
  Config cfg;
  cfg.iterations = env_iterations(200);
  cfg.seed = 0x5a4e106;
  const Outcome<SpanCase> out =
      check<SpanCase>(random_span_case, shrink_span_case, span_log_matches, cfg);
  EXPECT_FALSE(out.falsified) << out.message << " (seed " << out.failing_seed << ", "
                              << out.counterexample.ops.size() << " ops)";
  EXPECT_EQ(out.iterations_run, cfg.iterations);
}

}  // namespace
}  // namespace faaspart::prop
