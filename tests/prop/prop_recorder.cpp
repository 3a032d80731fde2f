// Recorder busy-time index (DESIGN.md §7): record() folds every span into
// its lane's merged intervals, and busy_time() sums those intervals clipped
// to the window. The property checks it against a reference kept here —
// collect the lane's clipped spans, sort, merge, sum — over random op
// sequences on several lanes: spans that end in order (as engines record
// them) and out of order, overlapping, touching and zero-length spans,
// windows that clip spans on either side, and clear().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
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

}  // namespace
}  // namespace faaspart::prop
