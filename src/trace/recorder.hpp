// Span recording and utilization accounting.
//
// Every timed activity in the simulator (a kernel on a GPU, a task on a
// worker, a workflow phase) can be recorded as a Span on a named lane. The
// Recorder answers the questions the paper's evaluation asks: how busy was
// each lane (GPU utilization, Fig 3's idle gaps), when did phases run, and
// what does the timeline look like.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace faaspart::trace {

using util::Duration;
using util::TimePoint;

using LaneId = std::uint32_t;
/// An interned span name or category: an index into the owning Recorder's
/// label table (Recorder::label turns it back into text).
using LabelId = std::uint32_t;

/// One closed span. A trivially copyable 32-byte record (pinned by a
/// static_assert in tests/test_trace_recorder.cpp) — the text lives once in
/// the Recorder's label table, not in every span.
struct Span {
  LaneId lane = 0;
  LabelId name = 0;      // e.g. kernel or task name
  LabelId category = 0;  // e.g. "kernel", "task", "phase:train"
  TimePoint start{};
  TimePoint end{};

  [[nodiscard]] Duration duration() const { return end - start; }
};

class Recorder {
 public:
  /// Registers a lane (a GPU, a worker, a logical swimlane). Lane names are
  /// not required to be unique, ids are.
  LaneId add_lane(std::string name);

  [[nodiscard]] const std::string& lane_name(LaneId id) const;
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// The id of `text` in this Recorder's label table, adding it on first
  /// sight (ids count up from 0 in first-seen order and survive clear()).
  LabelId intern(std::string_view text);
  /// The text of an interned label; the view stays valid for the Recorder's
  /// lifetime.
  [[nodiscard]] std::string_view label(LabelId id) const;

  /// Records a closed span; `end >= start` is enforced.
  void record(LaneId lane, std::string_view name, std::string_view category,
              TimePoint start, TimePoint end);
  /// Same, with labels already interned in this Recorder — the per-kernel
  /// path, which builds no strings.
  void record(LaneId lane, LabelId name, LabelId category, TimePoint start,
              TimePoint end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Spans on one lane, in recording order.
  [[nodiscard]] std::vector<Span> lane_spans(LaneId lane) const;

  /// Spans whose category matches exactly.
  [[nodiscard]] std::vector<Span> category_spans(std::string_view category) const;

  /// Total time in [from, to] during which at least one span on `lane` was
  /// active (overlapping spans are unioned, not double-counted). Reads the
  /// lane's merged intervals, not the span log: O(log n + intervals in the
  /// window).
  [[nodiscard]] Duration busy_time(LaneId lane, TimePoint from, TimePoint to) const;

  /// busy_time / (to - from); 0 for an empty window.
  [[nodiscard]] double utilization(LaneId lane, TimePoint from, TimePoint to) const;

  /// Earliest start / latest end over all spans (simulation extent).
  [[nodiscard]] TimePoint first_start() const;
  [[nodiscard]] TimePoint last_end() const;

  /// Drops the spans; lanes and interned labels stay.
  void clear();

 private:
  /// A maximal busy stretch of one lane: [start, end) in ns.
  struct Interval {
    std::int64_t start;
    std::int64_t end;
  };

  /// Unions [start, end) into the lane's intervals.
  void mark_busy(LaneId lane, std::int64_t start, std::int64_t end);

  std::vector<std::string> lanes_;
  std::vector<Span> spans_;
  // Per lane, the union of its spans as disjoint intervals in time order,
  // kept up to date by record(). Engines record a span as it ends, so spans
  // arrive in nondecreasing end order and a new one lands at the back.
  std::vector<std::vector<Interval>> busy_;
  // The label table: map keys own the text (node-based, so the views in
  // labels_ never dangle), labels_ indexes it by id.
  std::map<std::string, LabelId, std::less<>> label_ids_;
  std::vector<std::string_view> labels_;
};

}  // namespace faaspart::trace
