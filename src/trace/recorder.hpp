// Span recording and utilization accounting.
//
// Every timed activity in the simulator (a kernel on a GPU, a task on a
// worker, a workflow phase) can be recorded as a Span on a named lane. The
// Recorder answers the questions the paper's evaluation asks: how busy was
// each lane (GPU utilization, Fig 3's idle gaps), when did phases run, and
// what does the timeline look like.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/units.hpp"

namespace faaspart::trace {

using util::Duration;
using util::TimePoint;

using LaneId = std::uint32_t;
/// An interned span name or category: an index into the owning Recorder's
/// label table (Recorder::label turns it back into text).
using LabelId = std::uint32_t;
/// An interned (lane, name, category) triple: an index into the owning
/// Recorder's key table (Recorder::key). The per-kernel path records
/// against a key, so it builds no strings and looks nothing up.
using SpanKey = std::uint32_t;

/// One closed span, as the span log hands it back: a trivially copyable
/// record whose text lives once in the Recorder's label table.
struct Span {
  LaneId lane = 0;
  LabelId name = 0;      // e.g. kernel or task name
  LabelId category = 0;  // e.g. "kernel", "task", "phase:train"
  TimePoint start{};
  TimePoint end{};

  [[nodiscard]] Duration duration() const { return end - start; }
};

/// A Recorder's spans in recording order. Each is a 16-byte entry — start
/// (ns), SpanKey and duration (ns) — in fixed blocks of kBlockEntries, so
/// the log never moves or copies an entry as it grows. A duration of
/// kLongDuration ns (2^32 - 1, ~4.3 s) or more is stored as that sentinel,
/// and the span's end goes to a side table ordered by index. Reads rebuild
/// each Span by value from the log's key table, which the Recorder fills.
class SpanLog {
 public:
  static constexpr int kBlockShift = 13;
  static constexpr std::size_t kBlockEntries = std::size_t{1} << kBlockShift;
  static constexpr std::uint32_t kLongDuration = UINT32_MAX;

  /// A forward iterator that yields Spans by value.
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using difference_type = std::ptrdiff_t;
    using reference = Span;

    Iterator() = default;
    Span operator*() const { return (*log_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    friend class SpanLog;
    Iterator(const SpanLog* log, std::size_t i) : log_(log), i_(i) {}

    const SpanLog* log_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// The i-th recorded span; `i < size()` is enforced.
  [[nodiscard]] Span operator[](std::size_t i) const;
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size_}; }

 private:
  friend class Recorder;

  struct Entry {
    std::int64_t start;
    SpanKey key;
    std::uint32_t duration;  ///< kLongDuration: the end is in long_ends_
  };
  static_assert(sizeof(Entry) == 16);
  /// What a SpanKey stands for.
  struct Key {
    LaneId lane;
    LabelId name;
    LabelId category;
  };
  struct LongEnd {
    std::size_t index;
    std::int64_t end;
  };

  /// The key of (lane, name, category), added on first sight.
  SpanKey key(LaneId lane, LabelId name, LabelId category);
  /// Appends a span under a known key; returns the key's lane.
  LaneId push(SpanKey key, std::int64_t start, std::int64_t end);
  /// Drops the spans and frees their blocks; keys stay.
  void clear();

  /// The key table: keys_ by SpanKey, key_ids_ by triple.
  std::vector<Key> keys_;
  std::map<std::tuple<LaneId, LabelId, LabelId>, SpanKey> key_ids_;
  std::vector<std::unique_ptr<Entry[]>> blocks_;
  std::size_t size_ = 0;
  std::vector<LongEnd> long_ends_;
};

class Recorder {
 public:
  /// Registers a lane (a GPU, a worker, a logical swimlane). Lane names are
  /// not required to be unique, ids are.
  LaneId add_lane(std::string name);

  [[nodiscard]] const std::string& lane_name(LaneId id) const;
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

  /// The text of a span's name or category; the view stays valid for the
  /// Recorder's lifetime.
  [[nodiscard]] std::string_view label(LabelId id) const;

  /// The key of spans named `name` in `category` on `lane`, interning the
  /// two labels (name first) and the triple on first sight. Label ids and
  /// keys each count up from 0 in first-seen order and survive clear().
  SpanKey key(LaneId lane, std::string_view name, std::string_view category);

  /// Records a closed span; `end >= start` is enforced.
  void record(LaneId lane, std::string_view name, std::string_view category,
              TimePoint start, TimePoint end);
  /// Same, under a key from key() — the per-kernel path.
  void record(SpanKey key, TimePoint start, TimePoint end);

  [[nodiscard]] const SpanLog& spans() const { return spans_; }

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

  /// Drops the spans; lanes, interned labels and span keys stay.
  void clear();

 private:
  /// A maximal busy stretch of one lane: [start, end) in ns.
  struct Interval {
    std::int64_t start;
    std::int64_t end;
  };

  /// The id of `text` in the label table, adding it on first sight.
  LabelId intern(std::string_view text);
  /// Unions [start, end) into the lane's intervals.
  void mark_busy(LaneId lane, std::int64_t start, std::int64_t end);

  std::vector<std::string> lanes_;
  SpanLog spans_;
  // Per lane, the union of its spans as disjoint intervals in time order,
  // kept up to date by record(). The Device records a lane's kernels as
  // they end, and each starts within or after the lane's last busy
  // stretch, so a new span usually extends the last interval or follows it.
  std::vector<std::vector<Interval>> busy_;
  // The label table: map keys own the text (node-based, so the views in
  // labels_ never dangle), labels_ indexes it by id.
  std::map<std::string, LabelId, std::less<>> label_ids_;
  std::vector<std::string_view> labels_;
};

}  // namespace faaspart::trace
