#include "trace/recorder.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faaspart::trace {

LaneId Recorder::add_lane(std::string name) {
  lanes_.push_back(std::move(name));
  return static_cast<LaneId>(lanes_.size() - 1);
}

const std::string& Recorder::lane_name(LaneId id) const {
  FP_CHECK_MSG(id < lanes_.size(), "unknown lane id");
  return lanes_[id];
}

LabelId Recorder::intern(std::string_view text) {
  const auto it = label_ids_.find(text);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<LabelId>(labels_.size());
  labels_.push_back(label_ids_.emplace(std::string(text), id).first->first);
  return id;
}

std::string_view Recorder::label(LabelId id) const {
  FP_CHECK_MSG(id < labels_.size(), "unknown label id");
  return labels_[id];
}

void Recorder::record(LaneId lane, std::string_view name, std::string_view category,
                      TimePoint start, TimePoint end) {
  // Name before category, so first-seen order does not hang on the
  // unspecified evaluation order of call arguments.
  const LabelId name_id = intern(name);
  record(lane, name_id, intern(category), start, end);
}

void Recorder::record(LaneId lane, LabelId name, LabelId category, TimePoint start,
                      TimePoint end) {
  FP_CHECK_MSG(lane < lanes_.size(), "record on unknown lane");
  FP_CHECK_MSG(end >= start, "span ends before it starts");
  FP_CHECK_MSG(name < labels_.size() && category < labels_.size(),
               "record with an unknown label id");
  spans_.push_back(Span{lane, name, category, start, end});
}

std::vector<Span> Recorder::lane_spans(LaneId lane) const {
  std::vector<Span> out;
  for (const auto& s : spans_) {
    if (s.lane == lane) out.push_back(s);
  }
  return out;
}

std::vector<Span> Recorder::category_spans(std::string_view category) const {
  std::vector<Span> out;
  const auto it = label_ids_.find(category);
  if (it == label_ids_.end()) return out;
  for (const auto& s : spans_) {
    if (s.category == it->second) out.push_back(s);
  }
  return out;
}

Duration Recorder::busy_time(LaneId lane, TimePoint from, TimePoint to) const {
  FP_CHECK(to >= from);
  // Collect clipped intervals, sort, merge overlaps, sum. Counting them
  // first sizes the buffer once instead of growing it span by span.
  const auto clipped = [&](const Span& s) {
    return s.lane == lane && std::min(s.end.ns, to.ns) > std::max(s.start.ns, from.ns);
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
  ivals.reserve(static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), clipped)));
  for (const auto& s : spans_) {
    if (clipped(s)) {
      ivals.emplace_back(std::max(s.start.ns, from.ns), std::min(s.end.ns, to.ns));
    }
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
  return Duration{busy};
}

double Recorder::utilization(LaneId lane, TimePoint from, TimePoint to) const {
  const Duration window = to - from;
  if (window.ns <= 0) return 0.0;
  return busy_time(lane, from, to) / window;
}

TimePoint Recorder::first_start() const {
  TimePoint t{INT64_MAX};
  for (const auto& s : spans_) t = std::min(t, s.start);
  return spans_.empty() ? TimePoint{0} : t;
}

TimePoint Recorder::last_end() const {
  TimePoint t{0};
  for (const auto& s : spans_) t = std::max(t, s.end);
  return t;
}

void Recorder::clear() { spans_.clear(); }

}  // namespace faaspart::trace
