#include "trace/recorder.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faaspart::trace {

LaneId Recorder::add_lane(std::string name) {
  lanes_.push_back(std::move(name));
  busy_.emplace_back();
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
  if (end > start) mark_busy(lane, start.ns, end.ns);
}

void Recorder::mark_busy(LaneId lane, std::int64_t start, std::int64_t end) {
  std::vector<Interval>& iv = busy_[lane];
  // The first interval that ends at or after `start` is the first one the
  // new span touches or precedes; touching intervals merge.
  auto first = std::lower_bound(iv.begin(), iv.end(), start,
                                [](const Interval& i, std::int64_t t) { return i.end < t; });
  auto last = first;
  while (last != iv.end() && last->start <= end) ++last;
  if (first == last) {
    iv.insert(first, Interval{start, end});
    return;
  }
  first->start = std::min(first->start, start);
  first->end = std::max(std::prev(last)->end, end);
  iv.erase(std::next(first), last);
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
  FP_CHECK_MSG(lane < busy_.size(), "unknown lane id");
  const std::vector<Interval>& iv = busy_[lane];
  std::int64_t busy = 0;
  for (auto it = std::upper_bound(
           iv.begin(), iv.end(), from.ns,
           [](std::int64_t t, const Interval& i) { return t < i.end; });
       it != iv.end() && it->start < to.ns; ++it) {
    busy += std::min(it->end, to.ns) - std::max(it->start, from.ns);
  }
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

void Recorder::clear() {
  spans_.clear();
  for (auto& iv : busy_) iv.clear();
}

}  // namespace faaspart::trace
