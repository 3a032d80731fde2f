#include "trace/recorder.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faaspart::trace {

Span SpanLog::operator[](std::size_t i) const {
  FP_CHECK_MSG(i < size_, "span index out of range");
  const Entry& e = blocks_[i >> kBlockShift][i & (kBlockEntries - 1)];
  std::int64_t end = e.start + e.duration;
  if (e.duration == kLongDuration) {
    end = std::lower_bound(long_ends_.begin(), long_ends_.end(), i,
                           [](const LongEnd& l, std::size_t index) { return l.index < index; })
              ->end;
  }
  const Key& k = keys_[e.key];
  return Span{k.lane, k.name, k.category, TimePoint{e.start}, TimePoint{end}};
}

SpanKey SpanLog::key(LaneId lane, LabelId name, LabelId category) {
  const auto [it, inserted] = key_ids_.try_emplace(std::tuple{lane, name, category},
                                                   static_cast<SpanKey>(keys_.size()));
  if (inserted) keys_.push_back(Key{lane, name, category});
  return it->second;
}

LaneId SpanLog::push(SpanKey key, std::int64_t start, std::int64_t end) {
  FP_CHECK_MSG(key < keys_.size(), "record with an unknown span key");
  const std::size_t offset = size_ & (kBlockEntries - 1);
  // clear() frees every block, so a full last block is the only reason to
  // start a new one. Entries are written before they are read, so the
  // block is left uninitialized: its pages are touched as spans fill them.
  if (offset == 0) blocks_.push_back(std::make_unique_for_overwrite<Entry[]>(kBlockEntries));
  const std::int64_t duration = end - start;
  std::uint32_t stored = kLongDuration;
  if (duration < kLongDuration) {
    stored = static_cast<std::uint32_t>(duration);
  } else {
    long_ends_.push_back(LongEnd{size_, end});
  }
  blocks_.back()[offset] = Entry{start, key, stored};
  ++size_;
  return keys_[key].lane;
}

void SpanLog::clear() {
  blocks_.clear();
  long_ends_.clear();
  size_ = 0;
}

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

SpanKey Recorder::key(LaneId lane, std::string_view name, std::string_view category) {
  FP_CHECK_MSG(lane < lanes_.size(), "record on unknown lane");
  // Name before category, so first-seen order does not hang on the
  // unspecified evaluation order of call arguments.
  const LabelId name_id = intern(name);
  return spans_.key(lane, name_id, intern(category));
}

void Recorder::record(LaneId lane, std::string_view name, std::string_view category,
                      TimePoint start, TimePoint end) {
  record(key(lane, name, category), start, end);
}

void Recorder::record(SpanKey key, TimePoint start, TimePoint end) {
  FP_CHECK_MSG(end >= start, "span ends before it starts");
  const LaneId lane = spans_.push(key, start.ns, end.ns);
  if (end > start) mark_busy(lane, start.ns, end.ns);
}

void Recorder::mark_busy(LaneId lane, std::int64_t start, std::int64_t end) {
  std::vector<Interval>& iv = busy_[lane];
  // In recording order a span starts at or after the last interval's start,
  // so it only extends that interval (touching counts) or follows it.
  if (iv.empty() || start > iv.back().end) {
    iv.push_back(Interval{start, end});
    return;
  }
  if (start >= iv.back().start) {
    iv.back().end = std::max(iv.back().end, end);
    return;
  }
  // Out of order: the first interval that ends at or after `start` is the
  // first one the new span touches or precedes; touching intervals merge.
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
