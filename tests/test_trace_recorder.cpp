#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "trace/recorder.hpp"
#include "util/error.hpp"

namespace faaspart::trace {
namespace {

using util::seconds;

TimePoint at(std::int64_t s) { return TimePoint{} + seconds(s); }

TEST(Recorder, LaneRegistration) {
  Recorder rec;
  const auto a = rec.add_lane("GPU 0");
  const auto b = rec.add_lane("GPU 1");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.lane_name(a), "GPU 0");
  EXPECT_EQ(rec.lane_count(), 2u);
  EXPECT_THROW((void)rec.lane_name(99), util::Error);
}

TEST(Recorder, RecordValidation) {
  Recorder rec;
  const auto l = rec.add_lane("x");
  EXPECT_THROW(rec.record(l + 1, "a", "b", at(0), at(1)), util::Error);
  EXPECT_THROW(rec.record(l, "a", "b", at(2), at(1)), util::Error);
  rec.record(l, "a", "b", at(1), at(1));  // zero-length span is legal
  EXPECT_EQ(rec.spans().size(), 1u);
}

TEST(Recorder, BusyTimeSimple) {
  Recorder rec;
  const auto l = rec.add_lane("gpu");
  rec.record(l, "k1", "kernel", at(0), at(2));
  rec.record(l, "k2", "kernel", at(5), at(7));
  EXPECT_EQ(rec.busy_time(l, at(0), at(10)).ns, seconds(4).ns);
  EXPECT_DOUBLE_EQ(rec.utilization(l, at(0), at(10)), 0.4);
}

TEST(Recorder, BusyTimeMergesOverlaps) {
  Recorder rec;
  const auto l = rec.add_lane("gpu");
  rec.record(l, "a", "kernel", at(0), at(4));
  rec.record(l, "b", "kernel", at(2), at(6));  // overlaps a
  rec.record(l, "c", "kernel", at(6), at(8));  // adjacent to merged block
  EXPECT_EQ(rec.busy_time(l, at(0), at(10)).ns, seconds(8).ns);
}

TEST(Recorder, BusyTimeClipsToWindow) {
  Recorder rec;
  const auto l = rec.add_lane("gpu");
  rec.record(l, "a", "kernel", at(0), at(10));
  EXPECT_EQ(rec.busy_time(l, at(4), at(6)).ns, seconds(2).ns);
  EXPECT_DOUBLE_EQ(rec.utilization(l, at(4), at(6)), 1.0);
}

TEST(Recorder, LanesAreIndependent) {
  Recorder rec;
  const auto a = rec.add_lane("gpu0");
  const auto b = rec.add_lane("gpu1");
  rec.record(a, "k", "kernel", at(0), at(5));
  EXPECT_EQ(rec.busy_time(b, at(0), at(10)).ns, 0);
  EXPECT_EQ(rec.lane_spans(a).size(), 1u);
  EXPECT_EQ(rec.lane_spans(b).size(), 0u);
}

TEST(Recorder, CategoryQuery) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  rec.record(l, "t1", "phase:train", at(0), at(1));
  rec.record(l, "s1", "phase:simulate", at(1), at(2));
  rec.record(l, "t2", "phase:train", at(2), at(3));
  EXPECT_EQ(rec.category_spans("phase:train").size(), 2u);
  EXPECT_EQ(rec.category_spans("phase:simulate").size(), 1u);
  EXPECT_EQ(rec.category_spans("none").size(), 0u);
}

TEST(Recorder, ExtentQueries) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  EXPECT_EQ(rec.first_start().ns, 0);
  EXPECT_EQ(rec.last_end().ns, 0);
  rec.record(l, "a", "x", at(3), at(9));
  rec.record(l, "b", "x", at(1), at(4));
  EXPECT_EQ(rec.first_start(), at(1));
  EXPECT_EQ(rec.last_end(), at(9));
}

TEST(Recorder, UtilizationEmptyWindow) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  EXPECT_DOUBLE_EQ(rec.utilization(l, at(5), at(5)), 0.0);
}

TEST(Recorder, Clear) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  rec.record(l, "a", "x", at(0), at(1));
  rec.clear();
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.lane_count(), 1u);  // lanes survive clear
}

// -- interned labels -----------------------------------------------------------

// The span log hands every span out by value: keep them flat.
static_assert(std::is_trivially_copyable_v<Span>);
static_assert(sizeof(Span) <= 32);

TEST(Recorder, LabelIdsCountUpInFirstSeenOrder) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  rec.record(l, "task:b", "task:a", at(0), at(1));  // name before category
  rec.record(l, "k", "task:a", at(0), at(1));       // name new, category known
  rec.record(l, "task:b", "task:c", at(0), at(1));  // name seen before: same id
  EXPECT_EQ(rec.spans()[0].name, 0u);
  EXPECT_EQ(rec.spans()[0].category, 1u);
  EXPECT_EQ(rec.spans()[1].name, 2u);
  EXPECT_EQ(rec.spans()[1].category, 1u);
  EXPECT_EQ(rec.spans()[2].name, 0u);
  EXPECT_EQ(rec.spans()[2].category, 3u);
}

TEST(Recorder, LabelTextRoundTrips) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  for (const char* text : {"", "client/decode", "kernel:gemv", "tab\there"}) {
    rec.record(l, text, "kernel", at(0), at(1));
    EXPECT_EQ(rec.label(rec.spans()[rec.spans().size() - 1].name), text);
  }
  EXPECT_THROW((void)rec.label(99), util::Error);
}

TEST(Recorder, LabelIdsSurviveClear) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  rec.record(l, "a", "x", at(0), at(1));
  const LabelId a = rec.spans()[0].name;
  rec.clear();
  EXPECT_EQ(rec.label(a), "a");
  rec.record(rec.key(l, "a", "x"), at(2), at(3));
  EXPECT_EQ(rec.spans()[0].name, a);
  EXPECT_EQ(rec.category_spans("x").size(), 1u);
}

TEST(Recorder, UnknownCategoryHasNoSpansAndIsNotInterned) {
  Recorder rec;
  const auto l = rec.add_lane("w");
  rec.record(l, "a", "x", at(0), at(1));
  EXPECT_TRUE(rec.category_spans("never-recorded").empty());
  rec.record(l, "y", "x", at(1), at(2));
  EXPECT_EQ(rec.spans()[1].name, 2u);  // the lookup added no label
}

TEST(Recorder, StringAndKeyFormsRecordEqualSpans) {
  Recorder rec;
  const auto l = rec.add_lane("gpu");
  rec.record(l, "llama/decode", "kernel:gemv", at(1), at(4));
  rec.record(rec.key(l, "llama/decode", "kernel:gemv"), at(1), at(4));
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_THROW((void)rec.spans()[2], util::Error);
  const Span by_text = rec.spans()[0];
  const Span by_key = rec.spans()[1];
  EXPECT_EQ(by_text.lane, by_key.lane);
  EXPECT_EQ(by_text.name, by_key.name);
  EXPECT_EQ(by_text.category, by_key.category);
  EXPECT_EQ(by_text.start, by_key.start);
  EXPECT_EQ(by_text.end, by_key.end);
  EXPECT_THROW(rec.record(SpanKey{7}, at(1), at(4)), util::Error);
}

// -- span keys and the span log ------------------------------------------------

TEST(Recorder, SpanKeysNameOneTripleEach) {
  Recorder rec;
  const auto a = rec.add_lane("gpu0");
  const auto b = rec.add_lane("gpu1");
  const SpanKey k = rec.key(a, "c/k", "kernel:gemm");
  EXPECT_EQ(k, 0u);
  EXPECT_EQ(rec.key(a, "c/k", "kernel:gemm"), k);   // seen before: same key
  EXPECT_EQ(rec.key(b, "c/k", "kernel:gemm"), 1u);  // another lane
  EXPECT_EQ(rec.key(a, "c/k", "kernel:gemv"), 2u);  // another category
  EXPECT_THROW((void)rec.key(b + 1, "c/k", "kernel:gemm"), util::Error);
  rec.record(k, at(0), at(1));
  EXPECT_EQ(rec.spans()[0].name, 0u);  // name interned first
  EXPECT_EQ(rec.label(rec.spans()[0].category), "kernel:gemm");
  rec.clear();
  EXPECT_EQ(rec.key(a, "c/k", "kernel:gemm"), k);  // keys survive clear
}

}  // namespace
}  // namespace faaspart::trace
