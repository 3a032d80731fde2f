// KvPager unit tests (DESIGN.md §14) — the deterministic edge cases the
// property suite (tests/prop/prop_kv_pager.cpp) sweeps past: exact page
// arithmetic, lowest-index hand-out order, all-or-nothing grow, copy-free
// preemption, watermark admission and error contracts.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gpu/kv_pager.hpp"
#include "util/error.hpp"

namespace faaspart::gpu {
namespace {

KvPagerConfig small_pool() {
  KvPagerConfig cfg;
  cfg.page_tokens = 16;
  cfg.bytes_per_token = 1024;
  cfg.capacity = 10 * 16 * 1024;  // exactly 10 pages
  cfg.admit_watermark = 0.80;     // watermark at 8 pages
  return cfg;
}

TEST(KvPager, PageArithmetic) {
  KvPager pager(small_pool());
  EXPECT_EQ(pager.total_pages(), 10);
  EXPECT_EQ(pager.free_pages(), 10);
  EXPECT_EQ(pager.used_pages(), 0);
  EXPECT_EQ(pager.page_bytes(), 16 * 1024);
  EXPECT_EQ(pager.pages_for_tokens(0), 0);
  EXPECT_EQ(pager.pages_for_tokens(1), 1);
  EXPECT_EQ(pager.pages_for_tokens(16), 1);
  EXPECT_EQ(pager.pages_for_tokens(17), 2);
  EXPECT_THROW(pager.pages_for_tokens(-1), util::Error);
}

TEST(KvPager, LowestIndexFirstHandOut) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create("a");
  const KvSeqId b = pager.create("b");
  ASSERT_TRUE(pager.grow(a, 33));  // 3 pages
  ASSERT_TRUE(pager.grow(b, 16));  // 1 page
  EXPECT_EQ(pager.page_table(a), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pager.page_table(b), (std::vector<int>{3}));
  // Free a's pages; the next taker gets the released low indices first.
  pager.release(a);
  const KvSeqId c = pager.create("c");
  ASSERT_TRUE(pager.grow(c, 17));
  EXPECT_EQ(pager.page_table(c), (std::vector<int>{0, 1}));
  EXPECT_EQ(pager.bytes_in_use(), 3 * pager.page_bytes());
}

TEST(KvPager, LowestIndexFirstHandOutInALargePool) {
  // 200 pages: the free set spans four 64-bit words, and pages returned
  // below the words a grant has used up must still go out first.
  KvPagerConfig cfg;
  cfg.page_tokens = 1;
  cfg.bytes_per_token = 1;
  cfg.capacity = 200;
  cfg.admit_watermark = 1.0;
  KvPager pager(cfg);
  const auto range = [](int from, int to) {
    std::vector<int> pages(static_cast<std::size_t>(to - from));
    std::iota(pages.begin(), pages.end(), from);
    return pages;
  };
  const KvSeqId a = pager.create("a");
  const KvSeqId b = pager.create("b");
  ASSERT_TRUE(pager.grow(a, 130));
  ASSERT_TRUE(pager.grow(b, 60));
  EXPECT_EQ(pager.page_table(b), range(130, 190));
  EXPECT_EQ(pager.preempt(a), 130);
  const KvSeqId c = pager.create("c");
  ASSERT_TRUE(pager.grow(c, 70));
  EXPECT_EQ(pager.page_table(c), range(0, 70));
  // The rest of a's old pages, then the pool's last ten; none past page 199.
  ASSERT_TRUE(pager.grow(a, 70));
  std::vector<int> want = range(70, 130);
  for (const int p : range(190, 200)) want.push_back(p);
  EXPECT_EQ(pager.page_table(a), want);
  EXPECT_EQ(pager.free_pages(), 0);
  EXPECT_FALSE(pager.grow(c, 71));
  pager.release(b);
  const KvSeqId d = pager.create("d");
  ASSERT_TRUE(pager.grow(d, 5));
  EXPECT_EQ(pager.page_table(d), range(130, 135));
  EXPECT_EQ(pager.sequence_ids(), (std::vector<KvSeqId>{a, c, d}));
}

TEST(KvPager, GrowIsAllOrNothing) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create("a");
  ASSERT_TRUE(pager.grow(a, 8 * 16));  // 8 pages
  const KvSeqId b = pager.create("b");
  EXPECT_FALSE(pager.grow(b, 3 * 16));  // needs 3, only 2 free
  EXPECT_EQ(pager.page_table(b).size(), 0u);  // nothing partially granted
  EXPECT_EQ(pager.free_pages(), 2);
  EXPECT_EQ(pager.stats().grow_failures, 1u);
  EXPECT_TRUE(pager.grow(b, 2 * 16));  // exactly the remainder fits
  EXPECT_EQ(pager.free_pages(), 0);
}

TEST(KvPager, GrowToFewerTokensIsANoOp) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create("a");
  ASSERT_TRUE(pager.grow(a, 40));  // 3 pages
  const auto before = pager.page_table(a);
  EXPECT_TRUE(pager.grow(a, 10));  // shrink request: succeeds, returns nothing
  EXPECT_EQ(pager.page_table(a), before);
  EXPECT_EQ(pager.tokens_of(a), 40);
}

TEST(KvPager, PreemptIsCopyFreeAndKeepsTheSequence) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create("a");
  ASSERT_TRUE(pager.grow(a, 50));  // 4 pages
  EXPECT_EQ(pager.preempt(a), 4);
  EXPECT_TRUE(pager.live(a));
  EXPECT_EQ(pager.tokens_of(a), 0);
  EXPECT_EQ(pager.page_table(a).size(), 0u);
  EXPECT_EQ(pager.free_pages(), 10);
  EXPECT_EQ(pager.stats().preemptions, 1u);
  // The sequence can be rebuilt in place (recompute on re-admission).
  EXPECT_TRUE(pager.grow(a, 50));
  EXPECT_EQ(pager.tokens_of(a), 50);
}

TEST(KvPager, WatermarkGatesAdmissionButNotGrowth) {
  KvPager pager(small_pool());  // watermark: 8 of 10 pages
  EXPECT_TRUE(pager.can_admit(8 * 16));
  EXPECT_FALSE(pager.can_admit(9 * 16));
  EXPECT_FALSE(pager.can_ever_admit(9 * 16));
  const KvSeqId a = pager.create("a");
  ASSERT_TRUE(pager.grow(a, 7 * 16));
  EXPECT_TRUE(pager.can_admit(16));
  EXPECT_FALSE(pager.can_admit(2 * 16));      // would pass the watermark...
  EXPECT_TRUE(pager.can_ever_admit(2 * 16));  // ...but fits an empty pool
  // Growth for running sequences may use the reserved headroom.
  EXPECT_TRUE(pager.grow(a, 10 * 16));
  EXPECT_EQ(pager.free_pages(), 0);
}

TEST(KvPager, ReleaseErrorsOnUnknownAndDoubleRelease) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create("a");
  ASSERT_TRUE(pager.grow(a, 16));
  pager.release(a);
  EXPECT_FALSE(pager.live(a));
  EXPECT_THROW(pager.release(a), util::NotFoundError);
  EXPECT_THROW(pager.preempt(a), util::NotFoundError);
  EXPECT_THROW(pager.tokens_of(a), util::NotFoundError);
  EXPECT_THROW(pager.page_table(a), util::NotFoundError);
}

TEST(KvPager, StatsTrackPeakAndCumulativeGrants) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create("a");
  const KvSeqId b = pager.create("b");
  ASSERT_TRUE(pager.grow(a, 4 * 16));
  ASSERT_TRUE(pager.grow(b, 3 * 16));
  pager.release(a);
  ASSERT_TRUE(pager.grow(b, 5 * 16));
  EXPECT_EQ(pager.stats().sequences_created, 2u);
  EXPECT_EQ(pager.stats().pages_allocated, 4u + 3u + 2u);
  EXPECT_EQ(pager.stats().peak_pages_in_use, 7);
  EXPECT_EQ(pager.sequence_ids(), (std::vector<KvSeqId>{b}));
}

TEST(KvPager, ZeroCapacityPoolAdmitsNothing) {
  KvPagerConfig cfg = small_pool();
  cfg.capacity = 0;
  KvPager pager(cfg);
  EXPECT_EQ(pager.total_pages(), 0);
  EXPECT_FALSE(pager.can_ever_admit(1));
  const KvSeqId a = pager.create("a");
  EXPECT_FALSE(pager.grow(a, 1));
  EXPECT_TRUE(pager.grow(a, 0));  // an empty context needs no pages
}

}  // namespace
}  // namespace faaspart::gpu
