// KvPager — paged KV-cache allocation for LLM serving (DESIGN.md §14).
//
// vLLM-style paged attention, reduced to what the cost model needs: the KV
// cache of every live sequence is a page table over a fixed pool of
// fixed-size pages (page_tokens tokens each), carved out of one big HBM
// allocation so capacity limits bite through gpu::MemoryPool. Three
// properties the serving engine depends on, all property-tested
// (tests/prop/prop_kv_pager.cpp):
//   * no page is ever mapped by two live sequences (isolation),
//   * free + used always equals the pool size (conservation — preemption
//     and release cannot leak pages), and
//   * allocation is deterministic: pages are handed out lowest-index-first,
//     so the same op sequence always produces the same page tables.
//
// Preemption is copy-free (the paper-adjacent trick that makes engine
// eviction cheap): preempt() returns every page to the pool but keeps the
// sequence entry alive at zero tokens; the engine re-runs prefill on resume
// (recompute), so no KV bytes ever move.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace faaspart::gpu {

using KvSeqId = std::uint64_t;

struct KvPagerConfig {
  /// Tokens per page. vLLM defaults to 16; smaller pages waste less to
  /// internal fragmentation but grow the page tables.
  int page_tokens = 16;
  /// KV bytes one context token occupies (workloads::llama_kv_bytes_per_token).
  util::Bytes bytes_per_token = 1;
  /// HBM bytes backing the pool (the engine's single "kv-pool" allocation).
  util::Bytes capacity = 0;
  /// New admissions may only fill the pool up to this fraction; the
  /// headroom above it is reserved for in-flight sequences growing by one
  /// token per decode step, which keeps admission from guaranteeing a
  /// preemption storm one iteration later.
  double admit_watermark = 0.90;
};

struct KvPagerStats {
  std::uint64_t sequences_created = 0;
  std::uint64_t pages_allocated = 0;  ///< cumulative grants
  std::uint64_t preemptions = 0;
  std::uint64_t grow_failures = 0;    ///< all-or-nothing grows refused
  int peak_pages_in_use = 0;
};

class KvPager {
 public:
  explicit KvPager(KvPagerConfig cfg);

  [[nodiscard]] const KvPagerConfig& config() const { return cfg_; }
  [[nodiscard]] int total_pages() const { return total_pages_; }
  [[nodiscard]] int free_pages() const { return free_count_; }
  [[nodiscard]] int used_pages() const { return total_pages_ - free_pages(); }
  [[nodiscard]] util::Bytes page_bytes() const;
  [[nodiscard]] util::Bytes bytes_in_use() const;
  [[nodiscard]] std::size_t live_sequences() const { return seqs_.size(); }
  [[nodiscard]] const KvPagerStats& stats() const { return stats_; }

  /// Pages needed to hold `tokens` context tokens (ceiling; 0 for 0).
  [[nodiscard]] int pages_for_tokens(int tokens) const;

  /// Admission check: could a *new* context of `tokens` tokens be grown
  /// without pushing the pool past the watermark? Purely advisory — grow()
  /// itself only requires free pages, so running sequences may use the
  /// reserved headroom.
  [[nodiscard]] bool can_admit(int tokens) const;

  /// Would `tokens` fit under the watermark even with the pool empty? False
  /// means the context can never be admitted — the engine sheds it instead
  /// of letting FCFS head-of-line blocking become a livelock.
  [[nodiscard]] bool can_ever_admit(int tokens) const;

  [[nodiscard]] bool live(KvSeqId id) const;
  /// Logical context length; throws util::NotFoundError for dead ids.
  [[nodiscard]] int tokens_of(KvSeqId id) const;
  /// The sequence's page indices in allocation order. The reference stays
  /// valid until the next create() or release().
  [[nodiscard]] const std::vector<int>& page_table(KvSeqId id) const;
  /// Live ids in creation order (deterministic iteration for tests).
  [[nodiscard]] std::vector<KvSeqId> sequence_ids() const;

  /// Registers a sequence with no pages; grow() maps its context. The pager
  /// keeps nothing of `tag`: a sequence is known by its id alone.
  KvSeqId create(std::string_view tag = {});

  /// Grows `id` to hold at least `tokens` total context tokens, taking the
  /// lowest-index free pages. All-or-nothing: on failure nothing is
  /// allocated and false is returned (the engine then preempts a victim or
  /// defers admission). Growing to fewer tokens than currently mapped is a
  /// no-op that still succeeds (pages are never returned implicitly).
  bool grow(KvSeqId id, int tokens);

  /// Returns every page and retires the sequence. Throws
  /// util::NotFoundError for unknown ids (a double release is a bug, not a
  /// no-op).
  void release(KvSeqId id);

  /// Copy-free preemption: returns every page to the pool but keeps the
  /// sequence live at zero tokens. Returns the number of pages freed.
  int preempt(KvSeqId id);

 private:
  struct Seq {
    KvSeqId id = 0;
    int tokens = 0;
    std::vector<int> pages;
  };

  /// Position of live sequence `id` in seqs_; throws util::NotFoundError
  /// for dead ids.
  [[nodiscard]] std::size_t index_of(KvSeqId id) const;
  /// Appends the `n` lowest-index free pages to `pages`; n <= free_pages().
  void take_pages(int n, std::vector<int>& pages);
  void return_pages(const std::vector<int>& pages);

  KvPagerConfig cfg_;
  int total_pages_ = 0;
  int watermark_pages_ = 0;
  /// Bit p % 64 of word p / 64 is set while page p is free; the bits past
  /// total_pages_ stay clear.
  std::vector<std::uint64_t> free_bits_;
  int free_count_ = 0;
  /// Every word below this one is zero, so hand-out starts its scan here.
  std::size_t free_cursor_ = 0;
  /// Live sequences in id order. Ids only grow, so create() appends and id
  /// order is creation order.
  std::vector<Seq> seqs_;
  KvSeqId next_id_ = 1;
  KvPagerStats stats_;
};

}  // namespace faaspart::gpu
