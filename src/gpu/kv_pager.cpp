#include "gpu/kv_pager.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::gpu {

KvPager::KvPager(KvPagerConfig cfg) : cfg_(cfg) {
  FP_CHECK_MSG(cfg_.page_tokens > 0, "kv pager: page_tokens must be positive");
  FP_CHECK_MSG(cfg_.bytes_per_token > 0,
               "kv pager: bytes_per_token must be positive");
  FP_CHECK_MSG(cfg_.capacity >= 0, "kv pager: negative capacity");
  FP_CHECK_MSG(cfg_.admit_watermark > 0.0 && cfg_.admit_watermark <= 1.0,
               "kv pager: admit_watermark must be in (0, 1]");
  total_pages_ = static_cast<int>(cfg_.capacity / page_bytes());
  watermark_pages_ =
      static_cast<int>(cfg_.admit_watermark * static_cast<double>(total_pages_));
  free_bits_.assign((static_cast<std::size_t>(total_pages_) + 63) / 64,
                    ~std::uint64_t{0});
  if (const int tail = total_pages_ % 64; tail != 0) {
    free_bits_.back() = (std::uint64_t{1} << tail) - 1;
  }
  free_count_ = total_pages_;
}

util::Bytes KvPager::page_bytes() const {
  return static_cast<util::Bytes>(cfg_.page_tokens) * cfg_.bytes_per_token;
}

util::Bytes KvPager::bytes_in_use() const {
  return static_cast<util::Bytes>(used_pages()) * page_bytes();
}

int KvPager::pages_for_tokens(int tokens) const {
  FP_CHECK_MSG(tokens >= 0, "kv pager: negative token count");
  return (tokens + cfg_.page_tokens - 1) / cfg_.page_tokens;
}

bool KvPager::can_admit(int tokens) const {
  return used_pages() + pages_for_tokens(tokens) <= watermark_pages_;
}

bool KvPager::can_ever_admit(int tokens) const {
  return pages_for_tokens(tokens) <= watermark_pages_;
}

bool KvPager::live(KvSeqId id) const {
  return std::ranges::binary_search(seqs_, id, {}, &Seq::id);
}

std::size_t KvPager::index_of(KvSeqId id) const {
  const auto it = std::ranges::lower_bound(seqs_, id, {}, &Seq::id);
  if (it == seqs_.end() || it->id != id) {
    throw util::NotFoundError(util::strf("kv pager: unknown sequence ", id));
  }
  return static_cast<std::size_t>(it - seqs_.begin());
}

int KvPager::tokens_of(KvSeqId id) const { return seqs_[index_of(id)].tokens; }

const std::vector<int>& KvPager::page_table(KvSeqId id) const {
  return seqs_[index_of(id)].pages;
}

std::vector<KvSeqId> KvPager::sequence_ids() const {
  std::vector<KvSeqId> ids;
  ids.reserve(seqs_.size());
  for (const Seq& s : seqs_) ids.push_back(s.id);
  return ids;
}

KvSeqId KvPager::create(std::string_view /*tag*/) {
  const KvSeqId id = next_id_++;
  seqs_.push_back(Seq{id, 0, {}});
  ++stats_.sequences_created;
  return id;
}

void KvPager::take_pages(int n, std::vector<int>& pages) {
  free_count_ -= n;
  while (n > 0) {
    std::uint64_t& word = free_bits_[free_cursor_];
    if (word == 0) {
      ++free_cursor_;
      continue;
    }
    const int bit = std::countr_zero(word);  // lowest index: deterministic layout
    word &= word - 1;
    pages.push_back(static_cast<int>(free_cursor_ * 64) + bit);
    --n;
  }
}

void KvPager::return_pages(const std::vector<int>& pages) {
  for (const int p : pages) {
    const auto word = static_cast<std::size_t>(p) / 64;
    free_bits_[word] |= std::uint64_t{1} << (p % 64);
    free_cursor_ = std::min(free_cursor_, word);
  }
  free_count_ += static_cast<int>(pages.size());
}

bool KvPager::grow(KvSeqId id, int tokens) {
  FP_CHECK_MSG(tokens >= 0, "kv pager: negative token count");
  Seq& s = seqs_[index_of(id)];
  const int target = pages_for_tokens(tokens);
  const int have = static_cast<int>(s.pages.size());
  if (target > have) {
    const int need = target - have;
    if (need > free_pages()) {
      ++stats_.grow_failures;
      return false;
    }
    take_pages(need, s.pages);
    stats_.pages_allocated += static_cast<std::uint64_t>(need);
    stats_.peak_pages_in_use = std::max(stats_.peak_pages_in_use, used_pages());
  }
  s.tokens = std::max(s.tokens, tokens);
  return true;
}

void KvPager::release(KvSeqId id) {
  const std::size_t i = index_of(id);
  return_pages(seqs_[i].pages);
  seqs_.erase(seqs_.begin() + static_cast<std::ptrdiff_t>(i));
}

int KvPager::preempt(KvSeqId id) {
  Seq& s = seqs_[index_of(id)];
  const int freed = static_cast<int>(s.pages.size());
  return_pages(s.pages);
  s.pages.clear();
  s.tokens = 0;
  ++stats_.preemptions;
  return freed;
}

}  // namespace faaspart::gpu
