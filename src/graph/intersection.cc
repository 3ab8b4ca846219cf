#include "graph/intersection.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace ricd::graph {
namespace {

/// Sortedness precondition of every intersection kernel. O(n), so it runs
/// as a debug-only per-element check — in Release the kernels would merely
/// return a wrong count, which the gated validators catch downstream.
bool StrictlyAscending(std::span<const VertexId> s) {
  for (size_t i = 1; i < s.size(); ++i) {
    if (s[i] <= s[i - 1]) return false;
  }
  return true;
}

// Galloping variant for strongly skewed sizes: binary-search each element of
// the small span in the large one.
uint64_t GallopIntersection(std::span<const VertexId> small,
                            std::span<const VertexId> large, uint64_t cap) {
  uint64_t count = 0;
  auto lo = large.begin();
  for (const VertexId x : small) {
    lo = std::lower_bound(lo, large.end(), x);
    if (lo == large.end()) break;
    if (*lo == x) {
      if (++count >= cap) return cap;
      ++lo;
    }
  }
  return count;
}

/// Merge intersection for comparable sizes. The outer loop skips 8-element
/// blocks that sort entirely before the other side's cursor (two compares
/// per 8 skipped elements); overlapping octets fall into a branch-free
/// two-pointer core where equality/advance decisions are arithmetic, not
/// predicted branches.
uint64_t BlockMergeIntersection(std::span<const VertexId> a,
                                std::span<const VertexId> b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (i + 8 <= na && j + 8 <= nb) {
    if (a[i + 7] < b[j]) {
      i += 8;
      continue;
    }
    if (b[j + 7] < a[i]) {
      j += 8;
      continue;
    }
    const size_t i_stop = i + 8;
    const size_t j_stop = j + 8;
    while (i < i_stop && j < j_stop) {
      const VertexId x = a[i];
      const VertexId y = b[j];
      count += static_cast<uint64_t>(x == y);
      i += static_cast<size_t>(x <= y);
      j += static_cast<size_t>(y <= x);
    }
  }
  while (i < na && j < nb) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    count += static_cast<uint64_t>(x == y);
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
  return count;
}

/// Early-exit merge for small caps: the branchy classic, which can stop as
/// soon as `cap` matches are found.
uint64_t CappedMergeIntersection(std::span<const VertexId> a,
                                 std::span<const VertexId> b, uint64_t cap) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      if (++count >= cap) return cap;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Dense-pair path: when both spans pack tightly into a shared value range,
/// materialize each as a word bitset over [lo, hi] (thread-local scratch,
/// grown once) and count via word AND + popcount — ~range/64 word ops
/// instead of ~(|a| + |b|) merge steps.
uint64_t DensePairIntersection(std::span<const VertexId> a,
                               std::span<const VertexId> b, VertexId lo,
                               size_t words) {
  thread_local std::vector<uint64_t> wa;
  thread_local std::vector<uint64_t> wb;
  if (wa.size() < words) {
    wa.resize(words);
    wb.resize(words);
  }
  std::fill(wa.begin(), wa.begin() + static_cast<ptrdiff_t>(words), 0);
  std::fill(wb.begin(), wb.begin() + static_cast<ptrdiff_t>(words), 0);
  for (const VertexId x : a) {
    const VertexId rel = x - lo;
    wa[rel >> 6] |= uint64_t{1} << (rel & 63);
  }
  for (const VertexId x : b) {
    const VertexId rel = x - lo;
    wb[rel >> 6] |= uint64_t{1} << (rel & 63);
  }
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<uint64_t>(std::popcount(wa[w] & wb[w]));
  }
  return count;
}

uint64_t IntersectCapped(std::span<const VertexId> a, std::span<const VertexId> b,
                         uint64_t cap) {
  RICD_DCHECK(StrictlyAscending(a));
  RICD_DCHECK(StrictlyAscending(b));
  if (a.empty() || b.empty() || cap == 0) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() / a.size() >= 16) return GallopIntersection(a, b, cap);

  // Density heuristic: both spans live in [lo, hi]; the popcount path costs
  // ~(hi - lo) / 64 word ops after O(|a| + |b|) bit sets, so it wins when
  // the shared range is at most ~8x the combined size (>= 1/8 occupancy).
  const VertexId lo = std::min(a.front(), b.front());
  const VertexId hi = std::max(a.back(), b.back());
  const uint64_t range = static_cast<uint64_t>(hi) - lo + 1;
  if (range <= 8 * (static_cast<uint64_t>(a.size()) + b.size())) {
    const size_t words = static_cast<size_t>((range + 63) / 64);
    return std::min<uint64_t>(DensePairIntersection(a, b, lo, words), cap);
  }

  // Small caps want the early exit; uncapped (and effectively uncapped)
  // counting wants the branch-free block merge.
  if (cap <= 8) return CappedMergeIntersection(a, b, cap);
  return std::min<uint64_t>(BlockMergeIntersection(a, b), cap);
}

}  // namespace

uint64_t IntersectionSize(std::span<const VertexId> a,
                          std::span<const VertexId> b) {
  return IntersectCapped(a, b, UINT64_MAX);
}

uint64_t IntersectionAtLeast(std::span<const VertexId> a,
                             std::span<const VertexId> b, uint64_t threshold) {
  return IntersectCapped(a, b, threshold);
}

void BitsetIntersector::Load(std::span<const VertexId> base, uint32_t universe) {
  RICD_DCHECK(StrictlyAscending(base));
  // Clear only the words the previous base touched.
  for (const uint32_t w : touched_words_) words_[w] = 0;
  touched_words_.clear();
  const size_t words = (static_cast<size_t>(universe) + 63) / 64;
  if (words_.size() < words) words_.resize(words, 0);
  for (const VertexId x : base) {
    RICD_DCHECK_LT(x, universe);
    const uint32_t w = x >> 6;
    if (words_[w] == 0) touched_words_.push_back(w);
    words_[w] |= uint64_t{1} << (x & 63);
  }
  base_size_ = base.size();
}

uint64_t BitsetIntersector::Count(std::span<const VertexId> probe) const {
  uint64_t count = 0;
  size_t k = 0;
  const size_t n = probe.size();
  const uint64_t* words = words_.data();
  // 8-wide unrolled branch-free bit tests; each element costs one load,
  // one shift, one mask.
  for (; k + 8 <= n; k += 8) {
    count += ((words[probe[k + 0] >> 6] >> (probe[k + 0] & 63)) & 1) +
             ((words[probe[k + 1] >> 6] >> (probe[k + 1] & 63)) & 1) +
             ((words[probe[k + 2] >> 6] >> (probe[k + 2] & 63)) & 1) +
             ((words[probe[k + 3] >> 6] >> (probe[k + 3] & 63)) & 1) +
             ((words[probe[k + 4] >> 6] >> (probe[k + 4] & 63)) & 1) +
             ((words[probe[k + 5] >> 6] >> (probe[k + 5] & 63)) & 1) +
             ((words[probe[k + 6] >> 6] >> (probe[k + 6] & 63)) & 1) +
             ((words[probe[k + 7] >> 6] >> (probe[k + 7] & 63)) & 1);
  }
  for (; k < n; ++k) {
    count += (words[probe[k] >> 6] >> (probe[k] & 63)) & 1;
  }
  return count;
}

uint64_t BitsetIntersector::CountAnd(const BitsetIntersector& other) const {
  // Only words set on both sides can contribute; scan the shorter touched
  // list and AND against the other bitset.
  const BitsetIntersector& sparse =
      touched_words_.size() <= other.touched_words_.size() ? *this : other;
  const BitsetIntersector& dense =
      touched_words_.size() <= other.touched_words_.size() ? other : *this;
  uint64_t count = 0;
  for (const uint32_t w : sparse.touched_words_) {
    if (w >= dense.words_.size()) continue;
    count += static_cast<uint64_t>(
        std::popcount(sparse.words_[w] & dense.words_[w]));
  }
  return count;
}

}  // namespace ricd::graph
