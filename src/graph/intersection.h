#ifndef RICD_GRAPH_INTERSECTION_H_
#define RICD_GRAPH_INTERSECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"

namespace ricd::graph {

/// Number of common elements of two sorted id spans. Dispatches on shape:
/// galloping when one span is much shorter than the other, a word-bitset
/// popcount pass when both spans are dense over a shared value range, and
/// otherwise an 8-wide block-skipping merge whose inner loop is branch-free
/// (comparison results are accumulated arithmetically, so the compiler can
/// keep it in registers / vectorize instead of predicting element order).
uint64_t IntersectionSize(std::span<const VertexId> a, std::span<const VertexId> b);

/// Like IntersectionSize but stops counting as soon as `threshold` common
/// elements are found, returning `threshold`. This is the early-exit form
/// of the (α, k)-neighbor test, where only "|a ∩ b| >= t" matters.
uint64_t IntersectionAtLeast(std::span<const VertexId> a,
                             std::span<const VertexId> b, uint64_t threshold);

/// Reusable one-vs-many intersection counter: Load() a base set once into a
/// word bitset, then Count() answers |base ∩ probe| with one branch-free
/// bit test per probe element — cheaper than a per-pair sorted merge when
/// the same base is probed against many sets (CopyCatch's maximality and
/// absorption loops). CountAnd() intersects two loaded bitsets directly via
/// word AND + std::popcount, the dense-vs-dense path.
///
/// Load() remembers which words it touched and clears only those on the
/// next Load(), so reusing one intersector across candidates costs
/// O(|previous base| + |new base|), never O(universe / 64).
class BitsetIntersector {
 public:
  /// Loads `base` (sorted unique ids < universe) into the bitset,
  /// replacing any previously loaded set.
  void Load(std::span<const VertexId> base, uint32_t universe);

  /// |base ∩ probe| for a sorted-unique probe span. Valid after Load().
  uint64_t Count(std::span<const VertexId> probe) const;

  /// |base ∩ other.base| via word AND + popcount. Both intersectors must be
  /// loaded over the same universe.
  uint64_t CountAnd(const BitsetIntersector& other) const;

  size_t base_size() const { return base_size_; }

  /// Density heuristic for the one-vs-many pattern: a per-pair merge costs
  /// ~(|base| + |probe|) per probe while the bitset path costs |base| once
  /// plus ~1 op per probe element, so the bitset wins once the base is
  /// rescanned a few times and is big enough to out-cost its own load.
  static bool ShouldUse(size_t base_size, size_t num_probes) {
    return num_probes >= 4 && base_size >= 64;
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint32_t> touched_words_;
  size_t base_size_ = 0;
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_INTERSECTION_H_
