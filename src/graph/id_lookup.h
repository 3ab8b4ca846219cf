#ifndef RICD_GRAPH_ID_LOOKUP_H_
#define RICD_GRAPH_ID_LOOKUP_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ricd::graph {

/// Open-addressing hash map from external 64-bit ids to dense vertex ids,
/// sized once at build time (external-id sets are immutable after graph
/// construction). Power-of-two capacity >= 2x the key count keeps the load
/// factor <= 0.5, linear probing keeps a miss to a short contiguous scan.
/// Every BipartiteGraph answers LookupUser/LookupItem through one per side.
///
/// Dense ids are bounded above by 0xFFFFFFFE (the 32-bit id ceiling the
/// builder enforces), so 0xFFFFFFFF marks an empty slot and no separate
/// occupancy bitmap is needed.
class FlatIdMap {
 public:
  FlatIdMap() = default;

  /// Builds over `ids`, mapping ids[i] -> i. Ids must be unique (graph
  /// external-id arrays are).
  explicit FlatIdMap(std::span<const int64_t> ids);

  /// True with *out set when `external` is present.
  bool Lookup(int64_t external, uint32_t* out) const;

  bool empty() const { return vals_.empty(); }
  size_t capacity() const { return vals_.size(); }

 private:
  std::vector<int64_t> keys_;
  std::vector<uint32_t> vals_;  // 0xFFFFFFFF = empty slot
  uint64_t mask_ = 0;
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_ID_LOOKUP_H_
