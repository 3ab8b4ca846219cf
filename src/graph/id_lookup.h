#ifndef RICD_GRAPH_ID_LOOKUP_H_
#define RICD_GRAPH_ID_LOOKUP_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ricd::graph {

/// Open-addressing hash map from external 64-bit ids to dense vertex ids
/// 0, 1, 2, ... in insertion order. GraphBuilder compacts a table's ids
/// through one per side, and every BipartiteGraph answers
/// LookupUser/LookupItem through one per side built over its id section.
/// Power-of-two capacity >= 2x the key count keeps the load factor <= 0.5,
/// linear probing keeps a miss to a short contiguous scan.
///
/// Dense ids are bounded above by 0xFFFFFFFE: FindOrInsert refuses the
/// key that would need id kNoId, so kNoId marks an empty slot and no
/// separate occupancy bitmap is needed.
class FlatIdMap {
 public:
  /// The empty-slot marker, and FindOrInsert's answer when ids run out.
  static constexpr uint32_t kNoId = 0xFFFFFFFFu;

  FlatIdMap() = default;

  /// Builds over `ids`, mapping ids[i] -> i, sized once for ids.size()
  /// keys. Ids must be unique (graph external-id arrays are).
  explicit FlatIdMap(std::span<const int64_t> ids);

  /// Dense id of `external`. An absent key is inserted under the next
  /// dense id, size(), after doubling the capacity if the insert would
  /// pass load 0.5 — unless size() is already kNoId: then no id below the
  /// empty-slot marker is left, and it inserts nothing and returns kNoId.
  uint32_t FindOrInsert(int64_t external) {
    uint64_t slot = 0;
    if (!vals_.empty()) {
      slot = Probe(external);
      if (vals_[slot] != kNoId) return vals_[slot];
    }
    if (size_ == kNoId) return kNoId;
    if ((uint64_t{size_} + 1) * 2 > vals_.size()) {
      Rehash(vals_.empty() ? 2 : vals_.size() * 2);
      slot = Probe(external);
    }
    keys_[slot] = external;
    vals_[slot] = size_;
    return size_++;
  }

  /// True with *out set when `external` is present.
  bool Lookup(int64_t external, uint32_t* out) const {
    if (vals_.empty()) return false;
    const uint64_t slot = Probe(external);
    if (vals_[slot] == kNoId) return false;
    *out = vals_[slot];
    return true;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return vals_.size(); }

 private:
  /// SplitMix64 finalizer: full-avalanche mixing of the raw external id, so
  /// sequential id blocks (the common allocator pattern upstream) spread
  /// across the table instead of clustering into one probe run.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// The slot holding `external`, or the empty slot that ends its probe run.
  /// Requires a non-zero capacity.
  uint64_t Probe(int64_t external) const {
    uint64_t slot = Mix(static_cast<uint64_t>(external)) & mask_;
    while (vals_[slot] != kNoId && keys_[slot] != external) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  /// Moves every key into a fresh table of `capacity` slots (a power of
  /// two above the key count).
  void Rehash(uint64_t capacity);

  std::vector<int64_t> keys_;
  std::vector<uint32_t> vals_;  // kNoId = empty slot
  uint64_t mask_ = 0;
  uint32_t size_ = 0;
};

}  // namespace ricd::graph

#endif  // RICD_GRAPH_ID_LOOKUP_H_
