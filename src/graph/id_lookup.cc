#include "graph/id_lookup.h"

#include <utility>

namespace ricd::graph {

FlatIdMap::FlatIdMap(std::span<const int64_t> ids) {
  if (ids.empty()) return;
  uint64_t capacity = 2;
  while (capacity < ids.size() * 2) capacity *= 2;
  Rehash(capacity);
  for (const int64_t id : ids) FindOrInsert(id);
}

void FlatIdMap::Rehash(uint64_t capacity) {
  const std::vector<int64_t> keys = std::move(keys_);
  const std::vector<uint32_t> vals = std::move(vals_);
  keys_.assign(capacity, 0);
  vals_.assign(capacity, kNoId);
  mask_ = capacity - 1;
  for (size_t s = 0; s < vals.size(); ++s) {
    if (vals[s] == kNoId) continue;
    const uint64_t slot = Probe(keys[s]);
    keys_[slot] = keys[s];
    vals_[slot] = vals[s];
  }
}

}  // namespace ricd::graph
