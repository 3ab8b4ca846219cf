#ifndef RICD_ENGINE_WORKER_BUFFERS_H_
#define RICD_ENGINE_WORKER_BUFFERS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ricd::engine {

/// Per-worker append buffers with a deterministic commit step — the
/// building block of the parallel pruning phases. During a parallel phase
/// each worker appends only to its own buffer (no sharing, no locks);
/// afterwards the calling thread folds the buffers in worker order, so the
/// committed result depends only on the range partition, never on thread
/// scheduling. CorePruning merges its seed and next-frontier buffers
/// through this. Each worker's vector header lives in its own cache line to
/// keep appends from false-sharing.
template <typename T>
class PerWorkerBuffers {
 public:
  explicit PerWorkerBuffers(size_t num_workers)
      : slots_(num_workers == 0 ? 1 : num_workers) {}

  size_t num_workers() const { return slots_.size(); }

  std::vector<T>& ForWorker(size_t worker) { return slots_[worker].items; }
  const std::vector<T>& ForWorker(size_t worker) const {
    return slots_[worker].items;
  }

  size_t TotalSize() const {
    size_t total = 0;
    for (const Slot& slot : slots_) total += slot.items.size();
    return total;
  }

  /// Appends every buffer to `out` in worker order. When workers own
  /// contiguous ascending ranges and append in range order (the
  /// ParallelForChunks pattern), the concatenation is already globally
  /// sorted — no sort needed.
  void ConcatTo(std::vector<T>* out) const {
    out->reserve(out->size() + TotalSize());
    for (const Slot& slot : slots_) {
      out->insert(out->end(), slot.items.begin(), slot.items.end());
    }
  }

  /// ConcatTo + std::sort: the canonical order for buffers filled from
  /// non-contiguous work (e.g. neighbor expansion, where any worker can
  /// discover any vertex).
  void SortedTo(std::vector<T>* out) const {
    const size_t old_size = out->size();
    ConcatTo(out);
    std::sort(out->begin() + static_cast<ptrdiff_t>(old_size), out->end());
  }

 private:
  // One cache line per worker so concurrent size/pointer updates on
  // neighboring vectors never contend.
  struct alignas(64) Slot {
    std::vector<T> items;
  };

  std::vector<Slot> slots_;
};

}  // namespace ricd::engine

#endif  // RICD_ENGINE_WORKER_BUFFERS_H_
