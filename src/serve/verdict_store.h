#ifndef RICD_SERVE_VERDICT_STORE_H_
#define RICD_SERVE_VERDICT_STORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "table/click_record.h"

namespace ricd::serve {

/// Ingest-side accounting published with every snapshot so STATS consumers
/// see a consistent (epoch, counters) pair.
struct ServeStats {
  uint64_t accepted = 0;         ///< click records admitted to the queue
  uint64_t rejected = 0;         ///< records refused with ResourceExhausted
  uint64_t applied = 0;          ///< streamed records in this snapshot's cut
  uint64_t batches = 0;          ///< refresh batches drained from the queue
  uint64_t stream_edges = 0;     ///< distinct (user, item) edges retained
  uint64_t stream_clicks = 0;    ///< total clicks retained

  // Windowed-retention state, sampled from the ClickWindow in the same
  // critical section as the detection run.
  uint64_t window_retained_rows = 0;
  uint64_t window_segments = 0;       ///< sealed segments currently retained
  uint64_t window_evicted_segments = 0;
  uint64_t window_evicted_rows = 0;
  uint64_t window_clock_high = 0;     ///< event-second high watermark
};

/// One immutable verdict generation. All member vectors are sorted
/// ascending and deduplicated; queries are binary searches, so a reader
/// needs no locks and no hashing. Risk scores ride along with the ids
/// (parallel `risk` vectors) for the QUERY protocol responses.
struct VerdictSnapshot {
  uint64_t epoch = 0;

  std::vector<table::UserId> flagged_users;   // sorted ascending
  std::vector<double> user_risks;             // parallel to flagged_users
  std::vector<table::ItemId> flagged_items;   // sorted ascending
  std::vector<double> item_risks;             // parallel to flagged_items

  /// Fake co-click edges: (flagged user, flagged item) pairs that exist in
  /// the retained click rows. Sorted lexicographically.
  std::vector<std::pair<table::UserId, table::ItemId>> blocked_pairs;

  ServeStats stats;

  bool FlaggedUser(table::UserId u) const {
    return std::binary_search(flagged_users.begin(), flagged_users.end(), u);
  }
  bool FlaggedItem(table::ItemId v) const {
    return std::binary_search(flagged_items.begin(), flagged_items.end(), v);
  }
  bool BlockedPair(table::UserId u, table::ItemId v) const {
    return std::binary_search(blocked_pairs.begin(), blocked_pairs.end(),
                              std::make_pair(u, v));
  }

  /// Risk of a flagged user/item, 0.0 when not flagged.
  double UserRisk(table::UserId u) const;
  double ItemRisk(table::ItemId v) const;
};

/// Single-writer / many-reader publication point for VerdictSnapshots —
/// the RCU-style core of the serving path.
///
/// Readers (Acquire) never take a mutex: pinning a snapshot is one seq_cst
/// load of the current version, one seq_cst fetch_add on a thread-striped
/// reference shard, and one validating re-load. If a publish races in
/// between, the reader retries (lock-free; wait-free in the absence of
/// concurrent publishes, and publishes are rare — one per refresh).
///
/// Writers (Publish) rotate through a small ring of slots. A slot is only
/// reused kRingSlots publishes later, and the writer spins until every
/// reader reference on that slot has drained before overwriting it, so a
/// pinned snapshot can never be freed underneath a reader. Ownership stays
/// in writer-side shared_ptrs; readers touch only raw const pointers.
///
/// Memory-ordering argument (see DESIGN.md §10 for the full proof sketch):
/// the writer's slot-reuse sequence is [wait refs==0] → [store ptr] →
/// [store version]; the reader's pin sequence is [load version v] →
/// [fetch_add ref on slot(v)] → [re-load version]. All version and ref
/// operations are seq_cst, so if the validating re-load still observes v,
/// the writer that will eventually reuse slot(v) has not yet passed its
/// refs==0 wait in the single total order — the reader's ref is visible to
/// it — and the snapshot stays alive until the ReadRef releases.
class VerdictStore {
 public:
  static constexpr size_t kRingSlots = 4;   // power of two
  static constexpr size_t kRefShards = 16;  // power of two

  /// RAII pin on one snapshot. Movable, not copyable; releasing is one
  /// atomic decrement.
  class ReadRef {
   public:
    ReadRef() = default;
    ReadRef(ReadRef&& other) noexcept
        : snapshot_(other.snapshot_), ref_(other.ref_) {
      other.snapshot_ = nullptr;
      other.ref_ = nullptr;
    }
    ReadRef& operator=(ReadRef&& other) noexcept {
      if (this != &other) {
        Release();
        snapshot_ = other.snapshot_;
        ref_ = other.ref_;
        other.snapshot_ = nullptr;
        other.ref_ = nullptr;
      }
      return *this;
    }
    ReadRef(const ReadRef&) = delete;
    ReadRef& operator=(const ReadRef&) = delete;
    ~ReadRef() { Release(); }

    const VerdictSnapshot* get() const { return snapshot_; }
    const VerdictSnapshot& operator*() const { return *snapshot_; }
    const VerdictSnapshot* operator->() const { return snapshot_; }

   private:
    friend class VerdictStore;
    ReadRef(const VerdictSnapshot* snapshot, std::atomic<int64_t>* ref)
        : snapshot_(snapshot), ref_(ref) {}
    void Release() {
      if (ref_ != nullptr) ref_->fetch_sub(1, std::memory_order_seq_cst);
      ref_ = nullptr;
      snapshot_ = nullptr;
    }

    const VerdictSnapshot* snapshot_ = nullptr;
    std::atomic<int64_t>* ref_ = nullptr;
  };

  /// Installs an empty epoch-0 snapshot so Acquire() is valid immediately.
  VerdictStore();
  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  /// Pins the current snapshot. Never blocks; never touches a mutex.
  ReadRef Acquire() const;

  /// Publishes `next` as the new current snapshot. Serialized internally
  /// (any thread may publish); may spin waiting for stale readers of the
  /// slot being recycled, but never blocks readers.
  void Publish(std::shared_ptr<const VerdictSnapshot> next)
      RICD_EXCLUDES(publish_mu_);

  /// Epoch of the currently published snapshot.
  uint64_t CurrentEpoch() const;

  /// Number of publishes so far (== version counter).
  uint64_t PublishCount() const {
    return version_.load(std::memory_order_seq_cst);
  }

 private:
  struct alignas(64) RefShard {
    std::atomic<int64_t> refs{0};
  };
  struct Slot {
    // Guarded by the outer VerdictStore's publish_mu_ (clang's analysis
    // cannot name an enclosing-class member from a nested struct).
    std::shared_ptr<const VerdictSnapshot> owner;
    std::atomic<const VerdictSnapshot*> ptr{nullptr};
    std::array<RefShard, kRefShards> shards{};

    int64_t TotalRefs() const {
      int64_t total = 0;
      for (const auto& shard : shards) {
        total += shard.refs.load(std::memory_order_seq_cst);
      }
      return total;
    }
  };

  static size_t ShardIndex() {
    thread_local const size_t index =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        (kRefShards - 1);
    return index;
  }

  // unguarded: per-slot atomics carry their own protocol (seq_cst proof
  // above); Slot::owner is publish_mu_-guarded, documented on the field.
  mutable std::array<Slot, kRingSlots> slots_;
  /// Version v lives in slot (v & (kRingSlots - 1)); readers validate
  /// against this after announcing their reference.
  std::atomic<uint64_t> version_{0};
  Mutex publish_mu_;  // writer-side serialization only
};

}  // namespace ricd::serve

#endif  // RICD_SERVE_VERDICT_STORE_H_
