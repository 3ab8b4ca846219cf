#include "obs/metric_names.h"
#include "ricd/extension_biclique.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>

#include "check/validate.h"
#include "common/logging.h"
#include "engine/worker_buffers.h"
#include "graph/connected_components.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ricd::core {
namespace {

using graph::Side;
using graph::VertexId;

uint32_t CeilMul(double alpha, uint32_t k) {
  return static_cast<uint32_t>(std::ceil(alpha * static_cast<double>(k)));
}

/// Stage counters, resolved once; totals are bulk-added per stage so the
/// pruning inner loops stay counter-free.
struct ExtractionCounters {
  obs::Counter* users_pruned_core;
  obs::Counter* items_pruned_core;
  obs::Counter* users_pruned_square;
  obs::Counter* items_pruned_square;
  obs::Counter* candidate_groups;
  obs::Counter* sweeps;
  obs::Counter* rounds;
  obs::Counter* round_rechecks;
  obs::Counter* parallel_rechecks;
  obs::Counter* core_levels;
  obs::Counter* scratch_reuses;
  obs::Counter* witness_skips;
  obs::Counter* two_hop_entries;
  obs::Counter* dense_words;

  static const ExtractionCounters& Get() {
    static const ExtractionCounters counters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return ExtractionCounters{
          registry.GetCounter(obs::metric_names::kRicdExtractionUsersPrunedCore),
          registry.GetCounter(obs::metric_names::kRicdExtractionItemsPrunedCore),
          registry.GetCounter(obs::metric_names::kRicdExtractionUsersPrunedSquare),
          registry.GetCounter(obs::metric_names::kRicdExtractionItemsPrunedSquare),
          registry.GetCounter(obs::metric_names::kRicdExtractionCandidateGroups),
          registry.GetCounter(obs::metric_names::kRicdExtractionSweeps),
          registry.GetCounter(obs::metric_names::kRicdExtractionRounds),
          registry.GetCounter(obs::metric_names::kRicdExtractionRoundRechecks),
          registry.GetCounter(obs::metric_names::kRicdExtractionParallelRechecks),
          registry.GetCounter(obs::metric_names::kRicdExtractionCoreLevels),
          registry.GetCounter(obs::metric_names::kRicdExtractionScratchReuses),
          registry.GetCounter(obs::metric_names::kRicdExtractionWitnessSkips),
          registry.GetCounter(obs::metric_names::kRicdExtractionTwoHopEntries),
          registry.GetCounter(obs::metric_names::kRicdExtractionDenseWords)};
    }();
    return counters;
  }
};

/// The active subgraph of a MutableView as a compact CSR, taken at the start
/// of a SquarePruning side pass. Active vertices on each side are numbered
/// by rank, so local ids keep the original order; adjacency keeps only
/// active counterparts, in local ids.
struct CompactSubgraph {
  static constexpr VertexId kInactive = ~VertexId{0};

  std::array<std::vector<VertexId>, 2> ids;       // local -> original id
  std::array<std::vector<VertexId>, 2> to_local;  // original -> local id
  std::array<std::vector<uint64_t>, 2> offsets;   // size() + 1 row starts
  std::array<std::vector<VertexId>, 2> adj;

  static size_t Index(Side side) { return side == Side::kUser ? 0 : 1; }
  uint32_t size(Side side) const {
    return static_cast<uint32_t>(ids[Index(side)].size());
  }
  VertexId Original(Side side, VertexId x) const { return ids[Index(side)][x]; }
  /// The local id of original vertex `v`, or kInactive.
  VertexId Local(Side side, VertexId v) const {
    return to_local[Index(side)][v];
  }
  uint64_t Degree(Side side, VertexId x) const {
    const auto& off = offsets[Index(side)];
    return off[x + 1] - off[x];
  }
  std::span<const VertexId> Neighbors(Side side, VertexId x) const {
    const auto& off = offsets[Index(side)];
    return std::span<const VertexId>(adj[Index(side)])
        .subspan(off[x], off[x + 1] - off[x]);
  }
};

/// Gathers the active subgraph of `view`. Row sizes come from the view's
/// active degrees; one side's rows are filled by a parallel scan of its
/// original adjacency (the side with fewer original entries to read, so
/// dead neighbours of hot vertices are skipped at most once) and the other
/// side's rows by transposing them.
CompactSubgraph CompactActive(const graph::MutableView& view,
                              const engine::WorkerEngine& engine) {
  const graph::BipartiteGraph& g = view.graph();
  CompactSubgraph sub;
  std::array<uint64_t, 2> original_entries = {0, 0};
  for (const Side side : {Side::kUser, Side::kItem}) {
    const size_t s = CompactSubgraph::Index(side);
    sub.ids[s] = view.ActiveVertices(side);
    sub.to_local[s].assign(g.num_vertices(side), CompactSubgraph::kInactive);
    auto& off = sub.offsets[s];
    off.assign(sub.ids[s].size() + 1, 0);
    for (size_t x = 0; x < sub.ids[s].size(); ++x) {
      sub.to_local[s][sub.ids[s][x]] = static_cast<VertexId>(x);
      off[x + 1] = off[x] + view.ActiveDegree(side, sub.ids[s][x]);
      original_entries[s] += g.Degree(side, sub.ids[s][x]);
    }
    sub.adj[s].resize(off.back());
  }

  const Side scan =
      original_entries[0] <= original_entries[1] ? Side::kUser : Side::kItem;
  const Side other = Other(scan);
  const size_t sc = CompactSubgraph::Index(scan);
  const size_t ot = CompactSubgraph::Index(other);
  engine.ParallelForChunks(
      sub.size(scan), [&](size_t, engine::VertexRange range) {
        for (VertexId x = range.begin; x < range.end; ++x) {
          uint64_t out = sub.offsets[sc][x];
          for (const VertexId w : g.Neighbors(scan, sub.ids[sc][x])) {
            const VertexId local = sub.to_local[ot][w];
            if (local != CompactSubgraph::kInactive) {
              sub.adj[sc][out++] = local;
            }
          }
          RICD_DCHECK_EQ(out, sub.offsets[sc][x + 1]);
        }
      });

  // Scan rows are visited in ascending local order, so every transposed
  // row comes out ascending too.
  std::vector<uint64_t> cursor(sub.offsets[ot].begin(),
                               sub.offsets[ot].end() - 1);
  for (VertexId x = 0; x < sub.size(scan); ++x) {
    for (const VertexId w : sub.Neighbors(scan, x)) {
      sub.adj[ot][cursor[w]++] = x;
    }
  }
  return sub;
}

/// 512 same-side local ids as one 64-byte line of 8 words: the unit in
/// which the dense phase of the Lemma-2 test adds rows, takes the
/// qualifier mask and picks witnesses. Word i of block b holds local ids
/// 512b + 64i .. 512b + 64i + 63. DESIGN.md §9.2 has the widths measured.
struct alignas(64) IdBlock {
  static constexpr uint32_t kWords = 8;
  static constexpr uint32_t kIds = kWords * 64;

  std::array<uint64_t, kWords> word{};

  /// Bit `id` of the block, 0 <= id < kIds.
  bool Test(uint32_t id) const {
    return ((word[id >> 6] >> (id & 63)) & 1) != 0;
  }
};

/// Bitsets over the same-side local ids of a side pass, one per counterpart
/// row that holds at least `words` = ⌈n/64⌉ entries (n: the pass's
/// same-side active count), cut into `blocks` = ⌈n/512⌉ IdBlocks. Adding
/// such a row into bit-sliced counters takes a few word operations per 64
/// same-side vertices, where reading it costs one random increment per
/// entry. Built from the compact rows, so a bitset holds exactly its row's
/// entries; the last block's words past ⌈n/64⌉ stay zero.
struct DenseRows {
  static constexpr uint32_t kSparse = ~uint32_t{0};

  uint32_t words = 0;
  uint32_t blocks = 0;
  std::vector<uint32_t> index;  // counterpart local id -> dense row or kSparse
  std::vector<IdBlock> bits;    // dense row d at [d * blocks, (d + 1) * blocks)

  bool IsDense(VertexId w) const { return index[w] != kSparse; }
  const IdBlock* Row(VertexId w) const {
    return bits.data() + static_cast<size_t>(index[w]) * blocks;
  }
  /// The words of block `b` that hold same-side ids: 8, or fewer in the
  /// last block.
  uint32_t WordsIn(uint32_t b) const {
    return std::min(IdBlock::kWords, words - b * IdBlock::kWords);
  }
};

DenseRows BuildDenseRows(const CompactSubgraph& sub, Side side) {
  const Side other = Other(side);
  DenseRows dense;
  dense.words = (sub.size(side) + 63) / 64;
  dense.blocks = (sub.size(side) + IdBlock::kIds - 1) / IdBlock::kIds;
  dense.index.assign(sub.size(other), DenseRows::kSparse);
  uint32_t rows = 0;
  for (VertexId w = 0; w < sub.size(other); ++w) {
    if (dense.words > 0 && sub.Degree(other, w) >= dense.words) {
      dense.index[w] = rows++;
    }
  }
  dense.bits.assign(static_cast<size_t>(rows) * dense.blocks, IdBlock{});
  for (VertexId w = 0; w < sub.size(other); ++w) {
    if (!dense.IsDense(w)) continue;
    IdBlock* const row =
        dense.bits.data() + static_cast<size_t>(dense.index[w]) * dense.blocks;
    for (const VertexId y : sub.Neighbors(other, w)) {
      const uint32_t bit = y % IdBlock::kIds;
      row[y / IdBlock::kIds].word[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
  return dense;
}

/// Reusable per-worker scratch of the Lemma-2 test: a flat counting array
/// (reset cost proportional to the touched list, not to n) plus the touched
/// list itself for the sparse rows; for the dense ones, the candidate's
/// dense rows, its touched list bucketed by block, the bit-sliced counter
/// planes of one block and the qualifier mask of every block added.
/// Pooled per worker and reused across every candidate of a side pass —
/// the evaluation allocates nothing per candidate once the buffers have
/// grown. One cache line per worker, so neighbouring workers' `touched`
/// appends never write to a shared line. `two_hop_entries` tallies the
/// sparse second-hop entries the test has read, `dense_words` the
/// dense-row words it added.
struct alignas(64) PruneScratch {
  std::vector<uint32_t> counts;
  std::vector<VertexId> touched;
  std::vector<const IdBlock*> rows;
  std::vector<uint32_t> bucket_start;
  std::vector<VertexId> bucketed;
  std::vector<IdBlock> mask;
  // Every dense count is below 2^32, so 32 planes hold it; all zero
  // between blocks.
  std::array<IdBlock, 32> planes;
  uint64_t two_hop_entries = 0;
  uint64_t dense_words = 0;

  /// Called on the worker's own thread, so its buffers come from that
  /// thread's allocations and never share a cache line with another
  /// worker's.
  void EnsureUniverse(uint32_t n, uint32_t blocks) {
    if (counts.size() < n) counts.assign(n, 0);
    if (mask.size() < blocks) mask.resize(blocks);
  }
};
static_assert(alignof(PruneScratch) == 64 && sizeof(PruneScratch) % 64 == 0,
              "PruneScratch must fill whole cache lines");

/// What the Lemma-2 test reads of one side pass; all of it is fixed for
/// the pass.
struct Lemma2Pass {
  const CompactSubgraph& sub;
  const DenseRows& dense;
  Side side;
  uint32_t common_needed;
  const std::vector<uint32_t>& position;  // commit-walk position by local id
};

/// The dense phase of the Lemma-2 test, for a candidate whose sparse rows
/// alone gave fewer than m witnesses, whose dense rows sit in
/// `scratch.rows` and whose sparse counts sit in `scratch.counts` for the
/// vertices in `scratch.touched`. Picks the witnesses a full qualifier mask
/// would give, in the same order — x itself, then the qualifiers the commit
/// walk visits after x, then earlier ones, each in ascending local id — and
/// stops at the m-th. x sits once in each of its rows, so its count is its
/// degree and it is taken before any row is added. Then the same-side ids
/// are walked in ascending blocks: each block adds x's dense rows into
/// bit-sliced counters (word i of plane j holds bit j of the counts of the
/// block's ids 64i..64i+63), takes the "count >= ⌈αk⌉" mask by a bit-sliced
/// compare, adds the sparse counts of the touched vertices in the block and
/// picks from the mask the alive qualifiers the walk visits after x. The
/// earlier ones come from the saved masks, only when every block has been
/// added and the later ones fall short.
template <typename Alive>
bool PassesDensePhase(const Lemma2Pass& pass, VertexId x, const Alive& alive,
                      PruneScratch& scratch, std::span<VertexId> witnesses) {
  const DenseRows& dense = pass.dense;
  const uint32_t c = pass.common_needed;
  const size_t needed = witnesses.size();
  size_t found = 0;
  const bool x_qualifies = pass.sub.Degree(pass.side, x) >= c;
  if (x_qualifies && alive(x)) witnesses[found++] = x;
  if (found == needed) return true;

  // The touched list, bucketed by block in one counting sort: bucket b
  // ends up at [start[b], start[b + 1]).
  std::vector<uint32_t>& start = scratch.bucket_start;
  start.assign(static_cast<size_t>(dense.blocks) + 2, 0);
  for (const VertexId y : scratch.touched) ++start[y / IdBlock::kIds + 2];
  std::partial_sum(start.begin(), start.end(), start.begin());
  scratch.bucketed.resize(scratch.touched.size());
  for (const VertexId y : scratch.touched) {
    scratch.bucketed[start[y / IdBlock::kIds + 1]++] = y;
  }

  // Takes the alive qualifiers of block b's mask that the commit walk
  // visits after x (or before it), in ascending local id, up to the m-th
  // witness.
  const uint32_t turn = pass.position[x];
  const auto pick = [&](uint32_t b, bool later) {
    for (uint32_t i = 0; i < IdBlock::kWords && found < needed; ++i) {
      for (uint64_t bits = scratch.mask[b].word[i];
           bits != 0 && found < needed; bits &= bits - 1) {
        const auto y = static_cast<VertexId>(b * IdBlock::kIds + i * 64 +
                                             std::countr_zero(bits));
        if (y != x && (pass.position[y] > turn) == later && alive(y)) {
          witnesses[found++] = y;
        }
      }
    }
  };

  // Every dense count is at most |rows| < 2^planes, so no carry leaves the
  // top plane; a c wider than the planes exceeds every dense count.
  const auto planes =
      static_cast<uint32_t>(std::bit_width(scratch.rows.size()));
  const bool reachable = (uint64_t{c} >> planes) == 0;
  for (uint32_t b = 0; b < dense.blocks; ++b) {
    // Ripple-carry add, a plane at a time across the block: the inner loop
    // has no data-dependent branch, and the add stops at the first plane
    // that passes no carry on.
    for (const IdBlock* row : scratch.rows) {
      IdBlock carry = row[b];
      for (uint32_t j = 0; j < planes; ++j) {
        IdBlock& bits = scratch.planes[j];
        uint64_t any = 0;
        for (uint32_t i = 0; i < IdBlock::kWords; ++i) {
          const uint64_t next = bits.word[i] & carry.word[i];
          bits.word[i] ^= carry.word[i];
          carry.word[i] = next;
          any |= next;
        }
        if (any == 0) break;
      }
    }
    scratch.dense_words +=
        static_cast<uint64_t>(scratch.rows.size()) * dense.WordsIn(b);

    // Bit-sliced compare against c, from the top plane down: `gt` marks the
    // counts already above c's prefix, `eq` those equal to it so far.
    IdBlock& mask = scratch.mask[b];
    for (uint32_t i = 0; i < IdBlock::kWords; ++i) {
      uint64_t gt = 0;
      uint64_t eq = reachable ? ~uint64_t{0} : 0;
      for (uint32_t j = planes; j-- > 0;) {
        const uint64_t bits = scratch.planes[j].word[i];
        if (((c >> j) & 1) != 0) {
          eq &= bits;
        } else {
          gt |= eq & bits;
          eq &= ~bits;
        }
      }
      mask.word[i] = gt | eq;
    }
    // A touched vertex adds its sparse count to its dense one.
    for (uint32_t t = start[b]; t < start[b + 1]; ++t) {
      const VertexId y = scratch.bucketed[t];
      const uint32_t bit = y % IdBlock::kIds;
      uint32_t count = scratch.counts[y];
      for (uint32_t j = 0; j < planes; ++j) {
        count += static_cast<uint32_t>(scratch.planes[j].Test(bit)) << j;
      }
      if (count >= c) mask.word[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    std::fill(scratch.planes.begin(), scratch.planes.begin() + planes,
              IdBlock{});
    if (b == x / IdBlock::kIds) {
      RICD_DCHECK_EQ(mask.Test(x % IdBlock::kIds), x_qualifies);
    }
    pick(b, /*later=*/true);
    if (found == needed) return true;
  }
  for (uint32_t b = 0; b < dense.blocks && found < needed; ++b) {
    pick(b, /*later=*/false);
  }
  return found == needed;
}

/// The Lemma-2 qualification test for local candidate `x` of `side`:
/// passes iff at least m = `witnesses.size()` alive same-side vertices y
/// (x itself included) have |N(x) ∩ N(y)| >= `common_needed` over the
/// compact subgraph, and then fills `witnesses` with m of them. It reads
/// x's sparse rows first, entry by entry in ascending local-id order,
/// recording an alive vertex as a witness when its count reaches the
/// threshold and stopping at the m-th: any that many qualifiers are a pass.
/// Only when the sparse rows fall short does it add x's dense rows
/// (PassesDensePhase). Every counterpart in `sub` is active for the whole
/// side pass, and a dead same-side vertex's count never decides anything,
/// so `alive(y)` is asked only of a vertex whose count reaches the
/// threshold. Read-only on the pass, so any number of workers may run it
/// concurrently.
template <typename Alive>
bool PassesLemma2(const Lemma2Pass& pass, VertexId x, const Alive& alive,
                  PruneScratch& scratch, std::span<VertexId> witnesses) {
  const Side other = Other(pass.side);
  const size_t needed = witnesses.size();
  scratch.touched.clear();
  scratch.rows.clear();
  size_t found = 0;
  uint64_t entries = 0;
  // x appears once in each of its rows, so it is its own (alpha, k)-neighbor
  // exactly when Lemma 1 already holds for it.
  for (const VertexId w : pass.sub.Neighbors(pass.side, x)) {
    if (pass.dense.IsDense(w)) {
      scratch.rows.push_back(pass.dense.Row(w));
      continue;
    }
    const std::span<const VertexId> second = pass.sub.Neighbors(other, w);
    size_t read = 0;
    while (read < second.size() && found < needed) {
      const VertexId y = second[read++];
      const uint32_t count = ++scratch.counts[y];
      if (count == 1) scratch.touched.push_back(y);
      if (count == pass.common_needed && alive(y)) witnesses[found++] = y;
    }
    entries += read;
    if (found == needed) break;
  }
  scratch.two_hop_entries += entries;

  // Falling short means every row was visited and every sparse row read to
  // the end, so `rows` holds all of x's dense rows and `counts` the full
  // sparse counts.
  const bool passes =
      found == needed ||
      (!scratch.rows.empty() &&
       PassesDensePhase(pass, x, alive, scratch, witnesses));
  for (const VertexId y : scratch.touched) scratch.counts[y] = 0;
  return passes;
}

}  // namespace

void ExtensionBicliqueExtractor::CorePruning(graph::MutableView& view,
                                             ExtractionStats* stats) const {
  RICD_TRACE_SPAN("ricd.extraction.core_pruning");
  const uint32_t min_user_degree = CeilMul(params_.alpha, params_.k2);
  const uint32_t min_item_degree = CeilMul(params_.alpha, params_.k1);
  const graph::BipartiteGraph& g = view.graph();
  const size_t workers = engine_->num_workers();

  // Level-synchronous frontier cascade. The removed set is the unique
  // fixpoint of "drop active vertices with active degree < min" (removals
  // only lower neighbor degrees), so any schedule — the old sequential
  // deque, these frontiers, any worker count — yields the same final view.
  //
  // Seed frontiers: every active under-degree vertex, found by a chunked
  // parallel scan. Workers own contiguous ascending ranges and append in
  // order, so concatenating the buffers in worker order is already sorted.
  engine::PerWorkerBuffers<VertexId> user_buf(workers);
  engine::PerWorkerBuffers<VertexId> item_buf(workers);
  engine_->ParallelForChunks(
      g.num_users(), [&](size_t worker, engine::VertexRange range) {
        auto& out = user_buf.ForWorker(worker);
        for (VertexId u = range.begin; u < range.end; ++u) {
          if (view.IsActive(Side::kUser, u) &&
              view.ActiveDegree(Side::kUser, u) < min_user_degree) {
            out.push_back(u);
          }
        }
      });
  engine_->ParallelForChunks(
      g.num_items(), [&](size_t worker, engine::VertexRange range) {
        auto& out = item_buf.ForWorker(worker);
        for (VertexId v = range.begin; v < range.end; ++v) {
          if (view.IsActive(Side::kItem, v) &&
              view.ActiveDegree(Side::kItem, v) < min_item_degree) {
            out.push_back(v);
          }
        }
      });
  std::vector<VertexId> user_frontier;
  std::vector<VertexId> item_frontier;
  user_buf.ConcatTo(&user_frontier);
  item_buf.ConcatTo(&item_frontier);

  // Expands one side's frontier: decrement the active degree of every
  // still-active counterpart; a neighbor joins the next frontier exactly
  // when its degree crosses from `other_min` to `other_min - 1` — each
  // vertex crosses once globally, so frontiers stay duplicate-free without
  // a dedup pass. With one worker the frontier expands on the calling
  // thread without atomics; otherwise the decrements run atomically across
  // workers (commutative, hence deterministic final degrees) and the
  // per-worker discoveries are merged in worker order + sorted.
  uint32_t levels = 0;
  const auto expand = [&](Side side, const std::vector<VertexId>& frontier,
                          uint32_t other_min, std::vector<VertexId>* next) {
    const Side other = Other(side);
    if (workers == 1) {
      for (const VertexId x : frontier) {
        for (const VertexId w : g.Neighbors(side, x)) {
          if (!view.IsActive(other, w)) continue;
          if (view.DecrementDegree(other, w) == other_min) {
            next->push_back(w);
          }
        }
      }
      std::sort(next->begin(), next->end());
      return;
    }
    engine::PerWorkerBuffers<VertexId> next_buf(workers);
    engine_->ParallelForChunks(
        static_cast<uint32_t>(frontier.size()),
        [&](size_t worker, engine::VertexRange range) {
          auto& out = next_buf.ForWorker(worker);
          for (uint32_t i = range.begin; i < range.end; ++i) {
            for (const VertexId w : g.Neighbors(side, frontier[i])) {
              if (!view.IsActive(other, w)) continue;
              if (view.DecrementDegreeAtomic(other, w) == other_min) {
                out.push_back(w);
              }
            }
          }
        });
    next_buf.SortedTo(next);
  };

  uint32_t users_removed = 0;
  uint32_t items_removed = 0;
  std::vector<VertexId> next_users;
  std::vector<VertexId> next_items;
  while (!user_frontier.empty() || !item_frontier.empty()) {
    ++levels;
    users_removed += static_cast<uint32_t>(user_frontier.size());
    items_removed += static_cast<uint32_t>(item_frontier.size());
    // Deactivate the whole level before any degree update so intra-level
    // edges cannot re-discover a vertex that is already being removed.
    view.DeactivateBatch(Side::kUser, user_frontier);
    view.DeactivateBatch(Side::kItem, item_frontier);
    next_users.clear();
    next_items.clear();
    expand(Side::kUser, user_frontier, min_item_degree, &next_items);
    expand(Side::kItem, item_frontier, min_user_degree, &next_users);
    user_frontier.swap(next_users);
    item_frontier.swap(next_items);
  }

  if (stats != nullptr) {
    stats->users_removed_core += users_removed;
    stats->items_removed_core += items_removed;
  }
  ExtractionCounters::Get().users_pruned_core->Add(users_removed);
  ExtractionCounters::Get().items_pruned_core->Add(items_removed);
  ExtractionCounters::Get().core_levels->Add(levels);
}

void ExtensionBicliqueExtractor::SquarePruneSide(graph::MutableView& view,
                                                 Side side, bool ordered,
                                                 ExtractionStats* stats) const {
  // A side pass removes only `side` vertices, so the other side is fixed
  // for the whole pass: the compact subgraph taken here stays exact, with
  // same-side removals tracked in `alive` and committed to the view as they
  // happen (DESIGN.md §9.5). Candidates are local ids from here on.
  const CompactSubgraph sub = CompactActive(view, *engine_);
  const Side other = Other(side);
  const uint32_t n = sub.size(side);
  const DenseRows dense = BuildDenseRows(sub, side);
  std::vector<uint8_t> alive(n, 1);

  // Thresholds per Definition 4 / Lemma 2: a user needs >= k1 members in
  // its (alpha, k2)-neighbor set (self included); items symmetrically.
  const uint32_t common_needed =
      CeilMul(params_.alpha, side == Side::kUser ? params_.k2 : params_.k1);
  const uint32_t neighbors_needed = side == Side::kUser ? params_.k1 : params_.k2;

  // Candidate order: non-decreasing two-hop neighborhood size (sum of
  // active counterpart degrees), the reduce2Hop ordering.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  if (ordered) {
    // Two-hop sizes are independent per vertex: chunked across workers,
    // each writing a disjoint range of `two_hop`.
    std::vector<uint64_t> two_hop(n, 0);
    engine_->ParallelForChunks(n, [&](size_t, engine::VertexRange range) {
      for (VertexId x = range.begin; x < range.end; ++x) {
        uint64_t size = 0;
        for (const VertexId w : sub.Neighbors(side, x)) {
          size += sub.Degree(other, w);
        }
        two_hop[x] = size;
      }
    });
    std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return two_hop[a] < two_hop[b];
    });
  }
  std::vector<uint32_t> position(n);
  for (uint32_t p = 0; p < n; ++p) position[order[p]] = p;
  const Lemma2Pass pass{sub, dense, side, common_needed, position};

  // Verdict and witness slots per local id. A candidate the previous pass
  // of this side certified, whose active degree is unchanged and whose
  // witnesses are all still active, is a pass-start PASS with those
  // witnesses (DESIGN.md §9.2): the view only deletes, so its active
  // neighbour set is the certified one and every witness still shares
  // `common_needed` counterparts with it.
  const size_t workers = engine_->num_workers();
  std::vector<PruneScratch> scratch(workers);
  std::vector<uint8_t> passed(n, 0);
  std::vector<VertexId> witnesses(static_cast<size_t>(n) * neighbors_needed);
  const auto witnesses_of = [&](VertexId x) {
    return std::span<VertexId>(witnesses)
        .subspan(static_cast<size_t>(x) * neighbors_needed, neighbors_needed);
  };
  const graph::WitnessCertificates& carried = view.Certificates(side);
  uint64_t skips = 0;
  if (carried.common_needed == common_needed &&
      carried.per_vertex == neighbors_needed) {
    for (size_t c = 0; c < carried.vertices.size(); ++c) {
      const VertexId x = sub.Local(side, carried.vertices[c]);
      if (x == CompactSubgraph::kInactive ||
          sub.Degree(side, x) != carried.degrees[c]) {
        continue;
      }
      const std::span<const VertexId> certified = carried.WitnessesOf(c);
      const std::span<VertexId> slot = witnesses_of(x);
      bool witnesses_active = true;
      for (size_t j = 0; j < certified.size() && witnesses_active; ++j) {
        slot[j] = sub.Local(side, certified[j]);
        witnesses_active = slot[j] != CompactSubgraph::kInactive;
      }
      if (!witnesses_active) continue;
      passed[x] = 1;
      ++skips;
    }
  }

  // One evaluation per uncertified candidate, in parallel over local ids (a
  // split of `order` would hand the heaviest candidates to the last
  // worker), against the pass-start state.
  const auto all_alive = [](VertexId) { return true; };
  engine_->ParallelForChunks(n, [&](size_t worker, engine::VertexRange range) {
    PruneScratch& sc = scratch[worker];
    sc.EnsureUniverse(n, dense.blocks);
    for (VertexId x = range.begin; x < range.end; ++x) {
      if (passed[x] != 0) continue;  // certified
      passed[x] = PassesLemma2(pass, x, all_alive, sc, witnesses_of(x));
    }
  });

  // A pass-start FAIL is a FAIL at its turn (DESIGN.md §9.2), so every
  // pass-start FAIL placed before x in the walk is gone by x's turn.
  // Re-evaluate, in parallel, each pass-start PASS leaning on such a
  // witness with exactly those vertices dead: a FAIL there is a FAIL at
  // its turn, and a PASS comes with witnesses none of those removals kill.
  std::vector<VertexId> reevaluate;
  for (VertexId x = 0; x < n; ++x) {
    if (passed[x] == 0) continue;
    const std::span<VertexId> w = witnesses_of(x);
    if (std::any_of(w.begin(), w.end(), [&](VertexId y) {
          return passed[y] == 0 && position[y] < position[x];
        })) {
      reevaluate.push_back(x);
    }
  }
  std::vector<uint8_t> reevaluated(reevaluate.size(), 0);
  engine_->ParallelForChunks(
      static_cast<uint32_t>(reevaluate.size()),
      [&](size_t worker, engine::VertexRange range) {
        PruneScratch& sc = scratch[worker];
        sc.EnsureUniverse(n, dense.blocks);
        for (uint32_t i = range.begin; i < range.end; ++i) {
          const VertexId x = reevaluate[i];
          const auto alive_at_turn = [&](VertexId y) {
            return passed[y] != 0 || position[y] > position[x];
          };
          reevaluated[i] =
              PassesLemma2(pass, x, alive_at_turn, sc, witnesses_of(x));
        }
      });
  for (size_t i = 0; i < reevaluate.size(); ++i) {
    passed[reevaluate[i]] = reevaluated[i];
  }

  // Commit in candidate order. A side pass removes only `side` vertices,
  // so every count is fixed for the pass and the qualified set only
  // shrinks (DESIGN.md §9.2): a FAIL above is a FAIL at its turn, and a
  // PASS stands while its witnesses live. Otherwise the candidate is
  // rechecked against the live state on this thread.
  const auto is_alive = [&](VertexId y) { return alive[y] != 0; };
  scratch[0].EnsureUniverse(n, dense.blocks);
  uint64_t rechecks = 0;
  for (const VertexId x : order) {
    bool keep = passed[x] != 0;
    if (keep) {
      const std::span<VertexId> w = witnesses_of(x);
      if (std::any_of(w.begin(), w.end(),
                      [&](VertexId y) { return alive[y] == 0; })) {
        ++rechecks;
        keep = PassesLemma2(pass, x, is_alive, scratch[0], w);
      }
    }
    if (keep) continue;
    alive[x] = 0;
    view.Remove(side, sub.Original(side, x));
    if (stats != nullptr) {
      if (side == Side::kUser) {
        ++stats->users_removed_square;
      } else {
        ++stats->items_removed_square;
      }
    }
  }

  // Certify every survivor for the next pass of this side: its active
  // degree during this pass and the witnesses its verdict stood on.
  graph::WitnessCertificates certificates;
  certificates.common_needed = common_needed;
  certificates.per_vertex = neighbors_needed;
  for (VertexId x = 0; x < n; ++x) {
    if (alive[x] == 0) continue;
    certificates.vertices.push_back(sub.Original(side, x));
    certificates.degrees.push_back(static_cast<uint32_t>(sub.Degree(side, x)));
    for (const VertexId y : witnesses_of(x)) {
      certificates.witnesses.push_back(sub.Original(side, y));
    }
  }
  view.SetCertificates(side, std::move(certificates));

  uint64_t two_hop_entries = 0;
  uint64_t dense_words = 0;
  for (const PruneScratch& s : scratch) {
    two_hop_entries += s.two_hop_entries;
    dense_words += s.dense_words;
  }
  const ExtractionCounters& counters = ExtractionCounters::Get();
  counters.rounds->Add(1);
  counters.round_rechecks->Add(rechecks);
  counters.parallel_rechecks->Add(reevaluate.size());
  counters.scratch_reuses->Add(n - skips);
  counters.witness_skips->Add(skips);
  counters.two_hop_entries->Add(two_hop_entries);
  counters.dense_words->Add(dense_words);
}

void ExtensionBicliqueExtractor::SquarePruning(graph::MutableView& view,
                                               bool ordered,
                                               ExtractionStats* stats) const {
  RICD_TRACE_SPAN("ricd.extraction.square_pruning");
  ExtractionStats local;
  SquarePruneSide(view, Side::kUser, ordered, &local);
  SquarePruneSide(view, Side::kItem, ordered, &local);
  if (stats != nullptr) {
    stats->users_removed_square += local.users_removed_square;
    stats->items_removed_square += local.items_removed_square;
  }
  ExtractionCounters::Get().users_pruned_square->Add(local.users_removed_square);
  ExtractionCounters::Get().items_pruned_square->Add(local.items_removed_square);
}

Result<std::vector<graph::Group>> ExtensionBicliqueExtractor::ExtractImpl(
    const graph::BipartiteGraph& graph, bool square,
    ExtractionStats* stats) const {
  if (params_.alpha <= 0.0 || params_.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (params_.k1 == 0 || params_.k2 == 0) {
    return Status::InvalidArgument("k1 and k2 must be > 0");
  }

  RICD_TRACE_SPAN("ricd.extraction");
  graph::MutableView view(graph);
  CorePruning(view, stats);
  if (square) {
    for (uint32_t sweep = 0; sweep < params_.square_pruning_sweeps; ++sweep) {
      const uint32_t before =
          view.NumActive(Side::kUser) + view.NumActive(Side::kItem);
      SquarePruning(view, /*ordered=*/true, stats);
      CorePruning(view, stats);
      if (stats != nullptr) ++stats->sweeps_run;
      ExtractionCounters::Get().sweeps->Add(1);
      const uint32_t after =
          view.NumActive(Side::kUser) + view.NumActive(Side::kItem);
      if (after == before) break;
    }
  }

  std::vector<graph::Group> groups;
  {
    RICD_TRACE_SPAN("ricd.extraction.components");
    auto components = graph::ActiveConnectedComponents(view);
    for (auto& c : components) {
      if (c.users.size() < params_.k1 || c.items.size() < params_.k2) continue;
      if (params_.max_group_users > 0 &&
          c.users.size() > params_.max_group_users) {
        continue;  // Property (4b): likely group buying, not an attack.
      }
      groups.push_back(std::move(c));
    }
  }
  ExtractionCounters::Get().candidate_groups->Add(groups.size());

  if (check::ValidationEnabled()) {
    RICD_RETURN_IF_ERROR(check::ValidateMutableView(view));
    RICD_RETURN_IF_ERROR(check::ValidateWitnessCertificates(view));
    // Both arms end on a CorePruning fixpoint, and a component contains all
    // of its members' active neighbors — so every emitted group owes the
    // alpha condition against the source graph (Lemma 1).
    for (const graph::Group& group : groups) {
      RICD_RETURN_IF_ERROR(
          check::ValidateExtensionBiclique(graph, group, params_));
    }
  }
  return groups;
}

Result<std::vector<graph::Group>> ExtensionBicliqueExtractor::Extract(
    const graph::BipartiteGraph& graph, ExtractionStats* stats) const {
  return ExtractImpl(graph, /*square=*/true, stats);
}

Result<std::vector<graph::Group>> ExtensionBicliqueExtractor::ExtractCoreOnly(
    const graph::BipartiteGraph& graph, ExtractionStats* stats) const {
  return ExtractImpl(graph, /*square=*/false, stats);
}

}  // namespace ricd::core
