#include "obs/metric_names.h"
#include "shard/sharded_graph.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "shard/shard_plan.h"
#include "snapshot/snapshot.h"

namespace ricd::shard {
namespace {

using graph::VertexId;

std::string ShardSnapshotPath(const std::string& prefix, uint32_t k) {
  return prefix + StringPrintf(".shard%u.snap", k);
}

std::string ManifestPath(const std::string& prefix) {
  return prefix + ".shards.manifest";
}

constexpr char kManifestMagic[] = "ricd-shard-manifest-v1";

}  // namespace

Result<GlobalIdSpace> AssignGlobalIds(const table::ClickTable& table) {
  // This is GraphBuilder::FromTable pass 1, verbatim: external ids compact
  // into dense ids in first-seen row order. Running it once globally is what
  // lets every shard (and the merge) speak the monolithic builder's id
  // language — including the exact error statuses for bad input, so the
  // sharded pipeline rejects what the monolithic one rejects.
  GlobalIdSpace ids;
  const size_t n = table.num_rows();
  std::unordered_map<table::UserId, VertexId> user_lookup;
  std::unordered_map<table::ItemId, VertexId> item_lookup;
  user_lookup.reserve(n / 4 + 1);
  item_lookup.reserve(n / 8 + 1);
  ids.row_user.resize(n);
  ids.row_item.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (table.clicks(i) == 0) {
      return Status::InvalidArgument(
          StringPrintf("row %zu has zero clicks", i));
    }
    const auto [uit, uinserted] = user_lookup.try_emplace(
        table.user(i), static_cast<VertexId>(ids.user_ids.size()));
    if (uinserted) ids.user_ids.push_back(table.user(i));
    ids.row_user[i] = uit->second;

    const auto [iit, iinserted] = item_lookup.try_emplace(
        table.item(i), static_cast<VertexId>(ids.item_ids.size()));
    if (iinserted) ids.item_ids.push_back(table.item(i));
    ids.row_item[i] = iit->second;
  }
  if (ids.user_ids.size() > std::numeric_limits<VertexId>::max() ||
      ids.item_ids.size() > std::numeric_limits<VertexId>::max()) {
    return Status::OutOfRange("too many distinct users/items for 32-bit ids");
  }
  return ids;
}

Result<ShardedGraph> BuildShardedGraph(const table::ClickTable& table,
                                       uint32_t num_shards,
                                       const engine::WorkerEngine& engine) {
  if (num_shards == 0) num_shards = 1;
  if (num_shards > kMaxShards) {
    return Status::InvalidArgument(
        StringPrintf("num_shards %u exceeds kMaxShards %u", num_shards,
                     kMaxShards));
  }

  RICD_ASSIGN_OR_RETURN(GlobalIdSpace ids, AssignGlobalIds(table));

  ShardedGraph sg;
  sg.num_shards = num_shards;
  sg.user_ids = std::move(ids.user_ids);
  sg.item_ids = std::move(ids.item_ids);
  const uint32_t num_users = sg.num_users();
  const uint32_t num_items = sg.num_items();
  sg.user_shard.assign(num_users, 0);
  sg.user_local.assign(num_users, kNoVertex);
  sg.shards.resize(num_shards);
  for (GraphShard& s : sg.shards) s.item_local.assign(num_items, kNoVertex);

  // Partition rows by home shard, preserving relative row order inside each
  // sub-table. The per-shard local ids are pre-assigned here in first-seen
  // order over the shard's row subsequence — exactly the assignment
  // FromTable will make over the same sub-table, which the DCHECKs below
  // pin down.
  std::vector<table::ClickTable> sub(num_shards);
  for (table::ClickTable& t : sub) t.Reserve(table.num_rows() / num_shards + 1);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const VertexId gu = ids.row_user[i];
    const VertexId gv = ids.row_item[i];
    uint32_t s;
    if (sg.user_local[gu] == kNoVertex) {
      s = ShardOfUser(table.user(i), num_shards);
      sg.user_shard[gu] = s;
      sg.user_local[gu] =
          static_cast<VertexId>(sg.shards[s].user_global.size());
      sg.shards[s].user_global.push_back(gu);
    } else {
      s = sg.user_shard[gu];
    }
    GraphShard& shard = sg.shards[s];
    if (shard.item_local[gv] == kNoVertex) {
      shard.item_local[gv] = static_cast<VertexId>(shard.item_global.size());
      shard.item_global.push_back(gv);
    }
    sub[s].Append(table.user(i), table.item(i), table.clicks(i));
  }

  // Per-shard CSR builds are independent; fan them out across the engine.
  // Each worker owns a contiguous shard range, so writes are disjoint.
  std::vector<Status> statuses(num_shards);
  engine.ParallelForChunks(
      num_shards, [&](size_t, engine::VertexRange range) {
        for (uint32_t s = range.begin; s < range.end; ++s) {
          auto built = graph::GraphBuilder::FromTable(sub[s]);
          if (!built.ok()) {
            statuses[s] = built.status();
            continue;
          }
          sg.shards[s].graph = std::move(built).value();
        }
      });
  for (const Status& status : statuses) RICD_RETURN_IF_ERROR(status);

  // Global aggregates. Every (user, item) pair lives wholly inside the
  // user's home shard, so per-shard edge weights equal the monolithic
  // graph's (duplicate merging and click saturation see the same rows) and
  // the partial item totals sum to the exact global totals.
  sg.item_totals.assign(num_items, 0);
  for (GraphShard& shard : sg.shards) {
    RICD_DCHECK_EQ(shard.graph.num_users(), shard.user_global.size());
    RICD_DCHECK_EQ(shard.graph.num_items(), shard.item_global.size());
    for (VertexId lv = 0; lv < shard.graph.num_items(); ++lv) {
      sg.item_totals[shard.item_global[lv]] += shard.graph.ItemTotalClicks(lv);
    }
    sg.total_clicks += shard.graph.total_clicks();
    sg.num_edges += shard.graph.num_edges();
  }
  return sg;
}

Status ShardedGraph::Spill(const std::string& prefix) {
  static obs::Counter* spills = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kShardSpills);
  std::ostringstream manifest;
  manifest << kManifestMagic << "\n";
  manifest << "shards " << num_shards << "\n";
  for (uint32_t k = 0; k < num_shards; ++k) {
    const std::string path = ShardSnapshotPath(prefix, k);
    RICD_RETURN_IF_ERROR(snapshot::SaveSnapshot(shards[k].graph, path));
    // The snapshot container already carries a whole-file FNV checksum in
    // its header; the manifest pins that checksum (plus the byte count) so
    // a swapped or truncated shard file is rejected before use.
    RICD_ASSIGN_OR_RETURN(const snapshot::SnapshotInfo info,
                          snapshot::ReadSnapshotInfo(path));
    manifest << "shard " << k << " " << info.file_bytes << " "
             << info.checksum << "\n";
    shards[k].spill_path = path;
  }
  std::ofstream out(ManifestPath(prefix), std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot write shard manifest " +
                           ManifestPath(prefix));
  }
  out << manifest.str();
  out.close();
  if (!out) {
    return Status::IoError("short write on shard manifest " +
                           ManifestPath(prefix));
  }
  for (uint32_t k = 0; k < num_shards; ++k) Release(k);
  spills->Add(num_shards);
  return Status::Ok();
}

Status ShardedGraph::EnsureLoaded(uint32_t k) {
  static obs::Counter* reloads = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kShardReloads);
  GraphShard& shard = shards[k];
  if (shard.resident) return Status::Ok();
  RICD_ASSIGN_OR_RETURN(snapshot::GraphView view,
                        snapshot::GraphView::Map(shard.spill_path));
  shard.graph = std::move(view).TakeGraph();
  shard.resident = true;
  reloads->Add(1);
  return Status::Ok();
}

void ShardedGraph::Release(uint32_t k) {
  GraphShard& shard = shards[k];
  if (shard.spill_path.empty()) return;  // nothing to come back from
  shard.graph = graph::BipartiteGraph();
  shard.resident = false;
}

Result<uint32_t> VerifyShardManifest(const std::string& prefix) {
  std::ifstream in(ManifestPath(prefix));
  if (!in) {
    return Status::NotFound("no shard manifest at " + ManifestPath(prefix));
  }
  std::string magic;
  if (!std::getline(in, magic) || magic != kManifestMagic) {
    return Status::Corruption("bad shard manifest magic in " +
                              ManifestPath(prefix));
  }
  std::string word;
  uint32_t count = 0;
  if (!(in >> word >> count) || word != "shards" || count == 0 ||
      count > kMaxShards) {
    return Status::Corruption("bad shard count in " + ManifestPath(prefix));
  }
  for (uint32_t k = 0; k < count; ++k) {
    uint32_t index = 0;
    uint64_t bytes = 0;
    uint64_t checksum = 0;
    if (!(in >> word >> index >> bytes >> checksum) || word != "shard" ||
        index != k) {
      return Status::Corruption(
          StringPrintf("bad manifest entry for shard %u", k));
    }
    const std::string path = ShardSnapshotPath(prefix, k);
    RICD_ASSIGN_OR_RETURN(const snapshot::SnapshotInfo info,
                          snapshot::ReadSnapshotInfo(path));
    // info.file_bytes is the *header-recorded* size; compare the real
    // on-disk size as well, or an appended/truncated tail slips through.
    std::ifstream shard_file(path, std::ios::binary | std::ios::ate);
    const uint64_t disk_bytes =
        shard_file ? static_cast<uint64_t>(shard_file.tellg()) : 0;
    if (info.file_bytes != bytes || disk_bytes != bytes ||
        info.checksum != checksum) {
      return Status::Corruption(
          StringPrintf("shard %u snapshot does not match its manifest entry "
                       "(header %llu / disk %llu vs %llu bytes)",
                       k, static_cast<unsigned long long>(info.file_bytes),
                       static_cast<unsigned long long>(disk_bytes),
                       static_cast<unsigned long long>(bytes)));
    }
  }
  return count;
}

}  // namespace ricd::shard
