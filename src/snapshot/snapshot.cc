#include "obs/metric_names.h"
#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "check/validate.h"
#include "check/validate_snapshot.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/format.h"

namespace ricd::snapshot {
namespace {

struct SnapshotCounters {
  obs::Counter* saves;
  obs::Counter* loads;
  obs::Counter* bytes_written;
  obs::Counter* bytes_mapped;

  static const SnapshotCounters& Get() {
    static const SnapshotCounters counters = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return SnapshotCounters{registry.GetCounter(obs::metric_names::kSnapshotSaves),
                              registry.GetCounter(obs::metric_names::kSnapshotLoads),
                              registry.GetCounter(obs::metric_names::kSnapshotBytesWritten),
                              registry.GetCounter(obs::metric_names::kSnapshotBytesMapped)};
    }();
    return counters;
  }
};

uint64_t AlignUp(uint64_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/// A section payload queued for serialization.
struct PendingSection {
  SectionKind kind;
  const void* data;
  uint64_t bytes;
};

template <typename T>
PendingSection Pending(SectionKind kind, std::span<const T> payload) {
  return {kind, payload.data(), payload.size() * sizeof(T)};
}

/// Read-only mmap of a whole file; unmapped on destruction. Created via
/// shared_ptr so adopted graphs can retain the mapping past the GraphView.
class MappedFile {
 public:
  MappedFile(void* addr, size_t len) : addr_(addr), len_(len) {}
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (addr_ != nullptr && munmap(addr_, len_) != 0) {
      RICD_LOG(WARNING) << "munmap failed for " << len_ << "-byte mapping";
    }
  }

  std::span<const uint8_t> bytes() const {
    return {static_cast<const uint8_t*>(addr_), len_};
  }

 private:
  void* addr_;
  size_t len_;
};

Status HostSupported() {
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__)
  return Status::FailedPrecondition(
      "snapshots are little-endian; this host is not");
#else
  return Status::Ok();
#endif
}

template <typename T>
std::span<const T> SectionSpan(const uint8_t* base, const SectionEntry& e) {
  // Safe after ValidateSnapshotHeader: offset/bytes are in bounds and the
  // offset is kSectionAlign-aligned (>= alignof(T) for every section type).
  return {reinterpret_cast<const T*>(base + e.offset),
          static_cast<size_t>(e.bytes / sizeof(T))};
}

std::vector<int64_t> SortedIds(const std::unordered_set<int64_t>& ids) {
  std::vector<int64_t> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<uint8_t> SerializeSnapshot(const graph::BipartiteGraph& graph,
                                       const gen::LabelSet* labels) {
  const graph::GraphSections s = graph.Freeze();

  std::vector<int64_t> label_users;
  std::vector<int64_t> label_items;
  if (labels != nullptr) {
    label_users = SortedIds(labels->abnormal_users);
    label_items = SortedIds(labels->abnormal_items);
  }

  std::vector<PendingSection> sections = {
      Pending(SectionKind::kUserOffsets, s.user_offsets),
      Pending(SectionKind::kItemOffsets, s.item_offsets),
      Pending(SectionKind::kUserAdj, s.user_adj),
      Pending(SectionKind::kItemAdj, s.item_adj),
      Pending(SectionKind::kUserClicks, s.user_clicks),
      Pending(SectionKind::kItemClicks, s.item_clicks),
      Pending(SectionKind::kUserTotals, s.user_total_clicks),
      Pending(SectionKind::kItemTotals, s.item_total_clicks),
      Pending(SectionKind::kUserIds, s.user_ids),
      Pending(SectionKind::kItemIds, s.item_ids),
  };
  if (labels != nullptr) {
    sections.push_back(Pending(SectionKind::kLabelUsers,
                               std::span<const int64_t>(label_users)));
    sections.push_back(Pending(SectionKind::kLabelItems,
                               std::span<const int64_t>(label_items)));
  }

  // Layout: header, section table, then payloads at aligned offsets.
  std::vector<SectionEntry> entries(sections.size());
  uint64_t cursor = sizeof(SnapshotHeader) +
                    sections.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignUp(cursor);
    entries[i] = {static_cast<uint32_t>(sections[i].kind), 0, cursor,
                  sections[i].bytes};
    cursor += sections[i].bytes;
  }
  const uint64_t file_bytes = cursor;

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.header_bytes = sizeof(SnapshotHeader);
  header.section_count = static_cast<uint32_t>(sections.size());
  header.flags = labels != nullptr ? kFlagHasLabels : 0;
  header.num_users = graph.num_users();
  header.num_items = graph.num_items();
  header.num_edges = graph.num_edges();
  header.total_clicks = graph.total_clicks();
  header.file_bytes = file_bytes;
  header.checksum = 0;

  std::vector<uint8_t> image(file_bytes, 0);
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), entries.data(),
              entries.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].bytes == 0) continue;
    std::memcpy(image.data() + entries[i].offset, sections[i].data,
                sections[i].bytes);
  }

  const uint64_t checksum = ChecksumFile(image.data(), image.size());
  std::memcpy(image.data() + offsetof(SnapshotHeader, checksum), &checksum,
              sizeof(checksum));
  return image;
}

Status SaveSnapshot(const graph::BipartiteGraph& graph,
                    const std::string& path, const gen::LabelSet* labels) {
  RICD_TRACE_SPAN("snapshot.save");
  RICD_RETURN_IF_ERROR(HostSupported());
  const std::vector<uint8_t> image = SerializeSnapshot(graph, labels);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  SnapshotCounters::Get().saves->Add(1);
  SnapshotCounters::Get().bytes_written->Add(image.size());
  return Status::Ok();
}

Result<GraphView> GraphView::FromImage(std::span<const uint8_t> data,
                                       std::shared_ptr<const void> retention) {
  RICD_RETURN_IF_ERROR(HostSupported());
  RICD_RETURN_IF_ERROR(check::ValidateSnapshotHeader(data.data(), data.size()));
  RICD_RETURN_IF_ERROR(
      check::VerifySnapshotChecksum(data.data(), data.size()));

  SnapshotHeader h;
  std::memcpy(&h, data.data(), sizeof(h));

  graph::GraphSections s;
  s.total_clicks = h.total_clicks;
  std::span<const int64_t> label_users;
  std::span<const int64_t> label_items;
  const uint8_t* base = data.data();
  for (uint32_t i = 0; i < h.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, base + sizeof(SnapshotHeader) + i * sizeof(SectionEntry),
                sizeof(e));
    switch (static_cast<SectionKind>(e.kind)) {
      case SectionKind::kUserOffsets:
        s.user_offsets = SectionSpan<uint64_t>(base, e);
        break;
      case SectionKind::kItemOffsets:
        s.item_offsets = SectionSpan<uint64_t>(base, e);
        break;
      case SectionKind::kUserAdj:
        s.user_adj = SectionSpan<graph::VertexId>(base, e);
        break;
      case SectionKind::kItemAdj:
        s.item_adj = SectionSpan<graph::VertexId>(base, e);
        break;
      case SectionKind::kUserClicks:
        s.user_clicks = SectionSpan<table::ClickCount>(base, e);
        break;
      case SectionKind::kItemClicks:
        s.item_clicks = SectionSpan<table::ClickCount>(base, e);
        break;
      case SectionKind::kUserTotals:
        s.user_total_clicks = SectionSpan<uint64_t>(base, e);
        break;
      case SectionKind::kItemTotals:
        s.item_total_clicks = SectionSpan<uint64_t>(base, e);
        break;
      case SectionKind::kUserIds:
        s.user_ids = SectionSpan<table::UserId>(base, e);
        break;
      case SectionKind::kItemIds:
        s.item_ids = SectionSpan<table::ItemId>(base, e);
        break;
      case SectionKind::kLabelUsers:
        label_users = SectionSpan<int64_t>(base, e);
        break;
      case SectionKind::kLabelItems:
        label_items = SectionSpan<int64_t>(base, e);
        break;
      default:
        break;  // Unknown optional section from a newer writer: skip.
    }
  }

  // Bounds audit: guarantees every accessor on the adopted graph stays in
  // the mapped image even for a file that is internally consistent with
  // its checksum but semantically hostile.
  RICD_RETURN_IF_ERROR(check::ValidateAdoptedSections(s));

  GraphView view;
  view.graph_ = graph::BipartiteGraph::AdoptExternal(s, retention);
  view.retention_ = std::move(retention);
  view.info_.version = h.version;
  view.info_.num_users = h.num_users;
  view.info_.num_items = h.num_items;
  view.info_.num_edges = h.num_edges;
  view.info_.total_clicks = h.total_clicks;
  view.info_.file_bytes = h.file_bytes;
  view.info_.checksum = h.checksum;
  view.info_.has_labels = (h.flags & kFlagHasLabels) != 0;
  view.info_.label_users = label_users.size();
  view.info_.label_items = label_items.size();
  view.label_users_ = label_users;
  view.label_items_ = label_items;

  // Full semantic audit (sortedness, transpose agreement, totals) costs
  // O(E log d) and is opt-in like every pipeline validator.
  if (check::ValidationEnabled()) {
    RICD_RETURN_IF_ERROR(check::ValidateBipartiteGraph(view.graph_));
  }
  SnapshotCounters::Get().loads->Add(1);
  return view;
}

Result<GraphView> GraphView::Map(const std::string& path) {
  RICD_TRACE_SPAN("snapshot.load");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for mmap: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    if (::close(fd) != 0) {
      RICD_LOG(WARNING) << "close failed after fstat error: " << path;
    }
    return Status::IoError("fstat failed: " + path);
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size < sizeof(SnapshotHeader)) {
    if (::close(fd) != 0) {
      RICD_LOG(WARNING) << "close failed: " << path;
    }
    return Status::Corruption(StringPrintf(
        "validate.snapshot: header_truncated: %s is %zu bytes, header "
        "needs %zu",
        path.c_str(), size, sizeof(SnapshotHeader)));
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int close_rc = ::close(fd);  // The mapping survives the fd.
  if (close_rc != 0) {
    RICD_LOG(WARNING) << "close failed: " << path;
  }
  if (addr == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path);
  }
  auto mapping = std::make_shared<MappedFile>(addr, size);
  SnapshotCounters::Get().bytes_mapped->Add(size);
  return FromImage(mapping->bytes(), mapping);
}

gen::LabelSet GraphView::Labels() const {
  gen::LabelSet labels;
  labels.abnormal_users.insert(label_users_.begin(), label_users_.end());
  labels.abnormal_items.insert(label_items_.begin(), label_items_.end());
  return labels;
}

}  // namespace ricd::snapshot
