#include "check/validate_snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "snapshot/format.h"

namespace ricd::check {
namespace {

using snapshot::SectionEntry;
using snapshot::SectionKind;
using snapshot::SnapshotHeader;

Status FailSnapshot(const char* tag, std::string detail) {
  obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kCheckViolations)->Add(1);
  return Status(StatusCode::kCorruption,
                StringPrintf("validate.snapshot: %s: %s", tag, detail.c_str()));
}

/// Payload bytes a section of `kind` must hold given the header counts, or
/// UINT64_MAX when the kind has no count-derived size (labels) or is
/// unknown (forward compatibility: skipped, bounds-checked only).
uint64_t ExpectedSectionBytes(SectionKind kind, const SnapshotHeader& h) {
  switch (kind) {
    case SectionKind::kUserOffsets:
      return (h.num_users + 1) * sizeof(uint64_t);
    case SectionKind::kItemOffsets:
      return (h.num_items + 1) * sizeof(uint64_t);
    case SectionKind::kUserAdj:
    case SectionKind::kItemAdj:
    case SectionKind::kUserClicks:
    case SectionKind::kItemClicks:
      return h.num_edges * sizeof(uint32_t);
    case SectionKind::kUserTotals:
      return h.num_users * sizeof(uint64_t);
    case SectionKind::kItemTotals:
      return h.num_items * sizeof(uint64_t);
    case SectionKind::kUserIds:
      return h.num_users * sizeof(int64_t);
    case SectionKind::kItemIds:
      return h.num_items * sizeof(int64_t);
    case SectionKind::kLabelUsers:
    case SectionKind::kLabelItems:
      return UINT64_MAX;
  }
  return UINT64_MAX;
}

bool IsRequiredKind(uint32_t kind) {
  return kind >= static_cast<uint32_t>(SectionKind::kUserOffsets) &&
         kind <= static_cast<uint32_t>(SectionKind::kItemIds);
}

}  // namespace

Status ValidateSnapshotHeader(const void* data, size_t bytes) {
  if (data == nullptr || bytes < sizeof(SnapshotHeader)) {
    return FailSnapshot(
        "header_truncated",
        StringPrintf("%zu bytes, header needs %zu", bytes,
                     sizeof(SnapshotHeader)));
  }
  SnapshotHeader h;
  std::memcpy(&h, data, sizeof(h));

  if (std::memcmp(h.magic, snapshot::kSnapshotMagic, sizeof(h.magic)) != 0) {
    return FailSnapshot("bad_magic", "not a RICD graph snapshot");
  }
  if (h.version != snapshot::kSnapshotVersion) {
    return FailSnapshot("bad_version",
                        StringPrintf("version %u, reader supports %u",
                                     h.version, snapshot::kSnapshotVersion));
  }
  if (h.header_bytes != sizeof(SnapshotHeader)) {
    return FailSnapshot("bad_header_size",
                        StringPrintf("header_bytes %u != %zu", h.header_bytes,
                                     sizeof(SnapshotHeader)));
  }
  if (h.section_count < snapshot::kRequiredSectionCount ||
      h.section_count > snapshot::kMaxSnapshotSections) {
    return FailSnapshot("bad_section_count",
                        StringPrintf("%u sections (need %u..%u)",
                                     h.section_count,
                                     snapshot::kRequiredSectionCount,
                                     snapshot::kMaxSnapshotSections));
  }
  if (h.file_bytes != bytes) {
    return FailSnapshot("file_size_mismatch",
                        StringPrintf("header declares %llu bytes, file has %zu",
                                     static_cast<unsigned long long>(
                                         h.file_bytes),
                                     bytes));
  }
  // Count caps BEFORE any size arithmetic, so nothing below can overflow:
  // max count * 8 stays far under 2^63.
  if (h.num_users > snapshot::kMaxSnapshotVertices ||
      h.num_items > snapshot::kMaxSnapshotVertices ||
      h.num_edges > snapshot::kMaxSnapshotEdges) {
    return FailSnapshot(
        "count_overflow",
        StringPrintf("users=%llu items=%llu edges=%llu exceed format caps",
                     static_cast<unsigned long long>(h.num_users),
                     static_cast<unsigned long long>(h.num_items),
                     static_cast<unsigned long long>(h.num_edges)));
  }

  const uint64_t table_end = sizeof(SnapshotHeader) +
                             static_cast<uint64_t>(h.section_count) *
                                 sizeof(SectionEntry);
  if (table_end > bytes) {
    return FailSnapshot("section_table_truncated",
                        StringPrintf("section table ends at %llu of %zu bytes",
                                     static_cast<unsigned long long>(table_end),
                                     bytes));
  }

  std::vector<SectionEntry> entries(h.section_count);
  std::memcpy(entries.data(),
              static_cast<const uint8_t*>(data) + sizeof(SnapshotHeader),
              entries.size() * sizeof(SectionEntry));

  uint32_t required_seen = 0;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // (offset, end)
  extents.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const SectionEntry& e = entries[i];
    if (e.offset % snapshot::kSectionAlign != 0) {
      return FailSnapshot("section_misaligned",
                          StringPrintf("section %zu (kind %u) at offset %llu",
                                       i, e.kind,
                                       static_cast<unsigned long long>(
                                           e.offset)));
    }
    if (e.offset < table_end || e.offset > bytes || e.bytes > bytes ||
        e.offset + e.bytes > bytes) {
      return FailSnapshot("section_out_of_bounds",
                          StringPrintf("section %zu (kind %u): [%llu, +%llu) "
                                       "outside %zu-byte file",
                                       i, e.kind,
                                       static_cast<unsigned long long>(
                                           e.offset),
                                       static_cast<unsigned long long>(
                                           e.bytes),
                                       bytes));
    }
    const uint64_t expected = IsRequiredKind(e.kind)
                                  ? ExpectedSectionBytes(
                                        static_cast<SectionKind>(e.kind), h)
                                  : UINT64_MAX;
    if (expected != UINT64_MAX && e.bytes != expected) {
      return FailSnapshot(
          "section_size_mismatch",
          StringPrintf("section kind %u holds %llu bytes, header counts "
                       "require %llu",
                       e.kind, static_cast<unsigned long long>(e.bytes),
                       static_cast<unsigned long long>(expected)));
    }
    if (e.kind == static_cast<uint32_t>(SectionKind::kLabelUsers) ||
        e.kind == static_cast<uint32_t>(SectionKind::kLabelItems)) {
      if (e.bytes % sizeof(int64_t) != 0) {
        return FailSnapshot("label_size_mismatch",
                            StringPrintf("label section kind %u holds %llu "
                                         "bytes (not a multiple of 8)",
                                         e.kind,
                                         static_cast<unsigned long long>(
                                             e.bytes)));
      }
    }
    if (IsRequiredKind(e.kind)) {
      const uint32_t bit = 1u << (e.kind - 1);
      if ((required_seen & bit) != 0) {
        return FailSnapshot("duplicate_section",
                            StringPrintf("section kind %u appears twice",
                                         e.kind));
      }
      required_seen |= bit;
    }
    extents.emplace_back(e.offset, e.offset + e.bytes);
  }

  const uint32_t all_required = (1u << snapshot::kRequiredSectionCount) - 1;
  if (required_seen != all_required) {
    return FailSnapshot("missing_section",
                        StringPrintf("required-section bitmap %#x != %#x",
                                     required_seen, all_required));
  }

  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) {
      return FailSnapshot("section_overlap",
                          StringPrintf("sections at offsets %llu and %llu "
                                       "overlap",
                                       static_cast<unsigned long long>(
                                           extents[i - 1].first),
                                       static_cast<unsigned long long>(
                                           extents[i].first)));
    }
  }
  return Status::Ok();
}

namespace {

Status CheckOffsets(const char* side, std::span<const uint64_t> offsets,
                    uint64_t num_edges) {
  if (offsets.empty()) {
    return FailSnapshot("offsets_invalid",
                        StringPrintf("%s offsets section is empty", side));
  }
  if (offsets.front() != 0) {
    return FailSnapshot(
        "offsets_invalid",
        StringPrintf("%s offsets start at %llu, not 0", side,
                     static_cast<unsigned long long>(offsets.front())));
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return FailSnapshot(
          "offsets_invalid",
          StringPrintf("%s offsets decrease at index %zu", side, i));
    }
  }
  if (offsets.back() != num_edges) {
    return FailSnapshot(
        "offsets_invalid",
        StringPrintf("%s offsets end at %llu, adjacency holds %llu edges",
                     side, static_cast<unsigned long long>(offsets.back()),
                     static_cast<unsigned long long>(num_edges)));
  }
  return Status::Ok();
}

Status CheckVertexIds(const char* what, std::span<const graph::VertexId> ids,
                      uint64_t limit) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= limit) {
      return FailSnapshot(
          "adjacency_out_of_range",
          StringPrintf("%s[%zu] = %u, side has %llu vertices", what, i, ids[i],
                       static_cast<unsigned long long>(limit)));
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateAdoptedSections(const graph::GraphSections& s) {
  const uint64_t num_users = s.user_ids.size();
  const uint64_t num_items = s.item_ids.size();
  const uint64_t num_edges = s.user_adj.size();

  if (s.user_offsets.size() != num_users + 1 ||
      s.item_offsets.size() != num_items + 1 ||
      s.item_adj.size() != num_edges || s.user_clicks.size() != num_edges ||
      s.item_clicks.size() != num_edges ||
      s.user_total_clicks.size() != num_users ||
      s.item_total_clicks.size() != num_items) {
    return FailSnapshot("sections_inconsistent",
                        StringPrintf("span sizes disagree (users=%llu "
                                     "items=%llu edges=%llu)",
                                     static_cast<unsigned long long>(num_users),
                                     static_cast<unsigned long long>(num_items),
                                     static_cast<unsigned long long>(
                                         num_edges)));
  }
  RICD_RETURN_IF_ERROR(CheckOffsets("user", s.user_offsets, num_edges));
  RICD_RETURN_IF_ERROR(CheckOffsets("item", s.item_offsets, num_edges));
  RICD_RETURN_IF_ERROR(CheckVertexIds("user_adj", s.user_adj, num_items));
  RICD_RETURN_IF_ERROR(CheckVertexIds("item_adj", s.item_adj, num_users));
  return Status::Ok();
}

Status VerifySnapshotChecksum(const void* data, size_t bytes) {
  if (data == nullptr || bytes < sizeof(SnapshotHeader)) {
    return FailSnapshot("header_truncated",
                        StringPrintf("%zu bytes, header needs %zu", bytes,
                                     sizeof(SnapshotHeader)));
  }
  SnapshotHeader h;
  std::memcpy(&h, data, sizeof(h));
  const uint64_t actual = snapshot::ChecksumFile(data, bytes);
  if (actual != h.checksum) {
    return FailSnapshot(
        "checksum_mismatch",
        StringPrintf("stored %016llx, recomputed %016llx",
                     static_cast<unsigned long long>(h.checksum),
                     static_cast<unsigned long long>(actual)));
  }
  return Status::Ok();
}

}  // namespace ricd::check
