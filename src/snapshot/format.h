#ifndef RICD_SNAPSHOT_FORMAT_H_
#define RICD_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ricd::snapshot {

/// On-disk layout of a binary graph snapshot (version 1). All integers are
/// little-endian (the only byte order we build for; the loader rejects
/// big-endian hosts rather than byte-swapping). The file is:
///
///   [SnapshotHeader]                          offset 0, 72 bytes
///   [SectionEntry x section_count]            immediately after the header
///   ...zero padding to the first section...
///   [section payloads]                        each kSectionAlign-aligned
///
/// Section payloads are raw arrays of the graph's dual-CSR members, so an
/// mmap-backed load can point BipartiteGraph's spans straight into the
/// mapping. Alignment of every section offset to kSectionAlign (>= the
/// widest element, 8 bytes) keeps those loads well-defined under UBSan.
///
/// Versioning/compat rules: the magic pins the major format family; the
/// header's `version` is bumped whenever the layout of existing sections
/// changes incompatibly, and readers reject versions they do not know.
/// Adding a new optional section kind is backward compatible: readers must
/// skip entries whose kind they do not recognize (the section table is
/// self-describing), so old files load in new readers and vice versa as
/// long as the required sections are present.

inline constexpr char kSnapshotMagic[8] = {'R', 'I', 'C', 'D',
                                           'G', 'S', 'N', '1'};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr uint64_t kSectionAlign = 64;

/// Header flag bits.
inline constexpr uint32_t kFlagHasLabels = 1u << 0;

/// Caps the header validator enforces before trusting any count in size
/// arithmetic. Dense vertex ids are 32-bit, and an edge count beyond 2^40
/// (~1T edges, >8 TB of sections) cannot be a legitimate file.
inline constexpr uint64_t kMaxSnapshotVertices = (1ull << 32) - 1;
inline constexpr uint64_t kMaxSnapshotEdges = 1ull << 40;
inline constexpr uint32_t kMaxSnapshotSections = 64;

/// Section kinds. Required sections materialize BipartiteGraph's arrays;
/// the lookup sections hold dense vertex ids ordered by ascending external
/// id (adopted graphs answer LookupUser/LookupItem from a flat id map built
/// over the id sections instead). Label sections are optional.
enum class SectionKind : uint32_t {
  kUserOffsets = 1,   // uint64[num_users + 1]
  kItemOffsets = 2,   // uint64[num_items + 1]
  kUserAdj = 3,       // uint32[num_edges]
  kItemAdj = 4,       // uint32[num_edges]
  kUserClicks = 5,    // uint32[num_edges]
  kItemClicks = 6,    // uint32[num_edges]
  kUserTotals = 7,    // uint64[num_users]
  kItemTotals = 8,    // uint64[num_items]
  kUserIds = 9,       // int64[num_users]
  kItemIds = 10,      // int64[num_items]
  kUserLookup = 11,   // uint32[num_users]
  kItemLookup = 12,   // uint32[num_items]
  kLabelUsers = 13,   // int64[*] (optional; sorted external user ids)
  kLabelItems = 14,   // int64[*] (optional; sorted external item ids)
};

inline constexpr uint32_t kRequiredSectionCount = 12;

struct SnapshotHeader {
  char magic[8];           // kSnapshotMagic
  uint32_t version;        // kSnapshotVersion
  uint32_t header_bytes;   // sizeof(SnapshotHeader)
  uint32_t section_count;  // entries in the section table
  uint32_t flags;          // kFlagHasLabels | ...
  uint64_t num_users;
  uint64_t num_items;
  uint64_t num_edges;      // merged (user, item) pairs, both CSR sides
  uint64_t total_clicks;
  uint64_t file_bytes;     // total file size, padding included
  uint64_t checksum;       // Fnv64 of the file with this field zeroed
};
static_assert(sizeof(SnapshotHeader) == 72, "header layout is part of the format");

struct SectionEntry {
  uint32_t kind;      // SectionKind
  uint32_t reserved;  // must be 0
  uint64_t offset;    // from file start; kSectionAlign-aligned
  uint64_t bytes;     // payload bytes (excludes inter-section padding)
};
static_assert(sizeof(SectionEntry) == 24, "section entry layout is part of the format");

/// FNV-1a, widened to consume 8-byte words for the bulk of the input so
/// verifying a multi-hundred-MB snapshot costs tens of milliseconds, not
/// seconds. Deterministic across platforms for little-endian input (the
/// only kind we write).
class Fnv64 {
 public:
  void Update(const void* data, size_t bytes) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (bytes >= 8) {
      uint64_t word = 0;
      std::memcpy(&word, p, 8);
      hash_ = (hash_ ^ word) * kPrime;
      p += 8;
      bytes -= 8;
    }
    while (bytes > 0) {
      hash_ = (hash_ ^ *p) * kPrime;
      ++p;
      --bytes;
    }
  }

  /// Consumes `bytes` zero bytes (used to checksum a file as if the
  /// checksum field itself were zeroed, without copying the file).
  void UpdateZeros(size_t bytes) {
    static constexpr uint8_t kZeros[8] = {};
    while (bytes >= 8) {
      Update(kZeros, 8);
      bytes -= 8;
    }
    if (bytes > 0) Update(kZeros, bytes);
  }

  uint64_t Digest() const { return hash_; }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Checksums `bytes` of `data` as if the header's checksum field were zero
/// — the quantity stored in (and compared against) SnapshotHeader::checksum.
inline uint64_t ChecksumFile(const void* data, size_t bytes) {
  constexpr size_t kChecksumOffset = offsetof(SnapshotHeader, checksum);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  Fnv64 fnv;
  if (bytes <= kChecksumOffset) {
    fnv.Update(p, bytes);
    return fnv.Digest();
  }
  fnv.Update(p, kChecksumOffset);
  const size_t zeroed = bytes - kChecksumOffset < sizeof(uint64_t)
                            ? bytes - kChecksumOffset
                            : sizeof(uint64_t);
  fnv.UpdateZeros(zeroed);
  if (bytes > kChecksumOffset + zeroed) {
    fnv.Update(p + kChecksumOffset + zeroed, bytes - kChecksumOffset - zeroed);
  }
  return fnv.Digest();
}

}  // namespace ricd::snapshot

#endif  // RICD_SNAPSHOT_FORMAT_H_
