// Deterministic corruption ("fuzz") tests for the snapshot container: every
// truncation, bit flip and adversarial header/section patch must surface as
// a clean error Status with a stable `validate.snapshot: <tag>:` prefix —
// never UB — through FromImage and the mmap path.
// Runs under every sanitizer leg of tools/check.sh; ASan/UBSan would flag
// any out-of-bounds section access these validators failed to stop.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/validate_snapshot.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace ricd {
namespace {

using snapshot::SectionEntry;
using snapshot::SectionKind;
using snapshot::SnapshotHeader;

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, /*seed=*/5);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    auto graph = graph::GraphBuilder::FromTable(scenario->table);
    ASSERT_TRUE(graph.ok()) << graph.status();
    image_ = new std::vector<uint8_t>(snapshot::SerializeSnapshot(*graph));
    labeled_image_ = new std::vector<uint8_t>(
        snapshot::SerializeSnapshot(*graph, &scenario->labels));
  }

  static void TearDownTestSuite() {
    delete image_;
    delete labeled_image_;
    image_ = nullptr;
    labeled_image_ = nullptr;
  }

  static Status TryLoad(const std::vector<uint8_t>& img) {
    auto view = snapshot::GraphView::FromImage(
        std::span<const uint8_t>(img), nullptr);
    return view.status();
  }

  static void ExpectTag(const Status& status, const std::string& tag) {
    ASSERT_FALSE(status.ok()) << "expected rejection with tag " << tag;
    EXPECT_NE(status.message().find("validate.snapshot: " + tag),
              std::string::npos)
        << "wanted tag '" << tag << "', got: " << status.ToString();
  }

  static SnapshotHeader Header(const std::vector<uint8_t>& img) {
    SnapshotHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    return h;
  }

  static void PutHeader(std::vector<uint8_t>* img, const SnapshotHeader& h) {
    std::memcpy(img->data(), &h, sizeof(h));
  }

  static SectionEntry Entry(const std::vector<uint8_t>& img, size_t i) {
    SectionEntry e;
    std::memcpy(&e, img.data() + sizeof(SnapshotHeader) + i * sizeof(e),
                sizeof(e));
    return e;
  }

  static void PutEntry(std::vector<uint8_t>* img, size_t i,
                       const SectionEntry& e) {
    std::memcpy(img->data() + sizeof(SnapshotHeader) + i * sizeof(e), &e,
                sizeof(e));
  }

  static SectionEntry FindEntry(const std::vector<uint8_t>& img,
                                SectionKind kind) {
    const SnapshotHeader h = Header(img);
    for (uint32_t i = 0; i < h.section_count; ++i) {
      const SectionEntry e = Entry(img, i);
      if (e.kind == static_cast<uint32_t>(kind)) return e;
    }
    ADD_FAILURE() << "section kind " << static_cast<uint32_t>(kind)
                  << " not found";
    return {};
  }

  /// Re-stamps the checksum so semantically hostile payload edits pass the
  /// integrity check and must be caught by the bounds audit instead.
  static void Restamp(std::vector<uint8_t>* img) {
    const uint64_t checksum =
        snapshot::ChecksumFile(img->data(), img->size());
    std::memcpy(img->data() + offsetof(SnapshotHeader, checksum), &checksum,
                sizeof(checksum));
  }

  static std::string WriteTemp(const std::string& name,
                               const std::vector<uint8_t>& img) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(reinterpret_cast<const char*>(img.data()),
              static_cast<std::streamsize>(img.size()));
    out.flush();
    EXPECT_TRUE(out.good());
    return path;
  }

  static std::vector<uint8_t>* image_;
  static std::vector<uint8_t>* labeled_image_;
};

std::vector<uint8_t>* SnapshotFuzzTest::image_ = nullptr;
std::vector<uint8_t>* SnapshotFuzzTest::labeled_image_ = nullptr;

TEST_F(SnapshotFuzzTest, PristineImageLoads) {
  EXPECT_TRUE(TryLoad(*image_).ok());
  EXPECT_TRUE(TryLoad(*labeled_image_).ok());
}

TEST_F(SnapshotFuzzTest, TruncationsAreRejected) {
  const std::vector<size_t> cuts = {0,
                                    1,
                                    8,
                                    sizeof(SnapshotHeader) - 1,
                                    sizeof(SnapshotHeader),
                                    sizeof(SnapshotHeader) + 7,
                                    image_->size() / 2,
                                    image_->size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::vector<uint8_t> img(image_->begin(), image_->begin() + cut);
    const Status status = TryLoad(img);
    if (cut < sizeof(SnapshotHeader)) {
      ExpectTag(status, "header_truncated");
    } else {
      ExpectTag(status, "file_size_mismatch");
    }
  }
}

TEST_F(SnapshotFuzzTest, BitFlipsAreRejected) {
  // Payload flips past the section table must all land on the checksum;
  // flips anywhere else must still produce SOME clean rejection.
  const SnapshotHeader h = Header(*image_);
  const size_t table_end =
      sizeof(SnapshotHeader) + h.section_count * sizeof(SectionEntry);
  for (size_t offset = table_end; offset < image_->size(); offset += 4099) {
    SCOPED_TRACE("payload flip at " + std::to_string(offset));
    std::vector<uint8_t> img = *image_;
    img[offset] ^= 0x10;
    ExpectTag(TryLoad(img), "checksum_mismatch");
  }
  for (size_t offset = 0; offset < table_end; offset += 13) {
    SCOPED_TRACE("header flip at " + std::to_string(offset));
    std::vector<uint8_t> img = *image_;
    img[offset] ^= 0x01;
    EXPECT_FALSE(TryLoad(img).ok());
  }
}

TEST_F(SnapshotFuzzTest, HeaderPatchesYieldDistinctTags) {
  {
    std::vector<uint8_t> img = *image_;
    img[0] ^= 0xFF;
    ExpectTag(TryLoad(img), "bad_magic");
  }
  // Version 1 (with the retired lookup sections) and unknown future
  // versions both fail cleanly.
  for (const uint32_t version : {1u, 99u}) {
    std::vector<uint8_t> img = *image_;
    SnapshotHeader h = Header(img);
    h.version = version;
    PutHeader(&img, h);
    ExpectTag(TryLoad(img), "bad_version");
  }
  {
    std::vector<uint8_t> img = *image_;
    SnapshotHeader h = Header(img);
    h.header_bytes = 64;
    PutHeader(&img, h);
    ExpectTag(TryLoad(img), "bad_header_size");
  }
  for (const uint32_t count : {0u, 3u, snapshot::kMaxSnapshotSections + 1}) {
    std::vector<uint8_t> img = *image_;
    SnapshotHeader h = Header(img);
    h.section_count = count;
    PutHeader(&img, h);
    ExpectTag(TryLoad(img), "bad_section_count");
  }
  {
    std::vector<uint8_t> img = *image_;
    SnapshotHeader h = Header(img);
    h.file_bytes += 1;
    PutHeader(&img, h);
    ExpectTag(TryLoad(img), "file_size_mismatch");
  }
}

TEST_F(SnapshotFuzzTest, OversizedCountsAreRejectedBeforeSizeArithmetic) {
  struct Case {
    const char* name;
    uint64_t SnapshotHeader::* field;
    uint64_t value;
    const char* tag;
  };
  const std::vector<Case> cases = {
      // Far past the cap: must fail count_overflow before any (count+1)*8
      // arithmetic could wrap around.
      {"users_huge", &SnapshotHeader::num_users, UINT64_MAX - 3,
       "count_overflow"},
      {"items_huge", &SnapshotHeader::num_items,
       snapshot::kMaxSnapshotVertices + 1, "count_overflow"},
      {"edges_huge", &SnapshotHeader::num_edges,
       snapshot::kMaxSnapshotEdges + 1, "count_overflow"},
      // Off by one: passes the cap, must then disagree with section sizes.
      {"users_off_by_one", &SnapshotHeader::num_users, 0,
       "section_size_mismatch"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> img = *image_;
    SnapshotHeader h = Header(img);
    h.*(c.field) = c.value == 0 ? h.*(c.field) + 1 : c.value;
    PutHeader(&img, h);
    ExpectTag(TryLoad(img), c.tag);
  }
}

TEST_F(SnapshotFuzzTest, SectionTablePatchesYieldDistinctTags) {
  {
    std::vector<uint8_t> img = *image_;
    SectionEntry e = Entry(img, 0);
    e.offset += 1;
    PutEntry(&img, 0, e);
    ExpectTag(TryLoad(img), "section_misaligned");
  }
  {
    std::vector<uint8_t> img = *image_;
    SectionEntry e = Entry(img, 0);
    e.offset = (img.size() + snapshot::kSectionAlign) &
               ~(static_cast<uint64_t>(snapshot::kSectionAlign) - 1);
    PutEntry(&img, 0, e);
    ExpectTag(TryLoad(img), "section_out_of_bounds");
  }
  {
    std::vector<uint8_t> img = *image_;
    SectionEntry e = Entry(img, 0);
    e.bytes -= 8;  // user_offsets no longer matches num_users + 1
    PutEntry(&img, 0, e);
    ExpectTag(TryLoad(img), "section_size_mismatch");
  }
  {
    // kUserClicks -> kItemClicks: same expected size, so the duplicate
    // check is what fires when the real kItemClicks entry follows.
    std::vector<uint8_t> img = *image_;
    SectionEntry e = FindEntry(img, SectionKind::kUserClicks);
    const SnapshotHeader h = Header(img);
    for (uint32_t i = 0; i < h.section_count; ++i) {
      if (Entry(img, i).kind ==
          static_cast<uint32_t>(SectionKind::kUserClicks)) {
        e.kind = static_cast<uint32_t>(SectionKind::kItemClicks);
        PutEntry(&img, i, e);
        break;
      }
    }
    ExpectTag(TryLoad(img), "duplicate_section");
  }
  {
    // Re-kind a required section to an unknown kind: skipped for forward
    // compatibility, which leaves the required bitmap incomplete.
    std::vector<uint8_t> img = *image_;
    const SnapshotHeader h = Header(img);
    for (uint32_t i = 0; i < h.section_count; ++i) {
      SectionEntry e = Entry(img, i);
      if (e.kind == static_cast<uint32_t>(SectionKind::kUserTotals)) {
        e.kind = 63;
        PutEntry(&img, i, e);
        break;
      }
    }
    ExpectTag(TryLoad(img), "missing_section");
  }
  {
    std::vector<uint8_t> img = *image_;
    SectionEntry e0 = Entry(img, 0);
    SectionEntry e1 = Entry(img, 1);
    e1.offset = e0.offset;  // two sections on the same bytes
    PutEntry(&img, 1, e1);
    ExpectTag(TryLoad(img), "section_overlap");
  }
  {
    std::vector<uint8_t> img = *labeled_image_;
    const SnapshotHeader h = Header(img);
    for (uint32_t i = 0; i < h.section_count; ++i) {
      SectionEntry e = Entry(img, i);
      if (e.kind == static_cast<uint32_t>(SectionKind::kLabelUsers)) {
        e.bytes -= 3;  // no longer a whole number of int64 ids
        PutEntry(&img, i, e);
        break;
      }
    }
    ExpectTag(TryLoad(img), "label_size_mismatch");
  }
}

TEST_F(SnapshotFuzzTest, RestampedHostilePayloadsHitBoundsAudit) {
  // A file can be checksum-consistent yet semantically hostile; the bounds
  // audit must still reject it before any accessor can run off the image.
  {
    std::vector<uint8_t> img = *image_;
    const SectionEntry adj = FindEntry(img, SectionKind::kUserAdj);
    ASSERT_GT(adj.bytes, 0u);
    const uint32_t bogus = UINT32_MAX;
    std::memcpy(img.data() + adj.offset, &bogus, sizeof(bogus));
    Restamp(&img);
    ExpectTag(TryLoad(img), "adjacency_out_of_range");
  }
  {
    std::vector<uint8_t> img = *image_;
    const SectionEntry offs = FindEntry(img, SectionKind::kUserOffsets);
    const uint64_t bogus = UINT64_MAX / 2;
    std::memcpy(img.data() + offs.offset + 8, &bogus, sizeof(bogus));
    Restamp(&img);
    ExpectTag(TryLoad(img), "offsets_invalid");
  }
}

TEST_F(SnapshotFuzzTest, FilePathsRejectCorruptionCleanly) {
  // The same corruption classes through the real file loader.
  {
    std::vector<uint8_t> img(image_->begin(),
                             image_->begin() + image_->size() / 2);
    const std::string path = WriteTemp("fuzz_truncated.snap", img);
    auto mapped = snapshot::GraphView::Map(path);
    ExpectTag(mapped.status(), "file_size_mismatch");
  }
  {
    const std::string path = WriteTemp("fuzz_empty.snap", {});
    auto mapped = snapshot::GraphView::Map(path);
    ExpectTag(mapped.status(), "header_truncated");
  }
  {
    std::vector<uint8_t> img = *image_;
    img[img.size() - 1] ^= 0x80;
    const std::string path = WriteTemp("fuzz_flip.snap", img);
    auto mapped = snapshot::GraphView::Map(path);
    ExpectTag(mapped.status(), "checksum_mismatch");
  }
  {
    auto missing = snapshot::GraphView::Map(::testing::TempDir() +
                                            "/does_not_exist.snap");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  }
}

}  // namespace
}  // namespace ricd
