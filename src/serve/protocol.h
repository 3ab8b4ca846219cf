#ifndef RICD_SERVE_PROTOCOL_H_
#define RICD_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/verdict_store.h"
#include "table/click_record.h"

namespace ricd::serve {

/// Wire format of the detection server — deliberately dependency-free:
/// every frame is a 4-byte little-endian payload length followed by the
/// payload, whose first byte is the opcode. Integers inside payloads are
/// little-endian fixed width; doubles are IEEE-754 bit patterns. Length
/// prefixes are capped (kMaxFrameBytes) so a malformed peer cannot make the
/// server allocate unbounded memory.
inline constexpr uint32_t kMaxFrameBytes = 1 << 20;

enum class OpCode : uint8_t {
  // Requests.
  kPing = 1,
  kQueryUser = 2,   ///< + int64 user          -> kVerdict
  kQueryItem = 3,   ///< + int64 item          -> kVerdict
  kQueryPair = 4,   ///< + int64 user, int64 item -> kVerdict
  kIngest = 5,      ///< + n * (int64 user, int64 item, uint32 clicks)
                    ///<   -> kIngestAck
  kStats = 6,       ///< -> kStatsReply
  kMetrics = 7,     ///< -> kMetricsReply (live text exposition)

  // Responses.
  kPong = 64,
  kVerdict = 65,    ///< + uint8 flagged, double risk, uint64 epoch
  kIngestAck = 66,  ///< + uint32 accepted, uint32 rejected, uint64 epoch
  kStatsReply = 67, ///< + the fixed StatsReply layout (see EncodeStatsReply)
  kMetricsReply = 68, ///< rest = Prometheus-style exposition text bytes
  kError = 127,     ///< + uint8 status code, rest = message bytes
};

/// Append-only payload writer (opcode first, then operands).
class PayloadWriter {
 public:
  explicit PayloadWriter(OpCode op) { PutU8(static_cast<uint8_t>(op)); }

  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutBytes(const std::string& s) { bytes_.append(s); }

  /// The payload with its 4-byte length prefix prepended — ready to send.
  std::string Frame() const;

  const std::string& payload() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Bounds-checked payload reader. Every getter returns InvalidArgument on
/// underrun instead of reading past the buffer.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit PayloadReader(const std::string& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();

  /// Remaining unread bytes (the kError message tail).
  std::string Rest();

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Parsed request/response payloads.
struct VerdictReply {
  bool flagged = false;
  double risk = 0.0;
  uint64_t epoch = 0;
};

struct IngestAck {
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  uint64_t epoch = 0;
};

/// STATS reply: one fixed layout of uint64 counters and double quantiles.
/// Both peers are built from the same tree, so there is no version field.
struct StatsReply {
  uint64_t epoch = 0;
  ServeStats stats;
  uint64_t flagged_users = 0;
  uint64_t flagged_items = 0;
  uint64_t blocked_pairs = 0;

  // Serve-path latency quantiles in seconds, taken from the server's
  // request histograms at reply time.
  double ingest_p50 = 0.0;
  double ingest_p95 = 0.0;
  double ingest_p99 = 0.0;
  double query_p50 = 0.0;
  double query_p95 = 0.0;
  double query_p99 = 0.0;
};

/// Frame builders for every message the server and client exchange.
std::string EncodePing();
std::string EncodeQueryUser(table::UserId user);
std::string EncodeQueryItem(table::ItemId item);
std::string EncodeQueryPair(table::UserId user, table::ItemId item);
std::string EncodeIngest(const std::vector<table::ClickRecord>& records);
std::string EncodeStats();
std::string EncodeMetricsRequest();
std::string EncodePong();
std::string EncodeVerdict(const VerdictReply& reply);
std::string EncodeIngestAck(const IngestAck& ack);
std::string EncodeStatsReply(const StatsReply& reply);
std::string EncodeMetricsReply(const std::string& text);
std::string EncodeError(const Status& status);

/// Payload decoders (payload = frame minus the length prefix). Each checks
/// the opcode and exact operand layout: a short payload and trailing bytes
/// past the last operand are both InvalidArgument.
Result<VerdictReply> DecodeVerdict(const std::string& payload);
Result<IngestAck> DecodeIngestAck(const std::string& payload);
Result<StatsReply> DecodeStatsReply(const std::string& payload);
Result<std::string> DecodeMetricsReply(const std::string& payload);
Result<std::vector<table::ClickRecord>> DecodeIngest(
    const std::string& payload);

/// Turns a received kError payload back into a Status (any other opcode is
/// an InvalidArgument).
Status DecodeError(const std::string& payload);

}  // namespace ricd::serve

#endif  // RICD_SERVE_PROTOCOL_H_
