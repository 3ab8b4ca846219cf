#include "serve/protocol.h"

#include <cstring>

#include "common/string_util.h"

namespace ricd::serve {
namespace {

Status ShortPayload(const char* what) {
  return Status::InvalidArgument(
      StringPrintf("protocol: truncated payload reading %s", what));
}

Status TrailingBytes(const char* what, const PayloadReader& r) {
  if (r.remaining() == 0) return Status::Ok();
  return Status::InvalidArgument(
      StringPrintf("protocol: %zu trailing bytes after %s", r.remaining(),
                   what));
}

Status WrongOp(const char* expected, uint8_t got) {
  return Status::InvalidArgument(
      StringPrintf("protocol: expected %s, got opcode %u", expected,
                   static_cast<unsigned>(got)));
}

}  // namespace

void PayloadWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

std::string PayloadWriter::Frame() const {
  const uint32_t n = static_cast<uint32_t>(bytes_.size());
  std::string frame;
  frame.reserve(4 + bytes_.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  }
  frame.append(bytes_);
  return frame;
}

Result<uint8_t> PayloadReader::GetU8() {
  if (remaining() < 1) return ShortPayload("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> PayloadReader::GetU32() {
  if (remaining() < 4) return ShortPayload("u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> PayloadReader::GetU64() {
  if (remaining() < 8) return ShortPayload("u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> PayloadReader::GetI64() {
  RICD_ASSIGN_OR_RETURN(const uint64_t bits, GetU64());
  return static_cast<int64_t>(bits);
}

Result<double> PayloadReader::GetDouble() {
  RICD_ASSIGN_OR_RETURN(const uint64_t bits, GetU64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::Rest() {
  std::string rest(data_ + pos_, size_ - pos_);
  pos_ = size_;
  return rest;
}

std::string EncodePing() { return PayloadWriter(OpCode::kPing).Frame(); }
std::string EncodePong() { return PayloadWriter(OpCode::kPong).Frame(); }
std::string EncodeStats() { return PayloadWriter(OpCode::kStats).Frame(); }
std::string EncodeMetricsRequest() {
  return PayloadWriter(OpCode::kMetrics).Frame();
}

std::string EncodeQueryUser(table::UserId user) {
  PayloadWriter w(OpCode::kQueryUser);
  w.PutI64(user);
  return w.Frame();
}

std::string EncodeQueryItem(table::ItemId item) {
  PayloadWriter w(OpCode::kQueryItem);
  w.PutI64(item);
  return w.Frame();
}

std::string EncodeQueryPair(table::UserId user, table::ItemId item) {
  PayloadWriter w(OpCode::kQueryPair);
  w.PutI64(user);
  w.PutI64(item);
  return w.Frame();
}

std::string EncodeIngest(const std::vector<table::ClickRecord>& records) {
  PayloadWriter w(OpCode::kIngest);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const table::ClickRecord& r : records) {
    w.PutI64(r.user);
    w.PutI64(r.item);
    w.PutU32(r.clicks);
  }
  return w.Frame();
}

std::string EncodeVerdict(const VerdictReply& reply) {
  PayloadWriter w(OpCode::kVerdict);
  w.PutU8(reply.flagged ? 1 : 0);
  w.PutDouble(reply.risk);
  w.PutU64(reply.epoch);
  return w.Frame();
}

std::string EncodeIngestAck(const IngestAck& ack) {
  PayloadWriter w(OpCode::kIngestAck);
  w.PutU32(ack.accepted);
  w.PutU32(ack.rejected);
  w.PutU64(ack.epoch);
  return w.Frame();
}

std::string EncodeStatsReply(const StatsReply& reply) {
  PayloadWriter w(OpCode::kStatsReply);
  w.PutU64(reply.epoch);
  w.PutU64(reply.stats.accepted);
  w.PutU64(reply.stats.rejected);
  w.PutU64(reply.stats.applied);
  w.PutU64(reply.stats.batches);
  w.PutU64(reply.stats.stream_edges);
  w.PutU64(reply.stats.stream_clicks);
  w.PutU64(reply.stats.window_retained_rows);
  w.PutU64(reply.stats.window_segments);
  w.PutU64(reply.stats.window_evicted_segments);
  w.PutU64(reply.stats.window_evicted_rows);
  w.PutU64(reply.stats.window_clock_high);
  w.PutU64(reply.flagged_users);
  w.PutU64(reply.flagged_items);
  w.PutU64(reply.blocked_pairs);
  w.PutDouble(reply.ingest_p50);
  w.PutDouble(reply.ingest_p95);
  w.PutDouble(reply.ingest_p99);
  w.PutDouble(reply.query_p50);
  w.PutDouble(reply.query_p95);
  w.PutDouble(reply.query_p99);
  return w.Frame();
}

std::string EncodeMetricsReply(const std::string& text) {
  PayloadWriter w(OpCode::kMetricsReply);
  w.PutBytes(text);
  return w.Frame();
}

std::string EncodeError(const Status& status) {
  PayloadWriter w(OpCode::kError);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutBytes(status.message());
  return w.Frame();
}

Result<VerdictReply> DecodeVerdict(const std::string& payload) {
  PayloadReader r(payload);
  RICD_ASSIGN_OR_RETURN(const uint8_t op, r.GetU8());
  if (op == static_cast<uint8_t>(OpCode::kError)) return DecodeError(payload);
  if (op != static_cast<uint8_t>(OpCode::kVerdict)) {
    return WrongOp("kVerdict", op);
  }
  VerdictReply reply;
  RICD_ASSIGN_OR_RETURN(const uint8_t flagged, r.GetU8());
  reply.flagged = flagged != 0;
  RICD_ASSIGN_OR_RETURN(reply.risk, r.GetDouble());
  RICD_ASSIGN_OR_RETURN(reply.epoch, r.GetU64());
  RICD_RETURN_IF_ERROR(TrailingBytes("kVerdict", r));
  return reply;
}

Result<IngestAck> DecodeIngestAck(const std::string& payload) {
  PayloadReader r(payload);
  RICD_ASSIGN_OR_RETURN(const uint8_t op, r.GetU8());
  if (op == static_cast<uint8_t>(OpCode::kError)) return DecodeError(payload);
  if (op != static_cast<uint8_t>(OpCode::kIngestAck)) {
    return WrongOp("kIngestAck", op);
  }
  IngestAck ack;
  RICD_ASSIGN_OR_RETURN(ack.accepted, r.GetU32());
  RICD_ASSIGN_OR_RETURN(ack.rejected, r.GetU32());
  RICD_ASSIGN_OR_RETURN(ack.epoch, r.GetU64());
  RICD_RETURN_IF_ERROR(TrailingBytes("kIngestAck", r));
  return ack;
}

Result<StatsReply> DecodeStatsReply(const std::string& payload) {
  PayloadReader r(payload);
  RICD_ASSIGN_OR_RETURN(const uint8_t op, r.GetU8());
  if (op == static_cast<uint8_t>(OpCode::kError)) return DecodeError(payload);
  if (op != static_cast<uint8_t>(OpCode::kStatsReply)) {
    return WrongOp("kStatsReply", op);
  }
  StatsReply reply;
  RICD_ASSIGN_OR_RETURN(reply.epoch, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.accepted, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.rejected, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.applied, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.batches, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.stream_edges, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.stream_clicks, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.window_retained_rows, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.window_segments, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.window_evicted_segments, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.window_evicted_rows, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.stats.window_clock_high, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.flagged_users, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.flagged_items, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.blocked_pairs, r.GetU64());
  RICD_ASSIGN_OR_RETURN(reply.ingest_p50, r.GetDouble());
  RICD_ASSIGN_OR_RETURN(reply.ingest_p95, r.GetDouble());
  RICD_ASSIGN_OR_RETURN(reply.ingest_p99, r.GetDouble());
  RICD_ASSIGN_OR_RETURN(reply.query_p50, r.GetDouble());
  RICD_ASSIGN_OR_RETURN(reply.query_p95, r.GetDouble());
  RICD_ASSIGN_OR_RETURN(reply.query_p99, r.GetDouble());
  RICD_RETURN_IF_ERROR(TrailingBytes("kStatsReply", r));
  return reply;
}

Result<std::string> DecodeMetricsReply(const std::string& payload) {
  PayloadReader r(payload);
  RICD_ASSIGN_OR_RETURN(const uint8_t op, r.GetU8());
  if (op == static_cast<uint8_t>(OpCode::kError)) return DecodeError(payload);
  if (op != static_cast<uint8_t>(OpCode::kMetricsReply)) {
    return WrongOp("kMetricsReply", op);
  }
  return r.Rest();
}

Result<std::vector<table::ClickRecord>> DecodeIngest(
    const std::string& payload) {
  PayloadReader r(payload);
  RICD_ASSIGN_OR_RETURN(const uint8_t op, r.GetU8());
  if (op != static_cast<uint8_t>(OpCode::kIngest)) {
    return WrongOp("kIngest", op);
  }
  RICD_ASSIGN_OR_RETURN(const uint32_t n, r.GetU32());
  // Each record occupies 20 payload bytes; the frame cap already bounds n,
  // but cross-check so a corrupt count cannot oversize the vector.
  if (static_cast<uint64_t>(n) * 20 != r.remaining()) {
    return Status::InvalidArgument(
        StringPrintf("protocol: ingest count %u disagrees with %zu payload "
                     "bytes",
                     n, r.remaining()));
  }
  std::vector<table::ClickRecord> records;
  records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    table::ClickRecord rec;
    RICD_ASSIGN_OR_RETURN(rec.user, r.GetI64());
    RICD_ASSIGN_OR_RETURN(rec.item, r.GetI64());
    RICD_ASSIGN_OR_RETURN(rec.clicks, r.GetU32());
    records.push_back(rec);
  }
  return records;
}

Status DecodeError(const std::string& payload) {
  PayloadReader r(payload);
  const auto op = r.GetU8();
  if (!op.ok()) return op.status();
  if (op.value() != static_cast<uint8_t>(OpCode::kError)) {
    return WrongOp("kError", op.value());
  }
  const auto code = r.GetU8();
  if (!code.ok()) return code.status();
  if (code.value() == 0 ||
      code.value() > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument(
        StringPrintf("protocol: unknown status code %u",
                     static_cast<unsigned>(code.value())));
  }
  return Status(static_cast<StatusCode>(code.value()), r.Rest());
}

}  // namespace ricd::serve
