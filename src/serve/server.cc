#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metric_names.h"

namespace ricd::serve {
namespace {

/// Polling granularity for shutdown checks on otherwise-blocking fds.
constexpr int kPollMillis = 100;

Status Errno(const char* what) {
  return Status::IoError(StringPrintf("%s: %s", what, std::strerror(errno)));
}

/// A running timer for a sampled request, nothing for an unsampled one: the
/// unsampled majority never reads the clock.
std::optional<WallTimer> StartIfSampled(const obs::RequestTrace& trace) {
  if (!trace.sampled()) return std::nullopt;
  return WallTimer();
}

void CloseQuietly(int fd) {
  // EINTR/EBADF on close carries no actionable signal on this path, but the
  // lint rule wants the return inspected everywhere — log and move on.
  if (::close(fd) != 0) {
    RICD_LOG(WARNING) << "close(" << fd << "): " << std::strerror(errno);
  }
}

}  // namespace

Status WriteAll(int fd, const std::string& bytes) {
  size_t sent_total = 0;
  while (sent_total < bytes.size()) {
    // MSG_NOSIGNAL: a peer that disappeared mid-reply must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + sent_total,
                             bytes.size() - sent_total, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent_total += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

/// Reads exactly `n` bytes (appending to `out`); IoError on EOF/error.
Status ReadExact(int fd, size_t n, std::string* out) {
  const size_t base = out->size();
  out->resize(base + n);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out->data() + base + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (r == 0) return Status::IoError("recv: connection closed by peer");
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload) {
  std::string prefix;
  RICD_RETURN_IF_ERROR(ReadExact(fd, 4, &prefix));
  uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (n == 0 || n > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StringPrintf("frame length %u outside (0, %u]", n, kMaxFrameBytes));
  }
  payload->clear();
  return ReadExact(fd, n, payload);
}

TcpServer::TcpServer(DetectionService* service, Options options)
    : service_(service),
      options_(options),
      requests_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeServerRequests)),
      protocol_errors_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeServerProtocolErrors)),
      trace_sampled_counter_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kServeTraceSampled)),
      request_latency_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServeServerRequestSeconds)),
      query_latency_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServeRequestQuerySeconds)),
      ingest_latency_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServeRequestIngestSeconds)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("server already started");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    const Status status = Errno("setsockopt(SO_REUSEADDR)");
    CloseQuietly(fd);
    return status;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind");
    CloseQuietly(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = Errno("listen");
    CloseQuietly(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const Status status = Errno("getsockname");
    CloseQuietly(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  handlers_ = std::make_unique<ThreadPool>(options_.handler_threads);
  acceptor_ = std::make_unique<ThreadPool>(1);
  acceptor_->Submit([this] { AcceptLoop(); });
  RICD_LOG(INFO) << "serve: listening on 127.0.0.1:" << port_;
  return Status::Ok();
}

void TcpServer::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  // The acceptor notices stop_ at its next poll tick; connection handlers at
  // theirs. Join acceptor first so no new connections arrive while the
  // handler pool drains.
  acceptor_.reset();
  handlers_.reset();
  if (listen_fd_ >= 0) {
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      RICD_LOG(ERROR) << "serve poll: " << std::strerror(errno);
      return;
    }
    if (ready == 0) continue;  // timeout — recheck stop_
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      RICD_LOG(ERROR) << "serve accept: " << std::strerror(errno);
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);  // order: monotonic stat counter; no data published through it
    handlers_->Submit([this, conn] { HandleConnection(conn); });
  }
}

void TcpServer::HandleConnection(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    RICD_LOG(WARNING) << "setsockopt(TCP_NODELAY): " << std::strerror(errno);
  }
  std::string payload;
  while (!stop_.load(std::memory_order_acquire)) {
    // Wait for the next request with a timeout so Stop() is honored even on
    // an idle keep-alive connection.
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const Status read = ReadFrame(fd, &payload);
    if (!read.ok()) {
      // Peer hangup ends the connection silently; a malformed frame gets an
      // error reply first (best effort) since framing may be recoverable.
      if (read.code() == StatusCode::kInvalidArgument) {
        protocol_errors_counter_->Add(1);
        (void)WriteAll(fd, EncodeError(read));
      }
      break;
    }
    const std::string response = HandleRequest(payload);
    if (!WriteAll(fd, response).ok()) break;
  }
  CloseQuietly(fd);
}

std::string TcpServer::HandleRequest(const std::string& payload) {
  // Request ids are assigned here (not per connection) so deterministic
  // 1-in-N sampling covers the whole server uniformly regardless of how
  // requests spread over connections.
  // Latency histograms (and phase timers) are fed only by the sampled
  // requests: per-request clock reads and bucket updates on every call
  // would cost more than the serve path itself at in-process rates, while
  // a deterministic 1-in-N sample estimates the same distribution. The
  // request count is exact — request_ids_ counts everything and is folded
  // into the serve.server.requests counter on STATS/METRICS reads.
  const uint64_t request_id =
      request_ids_.fetch_add(1, std::memory_order_relaxed);  // order: id allocation only; uniqueness is all dispatch needs
  obs::RequestTrace trace(request_id, obs::ShouldTraceRequest(request_id));
  if (!trace.sampled()) return DispatchRequest(payload, &trace);

  trace_sampled_counter_->Add(1);
  WallTimer timer;
  std::string response = DispatchRequest(payload, &trace);
  request_latency_->Observe(timer.ElapsedSeconds());
  trace.Finish();
  return response;
}

void TcpServer::SyncRequestCounter() {
  // exchange() hands each caller a disjoint [synced, ids) range, so
  // concurrent STATS/METRICS requests never double-count.
  const uint64_t ids = request_ids_.load(std::memory_order_relaxed);  // order: monotonic id watermark; exchange below takes a disjoint range
  const uint64_t synced =
      requests_synced_.exchange(ids, std::memory_order_relaxed);  // order: counter fold bookkeeping; ranges are disjoint per exchange
  if (ids > synced) requests_counter_->Add(ids - synced);
}

std::string TcpServer::DispatchRequest(const std::string& payload,
                                       obs::RequestTrace* trace) {
  PayloadReader reader(payload);
  const Result<uint8_t> op = reader.GetU8();
  if (!op.ok()) {
    protocol_errors_counter_->Add(1);
    return EncodeError(op.status());
  }
  // Answers one query from a pinned snapshot; the query is timed only when
  // the request is sampled.
  const auto verdict = [this, trace](const char* phase, auto lookup) {
    const std::optional<WallTimer> timer = StartIfSampled(*trace);
    const VerdictStore::ReadRef snap = service_->Verdicts();
    VerdictReply reply = lookup(*snap);
    reply.epoch = snap->epoch;
    if (timer) {
      const double seconds = timer->ElapsedSeconds();
      query_latency_->Observe(seconds);
      trace->AddPhase(phase, seconds);
    }
    return EncodeVerdict(reply);
  };
  switch (static_cast<OpCode>(op.value())) {
    case OpCode::kPing:
      if (reader.remaining() != 0) break;
      return EncodePong();
    case OpCode::kQueryUser: {
      const Result<int64_t> user = reader.GetI64();
      if (!user.ok() || reader.remaining() != 0) break;
      return verdict("query_user", [&](const VerdictSnapshot& snap) {
        return VerdictReply{snap.FlaggedUser(user.value()),
                            snap.UserRisk(user.value())};
      });
    }
    case OpCode::kQueryItem: {
      const Result<int64_t> item = reader.GetI64();
      if (!item.ok() || reader.remaining() != 0) break;
      return verdict("query_item", [&](const VerdictSnapshot& snap) {
        return VerdictReply{snap.FlaggedItem(item.value()),
                            snap.ItemRisk(item.value())};
      });
    }
    case OpCode::kQueryPair: {
      const Result<int64_t> user = reader.GetI64();
      if (!user.ok()) break;
      const Result<int64_t> item = reader.GetI64();
      if (!item.ok() || reader.remaining() != 0) break;
      return verdict("query_pair", [&](const VerdictSnapshot& snap) {
        const bool blocked = snap.BlockedPair(user.value(), item.value());
        return VerdictReply{blocked,
                            blocked ? snap.UserRisk(user.value()) : 0.0};
      });
    }
    case OpCode::kIngest: {
      // Spans decode + enqueue: the whole ingest handling.
      const std::optional<WallTimer> ingest_timer = StartIfSampled(*trace);
      const Result<std::vector<table::ClickRecord>> records =
          DecodeIngest(payload);
      if (!records.ok()) {
        protocol_errors_counter_->Add(1);
        return EncodeError(records.status());
      }
      std::optional<WallTimer> enqueue_timer;
      if (ingest_timer) {
        trace->AddPhase("decode", ingest_timer->ElapsedSeconds());
        enqueue_timer.emplace();
      }
      IngestAck ack;
      for (const table::ClickRecord& r : records.value()) {
        const Status pushed = service_->IngestClick(r);
        if (pushed.ok()) {
          ++ack.accepted;
        } else if (pushed.code() == StatusCode::kResourceExhausted) {
          // Backpressure is per record and reported, never silent.
          ++ack.rejected;
        } else {
          return EncodeError(pushed);
        }
      }
      ack.epoch = service_->Verdicts()->epoch;
      if (ingest_timer) {
        trace->AddPhase("enqueue", enqueue_timer->ElapsedSeconds());
        ingest_latency_->Observe(ingest_timer->ElapsedSeconds());
      }
      return EncodeIngestAck(ack);
    }
    case OpCode::kStats: {
      if (reader.remaining() != 0) break;
      SyncRequestCounter();
      const VerdictStore::ReadRef snap = service_->Verdicts();
      StatsReply reply;
      reply.epoch = snap->epoch;
      reply.stats = snap->stats;
      reply.flagged_users = snap->flagged_users.size();
      reply.flagged_items = snap->flagged_items.size();
      reply.blocked_pairs = snap->blocked_pairs.size();
      const obs::HistogramSnapshot ingest_hist = ingest_latency_->Snapshot();
      const obs::HistogramSnapshot query_hist = query_latency_->Snapshot();
      reply.ingest_p50 = ingest_hist.P50();
      reply.ingest_p95 = ingest_hist.P95();
      reply.ingest_p99 = ingest_hist.P99();
      reply.query_p50 = query_hist.P50();
      reply.query_p95 = query_hist.P95();
      reply.query_p99 = query_hist.P99();
      return EncodeStatsReply(reply);
    }
    case OpCode::kMetrics: {
      if (reader.remaining() != 0) break;
      SyncRequestCounter();
      std::string text = obs::RenderPrometheusText(
          obs::MetricsRegistry::Global().Snapshot());
      // Newest flight events ride along as comment lines, so one METRICS
      // round-trip is a full "what is this server doing" picture.
      text += obs::FlightRecorder::Global().DumpText();
      return EncodeMetricsReply(text);
    }
    default:
      protocol_errors_counter_->Add(1);
      return EncodeError(Status::InvalidArgument(
          StringPrintf("unknown opcode %u", static_cast<unsigned>(op.value()))));
  }
  protocol_errors_counter_->Add(1);
  return EncodeError(Status::InvalidArgument(
      "request payload does not match its opcode's layout"));
}

Status TcpClient::Connect(uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("client already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("connect");
    CloseQuietly(fd);
    return status;
  }
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    RICD_LOG(WARNING) << "setsockopt(TCP_NODELAY): " << std::strerror(errno);
  }
  fd_ = fd;
  return Status::Ok();
}

void TcpClient::Disconnect() {
  if (fd_ >= 0) {
    CloseQuietly(fd_);
    fd_ = -1;
  }
}

Result<std::string> TcpClient::RoundTrip(const std::string& frame) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  RICD_RETURN_IF_ERROR(WriteAll(fd_, frame));
  std::string payload;
  RICD_RETURN_IF_ERROR(ReadFrame(fd_, &payload));
  return payload;
}

Status TcpClient::Ping() {
  RICD_ASSIGN_OR_RETURN(const std::string payload, RoundTrip(EncodePing()));
  PayloadReader reader(payload);
  RICD_ASSIGN_OR_RETURN(const uint8_t op, reader.GetU8());
  if (op != static_cast<uint8_t>(OpCode::kPong)) {
    return Status::InvalidArgument("expected kPong");
  }
  return Status::Ok();
}

Result<VerdictReply> TcpClient::QueryUser(table::UserId user) {
  RICD_ASSIGN_OR_RETURN(const std::string payload,
                        RoundTrip(EncodeQueryUser(user)));
  return DecodeVerdict(payload);
}

Result<VerdictReply> TcpClient::QueryItem(table::ItemId item) {
  RICD_ASSIGN_OR_RETURN(const std::string payload,
                        RoundTrip(EncodeQueryItem(item)));
  return DecodeVerdict(payload);
}

Result<VerdictReply> TcpClient::QueryPair(table::UserId user,
                                          table::ItemId item) {
  RICD_ASSIGN_OR_RETURN(const std::string payload,
                        RoundTrip(EncodeQueryPair(user, item)));
  return DecodeVerdict(payload);
}

Result<IngestAck> TcpClient::Ingest(
    const std::vector<table::ClickRecord>& records) {
  RICD_ASSIGN_OR_RETURN(const std::string payload,
                        RoundTrip(EncodeIngest(records)));
  return DecodeIngestAck(payload);
}

Result<StatsReply> TcpClient::Stats() {
  RICD_ASSIGN_OR_RETURN(const std::string payload, RoundTrip(EncodeStats()));
  return DecodeStatsReply(payload);
}

Result<std::string> TcpClient::Metrics() {
  RICD_ASSIGN_OR_RETURN(const std::string payload,
                        RoundTrip(EncodeMetricsRequest()));
  return DecodeMetricsReply(payload);
}

}  // namespace ricd::serve
