#ifndef RICD_SERVE_SERVER_H_
#define RICD_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "serve/detection_service.h"
#include "serve/protocol.h"

namespace ricd::serve {

/// Dependency-free POSIX TCP front end for a DetectionService. One acceptor
/// loop (poll()-based so shutdown is prompt) hands accepted connections to a
/// fixed handler pool; each connection speaks the length-prefixed protocol
/// from protocol.h, one request frame -> one response frame.
///
/// QUERY requests are answered on the handler thread straight from the
/// wait-free snapshot; INGEST batches are pushed record-by-record into the
/// service queue, and partial acceptance is reported per batch (accepted /
/// rejected counts) so backpressure is visible to the client rather than
/// silently dropped.
class TcpServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (query the
    /// bound one with port() after Start()).
    uint16_t port = 0;

    /// Handler threads == max concurrently served connections; further
    /// accepted connections wait in the pool queue.
    size_t handler_threads = 4;
  };

  TcpServer(DetectionService* service, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the acceptor. Not idempotent.
  Status Start();

  /// Stops accepting, unblocks handlers and joins all server threads.
  /// Idempotent.
  void Stop();

  /// Port actually bound (== options.port unless that was 0).
  uint16_t port() const { return port_; }

  uint64_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);  // order: monotonic stat read; exactness not required
  }

  /// Serves one request payload, returning the response frame. This is the
  /// full per-request path — request-id assignment, deterministic latency
  /// sampling, latency histograms, protocol dispatch — independent of the
  /// socket transport. Public so the obs-overhead benchmark can drive it
  /// in-process and measure exactly what a connection handler pays.
  /// Thread-safe.
  ///
  /// Telemetry cost model: a request is sampled when its id is a multiple
  /// of 64 while the global MetricsRegistry is enabled. Unsampled requests
  /// (the 63-in-64 majority) pay one id fetch_add and one branch; clock
  /// reads and latency histogram updates happen only on sampled requests,
  /// whose observations estimate the full latency distribution.
  std::string HandleRequest(const std::string& payload);

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  /// Protocol dispatch for one request; a sampled request times itself into
  /// its per-op latency histogram.
  std::string DispatchRequest(const std::string& payload, bool sampled);

  /// Folds requests handled since the last call into the exact
  /// serve.server.requests counter (called on STATS/METRICS reads; the hot
  /// path only bumps request_ids_).
  void SyncRequestCounter();

  DetectionService* const service_;
  const Options options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{true};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> request_ids_{0};
  std::atomic<uint64_t> requests_synced_{0};
  std::unique_ptr<ThreadPool> acceptor_;
  std::unique_ptr<ThreadPool> handlers_;

  obs::Counter* const requests_counter_;
  obs::Counter* const protocol_errors_counter_;
  obs::Histogram* const request_latency_;
  obs::Histogram* const query_latency_;
  obs::Histogram* const ingest_latency_;
};

/// Minimal blocking client for the protocol — used by `ricd_tool client`,
/// the serving benchmark and the end-to-end tests.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient() { Disconnect(); }

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connects to 127.0.0.1:port.
  Status Connect(uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  Status Ping();
  Result<VerdictReply> QueryUser(table::UserId user);
  Result<VerdictReply> QueryItem(table::ItemId item);
  Result<VerdictReply> QueryPair(table::UserId user, table::ItemId item);
  Result<IngestAck> Ingest(const std::vector<table::ClickRecord>& records);
  Result<StatsReply> Stats();

  /// Live text exposition of the server's metrics (METRICS verb); the
  /// returned string is the Prometheus-style body plus `# flight ...`
  /// comment lines for the newest flight-recorder events.
  Result<std::string> Metrics();

 private:
  /// One request frame out, one response payload back.
  Result<std::string> RoundTrip(const std::string& frame);

  int fd_ = -1;
};

/// Frame I/O shared by server and client: writes the whole buffer / reads
/// one length-prefixed frame into `payload` (without the prefix). Both loop
/// over short transfers and fail with IoError on peer close or socket
/// errors; ReadFrame rejects frames larger than kMaxFrameBytes. Exposed for
/// the protocol tests.
Status WriteAll(int fd, const std::string& bytes);
Status ReadFrame(int fd, std::string* payload);

}  // namespace ricd::serve

#endif  // RICD_SERVE_SERVER_H_
