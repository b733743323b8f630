// The `hydra serve` daemon core: a TCP listener on loopback that answers
// framed protocol requests (serve/protocol.h) against one opened
// SearchMethod. Request flow:
//
//     acceptor thread ──> one reader thread per connection
//         reader: frame decode -> validate -> admission control
//             admitted  ──> util::ThreadPool worker: cache lookup ->
//                           Execute -> cache insert -> answer frame
//             refused   ──> RESOURCE_EXHAUSTED error frame, immediately
//     STATS / PING answered inline by the reader (cheap, never queued)
//
// Admission control bounds the in-flight query count (`max_inflight`):
// overload is answered with an explicit rejection frame instead of
// unbounded queueing, so client-observed latency stays honest. Shutdown
// drains: admitted queries finish, new ones are refused, then sockets
// close. Reload swaps the served method atomically without dropping the
// listener — in-flight queries keep the old index alive via shared_ptr.
#ifndef HYDRA_SERVE_SERVER_H_
#define HYDRA_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/method.h"
#include "io/index_codec.h"
#include "obs/flight_recorder.h"
#include "serve/answer_cache.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hydra::serve {

struct ServerOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
  /// readable from Server::port() after Start.
  uint16_t port = 0;
  /// Worker threads executing admitted queries.
  size_t serve_threads = 1;
  /// Answer-cache byte budget; 0 disables caching.
  size_t cache_bytes = size_t{64} << 20;
  /// Admission-control bound: queries admitted (queued or executing) at
  /// once. Arrivals beyond it get a RESOURCE_EXHAUSTED frame.
  size_t max_inflight = 64;
  /// Test seam: when set, workers call it right before executing a query
  /// (after admission). Tests block it on a latch to hold queries
  /// in-flight deterministically and observe admission rejections.
  std::function<void()> execute_hook;
};

/// One serving daemon. Start binds and spawns threads; Shutdown (or the
/// destructor) drains and joins everything. Not restartable — one Server
/// per listening lifetime.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:port and starts serving `method` (already built or
  /// opened) over `data`. `data` must outlive the server; `method` is
  /// shared so Reload can swap it while old queries finish. Returns an
  /// error Status when the socket cannot be bound (port in use, ...).
  util::Status Start(std::shared_ptr<core::SearchMethod> method,
                     const core::Dataset* data);

  /// The port actually bound (== options.port unless that was 0).
  uint16_t port() const { return port_; }

  /// Swaps the served method (same dataset) without dropping the
  /// listener: the SIGHUP re-open path. In-flight queries finish on the
  /// instance they started with; the answer cache stays valid because the
  /// dataset fingerprint — the cache key's dataset component — is
  /// unchanged and exact answers do not depend on the index instance.
  void Reload(std::shared_ptr<core::SearchMethod> method);

  /// Graceful drain: stop admitting, close the listener, wait for
  /// in-flight queries to finish, close connections, join all threads.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// The STATS reply document (also what a kStats frame answers with).
  std::string StatsJson() const;

  AnswerCache::Counters cache_counters() const { return cache_.counters(); }

 private:
  /// One client connection: the socket plus a write lock so worker
  /// responses and reader error frames never interleave mid-frame.
  /// Closing the fd is left to the destructor — the last holder
  /// (reader thread or a still-running worker task) closes it.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    const int fd;
    std::mutex write_mutex;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Reader-exit cleanup: EOF the peer and forget the connection (a
  /// long-lived daemon must not hold dead sockets until shutdown).
  void DropConnection(const std::shared_ptr<Connection>& conn);
  /// Handles one decoded frame; false closes the connection.
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  /// Runs one admitted query on a pool worker and answers it.
  /// `decode_seconds` is the reader-side decode+validate wall time, folded
  /// into the request's flight record as its first phase.
  void ExecuteQuery(const std::shared_ptr<Connection>& conn,
                    const QueryRequest& request, double admitted_at,
                    double decode_seconds);
  void SendFrame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void SendError(const std::shared_ptr<Connection>& conn, ErrorCode code,
                 const std::string& message);

  const ServerOptions options_;
  AnswerCache cache_;
  ServerMetrics metrics_;
  /// Slow-query log: phase-timed records of the slowest requests answered,
  /// surfaced in the STATS reply ("slow_queries").
  obs::FlightRecorder recorder_;

  const core::Dataset* data_ = nullptr;
  io::DatasetFingerprint fingerprint_;
  core::MethodTraits traits_;
  std::string method_name_;
  /// The served index; swapped whole by Reload. Workers snapshot the
  /// shared_ptr under method_mutex_ and execute on their copy.
  std::shared_ptr<core::SearchMethod> method_;
  mutable std::mutex method_mutex_;
  /// Serializes Execute for methods whose traits lack kConcurrentQueries
  /// (ADS+ mutates its structure while answering).
  std::mutex exec_mutex_;

  std::unique_ptr<util::ThreadPool> pool_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  bool started_ = false;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;

  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  size_t inflight_ = 0;
  bool stopping_ = false;

  /// Wall clock since Start, for admission-to-answer latency stamps.
  util::WallTimer clock_;
};

}  // namespace hydra::serve

#endif  // HYDRA_SERVE_SERVER_H_
