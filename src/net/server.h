/// \file server.h
/// \brief The async network serving front end: a single-threaded epoll
/// event-loop server (net/event_loop.h) speaking the length-prefixed binary
/// protocol (net/protocol.h), multiplexing many client connections onto the
/// existing engine — queries through `QueryEngine::Submit` on the worker
/// pool, update ops through `ApplierPool::TryPush` into the MVCC ingest
/// slices, stats straight off the metrics registry.
///
/// Thread topology (the server owns no thread of its own):
///
///   * the **loop thread** (the caller of Run) owns every Connection and
///     all socket I/O. It never blocks on engine work: query submission
///     uses the executor's shed-when-saturated admission (a saturated pool
///     fast-fails kResourceExhausted instead of parking the loop), and op
///     admission uses the pool's non-blocking TryPush.
///   * the engine's **worker threads** finish queries through the callback
///     form of `QueryEngine::Submit`: the worker that ran a query records
///     `net.request_us`, normalizes and encodes the response frame, and
///     Posts the bytes to the loop. `~Server` waits for every such
///     callback still in flight before the loop dies.
///   * the engine's applier threads, untouched.
///
/// Response order: every request takes the next *slot* on its connection
/// when it is dispatched. Acks, stats and request-level errors fill their
/// slot at once; a query's slot fills when its completion arrives. Only
/// the ready prefix of the slots moves to the out-buffer, so one
/// connection's responses leave in its submission order whatever their
/// kind, while a slow query holds back only its own connection.
///
/// Write path: frames appended to a connection's out-buffer during one
/// loop tick — the reads of that tick, the completions Posted into it,
/// its timers — go out in one `write` per connection at the end of the
/// tick, so pipelined requests still coalesce into one packet. A buffer
/// that crosses `flush_bytes` (COMM_MIN) mid-tick is written at once. A
/// partial write arms EPOLLOUT and the remainder streams out as the
/// socket drains — a slow reader backpressures only its own buffer.
///
/// Read path — per-connection ingest backpressure: when an op's slice
/// queue is full, the op is *parked* on its connection, the connection's
/// EPOLLIN is paused (TCP backpressure propagates to that client alone),
/// and a retry timer re-attempts admission until it succeeds or
/// `push_deadline_ms` elapses — then the client gets a kDeadlineExceeded
/// error frame and reading resumes. A quarantined slice fails fast with
/// kResourceExhausted (retryable after revival) rather than burning the
/// deadline, mirroring ApplierPool::PushWithDeadline.
///
/// Read-your-writes: each connection tracks the highest stream ts it was
/// acked and every subsequent query on that connection carries
/// `QueryOptions::min_applied_ts >= ` that ts (the query frame's own
/// min_applied_ts field can raise the floor further — e.g. a client
/// reading another client's writes). So an ack'd update is visible to the
/// same client's next query, bounded by the engine's ryw timeout.
///
/// Shutdown: a kShutdown frame (or RequestStop) acks kOk, stops accepting,
/// fails parked ops, drains in-flight queries, flushes every connection,
/// then closes everything and returns from Run — the CI smoke job asserts
/// this clean exit.
///
/// Fault points (common/fault.h): `net.accept` drops a just-accepted
/// connection, `net.read` fails a socket read, `net.write` fails a flush
/// write; all three surface as abrupt connection closes, which is exactly
/// what the protocol-robustness suite exercises.

#ifndef GPMV_NET_SERVER_H_
#define GPMV_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "engine/query_engine.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "stream/applier_pool.h"

namespace gpmv {
namespace net {

struct ServerOptions {
  /// TCP port to bind; 0 picks an ephemeral port — `port()` reports the
  /// actual one (tests bind 0 to avoid collisions).
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Mid-tick write cap (COMM_MIN): a connection's out-buffer is written
  /// as soon as it holds this many unsent bytes instead of waiting for the
  /// end of the loop tick.
  size_t flush_bytes = 8 * 1024;
  /// Parked-op admission: retry cadence and total deadline before the
  /// client gets kDeadlineExceeded.
  double push_retry_ms = 1.0;
  double push_deadline_ms = 1000.0;
  /// Accepted connections beyond this are immediately closed.
  size_t max_connections = 1024;
  /// Not owned; nullptr disables the net.* fault points.
  FaultInjector* fault = nullptr;
};

/// See file comment.
class Server {
 public:
  /// `engine` must outlive the server. `pool` may be null — update frames
  /// then fail with kNotSupported (query-only serving).
  Server(QueryEngine* engine, ApplierPool* pool, ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens. After OK, port() is live and Run() will serve.
  Status Start();

  /// Serves until a kShutdown frame or RequestStop; returns only after
  /// every connection is flushed and closed.
  void Run();

  /// Thread-safe, idempotent: makes Run wind down as if a kShutdown frame
  /// had arrived.
  void RequestStop();

  /// Bound port (useful when opts.port was 0). 0 before Start.
  uint16_t port() const { return bound_port_; }

  /// Lifetime accept count (tests).
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameParser parser{/*require_requests=*/true};

    /// Out-buffer: [sent, out.size()) is unsent. `sent` only grows; the
    /// buffer compacts when fully drained.
    std::string out;
    size_t sent = 0;
    bool want_write = false;    ///< EPOLLOUT armed
    bool flush_queued = false;  ///< listed in flush_queue_ for tick end

    /// Response slots (see "Response order") waiting their turn, oldest
    /// first: slots[i] is slot number `slot_base + i` and holds the encoded
    /// frame once ready. The front is never ready (a ready front moves to
    /// `out` at once), so a non-empty deque means a query is in flight.
    std::deque<std::optional<std::string>> slots;
    uint64_t slot_base = 0;

    bool reading_paused = false;
    /// Parked update op (slice queue full): frames decoded behind it stay
    /// inside `parser` until it resolves.
    bool parked = false;
    EdgeUpdate parked_op;
    uint64_t parked_request_id = 0;
    std::chrono::steady_clock::time_point parked_deadline;
    uint64_t retry_timer = 0;

    uint64_t last_update_ts = 0;  ///< read-your-writes floor
    /// Protocol error latched or peer half-closed: close once drained.
    bool draining = false;
  };

  void OnAcceptable();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void ReadFrom(Connection* c);
  void ProcessFrames(Connection* c);
  void Dispatch(Connection* c, const Frame& f);
  void HandleQuery(Connection* c, const Frame& f);
  void HandleUpdate(Connection* c, const Frame& f);
  void HandleStats(Connection* c, const Frame& f);
  void HandleShutdown(Connection* c, const Frame& f);
  /// Parked-op retry tick: re-attempts admission, acks or errors.
  void RetryParked(uint64_t conn_id);
  void FinishParked(Connection* c);

  /// Sends a response frame now, or behind a query still in flight. May
  /// close the connection (a write fault); callers re-look-up.
  void SendFrame(Connection* c, FrameKind kind, Status::Code status,
                 uint64_t request_id, const std::string& payload);
  void SendError(Connection* c, uint64_t request_id, const Status& st);
  /// Moves the ready prefix of the slots to the out-buffer, then
  /// ScheduleWrite. May close the connection.
  void ReleaseReady(Connection* c);
  /// Writes the out-buffer now when it holds `flush_bytes`, else queues
  /// the connection for the tick-end flush. May close the connection.
  void ScheduleWrite(Connection* c);
  /// Writes as much of the out-buffer as the socket takes now.
  void Flush(Connection* c);
  /// Tick-end hook: flushes every connection queued by ReleaseReady.
  void FlushQueued();
  void UpdateReadInterest(Connection* c);
  /// Closes a draining connection once its responses are answered and
  /// written out. May invalidate `c`.
  void MaybeCloseDrained(Connection* c);
  void CloseConn(uint64_t conn_id);

  /// Worker-side completion of a query: records net.request_us, encodes
  /// the response frame and Posts it to the loop.
  void CompleteQuery(uint64_t conn_id, uint64_t slot, uint64_t request_id,
                     std::chrono::steady_clock::time_point submitted,
                     QueryResponse resp);
  /// Loop-side: fills the query's slot and releases what became ready.
  void OnQueryDone(uint64_t conn_id, uint64_t slot, std::string frame,
                   bool is_error);

  void BeginShutdown();
  /// Stops the loop once shutdown started, queries drained, buffers empty.
  void MaybeFinishShutdown();

  QueryEngine* engine_;
  ApplierPool* pool_;
  ServerOptions opts_;

  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  bool started_ = false;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;
  std::atomic<uint64_t> accepted_{0};

  bool shutting_down_ = false;  ///< loop thread only

  /// Connections with unsent bytes to write at the end of this tick.
  std::vector<uint64_t> flush_queue_;

  /// Query completion callbacks submitted but not yet returned; ~Server
  /// waits for zero because they Post into loop_ and record into metrics.
  std::mutex completions_mu_;
  std::condition_variable completions_cv_;
  size_t completions_ = 0;

  /// Stats frames: server-global gapless seq + steady ms since Start, so
  /// a socket-served artifact satisfies the exporter schema checker.
  uint64_t stats_seq_ = 0;
  std::chrono::steady_clock::time_point start_time_;

  /// Metric handles (resolved by name from the engine registry; the names
  /// are registered up front in QueryEngine::InitMetrics so they are
  /// pinned in every exporter artifact).
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_closed_ = nullptr;
  obs::Counter* m_frames_in_ = nullptr;
  obs::Counter* m_frames_out_ = nullptr;
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_updates_ = nullptr;
  obs::Counter* m_protocol_errors_ = nullptr;
  obs::Counter* m_errors_sent_ = nullptr;
  obs::Counter* m_parks_ = nullptr;
  obs::Counter* m_park_deadline_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Counter* m_flushes_ = nullptr;
  obs::Gauge* m_open_conns_ = nullptr;
  obs::Histogram* m_request_us_ = nullptr;
  obs::Histogram* m_flush_bytes_ = nullptr;
};

}  // namespace net
}  // namespace gpmv

#endif  // GPMV_NET_SERVER_H_
