// rpc::Server — the socket front end of the serving stack.
//
// N independent poll(2)-driven event loops (Options::loops) share one
// host::RouteService. Each loop owns its thread, pollfd set, connection
// table, and counters — loops never touch each other's connections, so
// there is no cross-loop locking on the hot path. There is one accept
// path for both transports: loop 0 owns the TCP and the UDS listener and
// round-robins every accepted fd over the loops, handing a peer's share
// through a mutex-guarded inbox plus that loop's self-pipe wakeup.
// RouteService::acquire()/route()/path()/score() are safe from any thread
// by contract, so all loops serve concurrently with the host thread
// driving epochs — exactly the deployment egoistd runs.
//
// Per connection: nonblocking fd, an inbound ByteQueue socket reads drain
// into, an outbound ByteQueue responses are encoded into, and a
// last-activity stamp for the idle timeout. Dispatch is pipelined: every
// complete frame buffered on a connection is decoded in one batch, ONE
// ServedSnapshot is pinned for the whole batch (one refcount round-trip
// however deep the client pipelines), answers are encoded back-to-back
// into a per-loop scratch arena, and the flush gathers [outbound backlog,
// fresh answers] through one sendmsg (writev with MSG_NOSIGNAL) — a
// BATCH_ROUTE frame therefore costs one header decode and one syscall
// regardless of how many lookups it carries.
//
// Malformed input follows the codec's two severity levels: a payload that
// fails to decode for a valid header gets an ERROR(kBadRequest) response
// and the connection lives on (framing is intact); header-level garbage
// (bad magic/version/type/flags/oversized length) gets a best-effort
// ERROR(kMalformedFrame) and the connection is closed after the flush —
// resynchronizing a corrupt byte stream is guesswork. Both count toward
// decode_errors.
//
// Stats are per-loop atomics; stats() sums them with acquire loads, so
// the aggregate is exact once the loops have joined and a monotonic lower
// bound while they run. STATS responses carry both the aggregate (the
// frozen 22-field prefix v1 clients parse) and the per-loop breakdown
// appended by wire v2.
//
// Shutdown is graceful: stop() (thread-safe, idempotent) wakes every
// loop; loop 0 closes the listeners, each loop keeps flushing already-queued
// responses until they drain or Options::drain_deadline expires, closes
// its connections, and exits. egoistd follows with RouteService::drain()
// to prove no snapshot leaked.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "host/route_service.hpp"
#include "rpc/byte_queue.hpp"
#include "wire/protocol.hpp"

namespace egoist::rpc {

struct ServerOptions {
  /// TCP listener; port 0 binds an ephemeral port (read it back via
  /// tcp_port()), port < 0 disables TCP.
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// Unix-domain listener; empty disables. The path is unlinked first
  /// (stale socket files from a crashed daemon) and again on shutdown.
  std::string uds_path;
  /// Per-frame payload bound enforced before any payload is buffered.
  std::size_t max_frame = wire::kDefaultMaxFrame;
  /// Connections idle longer than this are closed; <= 0 disables.
  double idle_timeout_s = 60.0;
  /// How long stop() keeps flushing queued responses before closing.
  double drain_deadline_s = 2.0;
  /// Connection cap, split evenly across loops (excess accepts are
  /// closed).
  int max_connections = 512;
  /// Event loops. 1 = the classic single loop; 0 = one per hardware
  /// thread; clamped to [1, 64].
  int loops = 1;
};

/// Event-loop counters, readable from any thread while the loops run.
/// Aggregates are exact after stop(); while serving they are a monotonic
/// lower bound (each loop's counters advance independently).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t error_responses = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t batches = 0;  ///< dispatch batches == snapshot pins
};

class Server {
 public:
  /// Binds the listeners immediately (so tcp_port() is valid before
  /// start()) but serves nothing until start(). Throws std::runtime_error
  /// when neither listener is configured or a bind fails.
  Server(host::RouteService& service, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns one event-loop thread per configured loop. Idempotent.
  void start();

  /// Graceful shutdown: stop accepting, drain queued responses under the
  /// deadline, close everything, join every loop thread. Idempotent; safe
  /// from any thread (including a signal-watcher thread, NOT a handler).
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (after construction), or -1 when TCP is disabled.
  int tcp_port() const { return bound_tcp_port_; }
  const std::string& uds_path() const { return options_.uds_path; }

  /// Resolved loop count (Options::loops after the 0 = auto expansion).
  int loops() const { return static_cast<int>(loops_.size()); }

  /// Aggregate across all loops (acquire loads, summed).
  ServerStats stats() const;
  /// One entry per loop, in loop order.
  std::vector<ServerStats> per_loop_stats() const;

 private:
  struct Conn {
    int fd = -1;
    ByteQueue in;
    ByteQueue out;
    std::chrono::steady_clock::time_point last_activity;
    bool closing = false;  ///< close once `out` drains (framing corrupt)
  };

  struct AtomicStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_active{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> error_responses{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> batches{0};
  };

  /// Everything one event loop owns. Loops are heap-pinned (unique_ptr)
  /// because they hold atomics, a mutex, and a thread.
  struct Loop {
    std::size_t index = 0;
    int wake_fds[2] = {-1, -1};  ///< self-pipe: stop()/handoffs wake poll
    std::thread thread;
    std::vector<Conn> conns;
    std::mutex inbox_mutex;
    std::vector<int> inbox;  ///< accepted fds handed off by loop 0
    AtomicStats counters;
    std::vector<std::uint8_t> scratch;  ///< batch answers, sendmsg-gathered
  };

  void loop_run(Loop& loop);
  void wake(Loop& loop);
  /// Takes ownership of a freshly-accepted fd on this loop (cap check,
  /// nonblocking + TCP_NODELAY, counter bump).
  void adopt_conn(Loop& loop, int fd);
  /// Accepts everything pending on a listener and deals the fds out
  /// round-robin over the loops (loop 0's thread only).
  void accept_ready(Loop& loop, int listen_fd);
  void close_listeners();
  /// Moves fds parked in the inbox into this loop's connection table.
  void drain_inbox(Loop& loop);
  /// Reads everything available; returns false when the peer closed or a
  /// fatal error occurred.
  bool read_ready(Loop& loop, Conn& conn);
  /// Decodes + answers every complete frame in conn.in (one snapshot
  /// pin), then flushes backlog + answers in one gathered sendmsg.
  /// Returns false on fatal write error.
  bool dispatch(Loop& loop, Conn& conn);
  /// Encodes an ERROR answer into `out` and counts it (error_responses).
  void reply_error(Loop& loop, std::vector<std::uint8_t>& out,
                   std::uint64_t id, wire::ErrorCode code,
                   std::string message);
  /// Encodes the answer to one in-range request into `out`.
  void answer(Loop& loop, const host::ServedSnapshot& pinned,
              std::uint64_t id, const wire::Request& request,
              std::vector<std::uint8_t>& out);
  /// The one write path: writes conn.out, then `extra`, with one sendmsg
  /// per round, as far as the socket accepts; unsent `extra` bytes are
  /// queued onto conn.out. False on fatal error.
  bool flush_gather(Loop& loop, Conn& conn,
                    std::span<const std::uint8_t> extra);
  void close_conn(Loop& loop, std::size_t index);
  void drain_and_close_all(Loop& loop);
  std::size_t per_loop_conn_cap() const;
  /// Adds one loop's counters into `into` (acquire loads).
  static void accumulate(const AtomicStats& counters, ServerStats& into);

  host::RouteService* service_;
  ServerOptions options_;
  int bound_tcp_port_ = -1;
  std::vector<int> listen_fds_;  ///< TCP and/or UDS; polled by loop 0
  std::vector<std::unique_ptr<Loop>> loops_;
  std::size_t accept_rr_ = 0;  ///< round-robin cursor; loop 0's thread only
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool stopped_ = false;  ///< guarded by stop_mutex_
  std::mutex stop_mutex_;
};

}  // namespace egoist::rpc
