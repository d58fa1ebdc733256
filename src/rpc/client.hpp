// rpc::Client — a small blocking wire-protocol client.
//
// Used by the tests and the serve_remote bench; one instance per thread
// (no internal locking). Two usage styles:
//
//   simple   route()/path()/score()/stats()/ping()/route_batch() — one
//            request, one response, blocking with the per-call request
//            timeout. Refused (RpcError) while pipelined responses are
//            outstanding; otherwise a post followed by a take.
//   pipelined post_route()/post_path()/post_score()/post_route_batch()
//            queue frames into an outbound buffer; flush() writes them in
//            one burst; then take_route()/take_path()/take_score()/
//            take_route_batch() consume the responses in post order. The
//            server answers a pipelined batch off one pinned snapshot, so
//            the batch's answers are mutually consistent. Per-request
//            latency is measured by stamping at flush() and at each
//            take_*() — see bench/serve_remote.
//
// take() is the one place a response is read: its request_id must match
// the oldest outstanding request (responses arrive in order on one
// connection); a mismatch, a decode error, a type mismatch, a timeout, or
// a server ERROR frame throws RpcError. The client never blocks forever:
// all socket waits go through poll(2) with the configured timeout.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "rpc/byte_queue.hpp"
#include "wire/protocol.hpp"

namespace egoist::rpc {

class RpcError : public std::runtime_error {
 public:
  explicit RpcError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when the server answered with an ERROR frame.
class RemoteError : public RpcError {
 public:
  RemoteError(std::uint16_t code, const std::string& message)
      : RpcError("remote error " + std::to_string(code) + ": " + message),
        code_(code) {}
  std::uint16_t code() const { return code_; }

 private:
  std::uint16_t code_;
};

class Client {
 public:
  struct Options {
    double connect_timeout_s = 5.0;
    double request_timeout_s = 5.0;
    std::size_t max_frame = wire::kDefaultMaxFrame;
  };

  /// Connects over TCP (loopback in all current uses).
  static Client connect_tcp(const std::string& host, int port,
                            Options options);
  static Client connect_tcp(const std::string& host, int port) {
    return connect_tcp(host, port, Options{});
  }
  /// Connects over a Unix-domain socket.
  static Client connect_uds(const std::string& path, Options options);
  static Client connect_uds(const std::string& path) {
    return connect_uds(path, Options{});
  }

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  void close();
  bool connected() const { return fd_ >= 0; }

  // --- simple blocking calls ---
  wire::PingResponse ping();
  wire::RouteResponse route(std::int32_t src, std::int32_t dst);
  wire::PathResponse path(std::int32_t src, std::int32_t dst);
  wire::ScoreResponse score(std::int32_t node);
  wire::StatsResponse stats();
  /// Many ROUTE lookups in one frame: one header decode and one send on
  /// each side however many pairs ride along (wire v2, BATCH_ROUTE).
  wire::BatchRouteResponse route_batch(
      const std::vector<wire::BatchRoutePair>& pairs);

  // --- pipelined calls ---
  /// Queues a request frame without writing to the socket yet.
  void post_route(std::int32_t src, std::int32_t dst);
  void post_path(std::int32_t src, std::int32_t dst);
  void post_score(std::int32_t node);
  void post_route_batch(const std::vector<wire::BatchRoutePair>& pairs);
  /// Writes every queued frame to the socket (one burst).
  void flush();
  /// Blocking read of the next pipelined response, which must be of the
  /// matching type and carry the next outstanding request id.
  wire::RouteResponse take_route();
  wire::PathResponse take_path();
  wire::ScoreResponse take_score();
  wire::BatchRouteResponse take_route_batch();
  /// Requests posted (or sent) whose responses have not been taken yet.
  std::size_t outstanding() const { return pending_ids_.size(); }

 private:
  Client(int fd, Options options) : fd_(fd), options_(options) {}

  void send_all(const std::uint8_t* data, std::size_t len);
  /// Reads exactly one frame into header/payload; throws on timeout,
  /// decode error, or EOF.
  void recv_frame(wire::FrameHeader& header,
                  std::vector<std::uint8_t>& payload);
  /// The simple calls' guard: throws RpcError while pipelined responses
  /// are outstanding.
  void require_no_outstanding() const;
  /// Allocates the next request id and records it as outstanding.
  std::uint64_t queue_id();
  /// Flushes, then reads, id-checks, decodes and type-checks the oldest
  /// outstanding response (ERROR frames throw RemoteError).
  wire::Response take(wire::MsgType expected_type);

  int fd_ = -1;
  Options options_;
  std::uint64_t next_id_ = 1;
  std::deque<std::uint64_t> pending_ids_;  ///< pipelined ids, FIFO
  std::vector<std::uint8_t> out_;  ///< pipelined frames awaiting flush()
  ByteQueue in_;
};

}  // namespace egoist::rpc
