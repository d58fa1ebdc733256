#include "rpc/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace egoist::rpc {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
  }
}

/// poll() for `events` with a deadline; throws RpcError on timeout.
void wait_or_throw(int fd, short events, Clock::time_point deadline,
                   const char* what) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) throw RpcError(std::string(what) + ": timeout");
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd pfd{fd, events, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max<long long>(1, left)));
    if (ready > 0) {
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        throw RpcError(std::string(what) + ": socket error");
      }
      return;  // readable/writable (POLLHUP still lets read() see EOF)
    }
    if (ready < 0 && errno != EINTR) {
      throw RpcError(std::string(what) + ": poll: " + std::strerror(errno));
    }
  }
}

int finish_connect(int fd, double timeout_s, const char* what) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  wait_or_throw(fd, POLLOUT, deadline, what);
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd);
    throw RpcError(std::string(what) + ": connect: " +
                   std::strerror(err != 0 ? err : errno));
  }
  return fd;
}

}  // namespace

Client Client::connect_tcp(const std::string& host, int port,
                           Options options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw RpcError(std::string("socket: ") + std::strerror(errno));
  set_nonblocking(fd, true);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw RpcError("bad TCP host " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    throw RpcError("connect " + host + ":" + std::to_string(port) + ": " +
                   std::strerror(saved));
  }
  finish_connect(fd, options.connect_timeout_s, "connect_tcp");
  return Client(fd, options);
}

Client Client::connect_uds(const std::string& path, Options options) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw RpcError("UDS path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw RpcError(std::string("socket: ") + std::strerror(errno));
  set_nonblocking(fd, true);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS && errno != EAGAIN) {
    const int saved = errno;
    ::close(fd);
    throw RpcError("connect " + path + ": " + std::strerror(saved));
  }
  finish_connect(fd, options.connect_timeout_s, "connect_uds");
  return Client(fd, options);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      next_id_(other.next_id_),
      pending_ids_(std::move(other.pending_ids_)),
      out_(std::move(other.out_)),
      in_(std::move(other.in_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
    next_id_ = other.next_id_;
    pending_ids_ = std::move(other.pending_ids_);
    out_ = std::move(other.out_);
    in_ = std::move(other.in_);
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send_all(const std::uint8_t* data, std::size_t len) {
  if (fd_ < 0) throw RpcError("send on closed client");
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.request_timeout_s));
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // process with SIGPIPE (works for TCP and Unix-domain streams alike).
    const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_or_throw(fd_, POLLOUT, deadline, "send");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw RpcError(std::string("send: ") +
                   (n < 0 ? std::strerror(errno) : "short write"));
  }
}

void Client::recv_frame(wire::FrameHeader& header,
                        std::vector<std::uint8_t>& payload) {
  if (fd_ < 0) throw RpcError("recv on closed client");
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.request_timeout_s));
  std::uint8_t chunk[65536];
  for (;;) {
    const auto hd = wire::decode_header(in_.readable(), options_.max_frame);
    if (hd.status == wire::DecodeStatus::kOk) {
      const std::size_t frame_len = wire::kHeaderSize + hd.header.payload_len;
      if (in_.size() >= frame_len) {
        header = hd.header;
        const auto bytes = in_.readable();
        payload.assign(bytes.begin() + wire::kHeaderSize,
                       bytes.begin() + static_cast<std::ptrdiff_t>(frame_len));
        in_.consume(frame_len);
        return;
      }
    } else if (hd.status != wire::DecodeStatus::kNeedMore) {
      throw RpcError(std::string("protocol error from server: ") +
                     to_string(hd.status));
    }
    wait_or_throw(fd_, POLLIN, deadline, "recv");
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw RpcError("server closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    throw RpcError(std::string("recv: ") + std::strerror(errno));
  }
}

void Client::require_no_outstanding() const {
  if (!pending_ids_.empty()) {
    throw RpcError("blocking call with pipelined responses outstanding");
  }
}

std::uint64_t Client::queue_id() {
  const std::uint64_t id = next_id_++;
  pending_ids_.push_back(id);
  return id;
}

// Each simple call is guard, post, take: one request, one response.

wire::PingResponse Client::ping() {
  require_no_outstanding();
  wire::encode_ping_request(out_, queue_id());
  return std::get<wire::PingResponse>(take(wire::MsgType::kPing));
}

wire::RouteResponse Client::route(std::int32_t src, std::int32_t dst) {
  require_no_outstanding();
  post_route(src, dst);
  return take_route();
}

wire::PathResponse Client::path(std::int32_t src, std::int32_t dst) {
  require_no_outstanding();
  post_path(src, dst);
  return take_path();
}

wire::ScoreResponse Client::score(std::int32_t node) {
  require_no_outstanding();
  post_score(node);
  return take_score();
}

wire::StatsResponse Client::stats() {
  require_no_outstanding();
  wire::encode_stats_request(out_, queue_id());
  return std::get<wire::StatsResponse>(take(wire::MsgType::kStats));
}

wire::BatchRouteResponse Client::route_batch(
    const std::vector<wire::BatchRoutePair>& pairs) {
  require_no_outstanding();
  post_route_batch(pairs);
  return take_route_batch();
}

void Client::post_route(std::int32_t src, std::int32_t dst) {
  wire::encode_route_request(out_, queue_id(), {src, dst});
}

void Client::post_path(std::int32_t src, std::int32_t dst) {
  wire::encode_path_request(out_, queue_id(), {src, dst});
}

void Client::post_score(std::int32_t node) {
  wire::encode_score_request(out_, queue_id(), {node});
}

void Client::post_route_batch(const std::vector<wire::BatchRoutePair>& pairs) {
  wire::encode_batch_route_request(out_, queue_id(), {pairs});
}

void Client::flush() {
  if (out_.empty()) return;
  send_all(out_.data(), out_.size());
  out_.clear();
}

wire::Response Client::take(wire::MsgType expected_type) {
  if (pending_ids_.empty()) {
    throw RpcError("take with no outstanding request");
  }
  flush();  // implicit: taking forces the queued frames onto the wire
  const std::uint64_t id = pending_ids_.front();
  pending_ids_.pop_front();
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
  recv_frame(header, payload);
  if (header.request_id != id) {
    throw RpcError("response id mismatch: expected " + std::to_string(id) +
                   ", got " + std::to_string(header.request_id));
  }
  auto decoded = wire::decode_response(header, payload);
  if (decoded.status != wire::DecodeStatus::kOk) {
    throw RpcError(std::string("bad response payload: ") +
                   to_string(decoded.status));
  }
  if (const auto* err = std::get_if<wire::ErrorResponse>(&decoded.response)) {
    throw RemoteError(err->code, err->message);
  }
  if (header.type != expected_type) {
    throw RpcError("response type mismatch");
  }
  return std::move(decoded.response);
}

wire::RouteResponse Client::take_route() {
  return std::get<wire::RouteResponse>(take(wire::MsgType::kRoute));
}

wire::PathResponse Client::take_path() {
  return std::get<wire::PathResponse>(take(wire::MsgType::kPath));
}

wire::ScoreResponse Client::take_score() {
  return std::get<wire::ScoreResponse>(take(wire::MsgType::kScore));
}

wire::BatchRouteResponse Client::take_route_batch() {
  return std::get<wire::BatchRouteResponse>(take(wire::MsgType::kBatchRoute));
}

}  // namespace egoist::rpc
