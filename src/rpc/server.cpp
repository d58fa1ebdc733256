#include "rpc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace egoist::rpc {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("rpc::Server: " + what + ": " +
                           std::strerror(errno));
}

/// bind + listen + nonblocking for either listener; closes the socket and
/// throws on failure.
void bind_and_listen(int fd, const sockaddr* addr, socklen_t len, int backlog,
                     const std::string& where) {
  if (::bind(fd, addr, len) != 0) {
    ::close(fd);
    throw_errno("bind(" + where + ")");
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    throw_errno("listen(" + where + ")");
  }
  set_nonblocking(fd);
}

/// The TCP listener, on loop 0 like the UDS one. Port 0 binds an
/// ephemeral port; the resolved port comes back through bound_port.
int make_tcp_listener(const std::string& host, int port, int backlog,
                      int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("rpc::Server: bad TCP host " + host);
  }
  bind_and_listen(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                  backlog, host + ":" + std::to_string(port));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int make_uds_listener(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("rpc::Server: UDS path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  bind_and_listen(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                  backlog, path);
  return fd;
}

/// The one node-id range check, ahead of the per-type dispatch: nullptr
/// when every id the request names lies in [0, n), else the kOutOfRange
/// message. BATCH_ROUTE is all-or-nothing: a partial answer would misalign
/// the packed entries with the request's pair order.
const char* out_of_range(const wire::Request& request, std::int32_t n) {
  const auto in_range = [n](std::int32_t id) { return id >= 0 && id < n; };
  return std::visit(
      [&](const auto& req) -> const char* {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, wire::RouteRequest> ||
                      std::is_same_v<T, wire::PathRequest>) {
          if (!in_range(req.src) || !in_range(req.dst)) {
            return "node id out of range";
          }
        } else if constexpr (std::is_same_v<T, wire::ScoreRequest>) {
          if (!in_range(req.node)) return "node id out of range";
        } else if constexpr (std::is_same_v<T, wire::BatchRouteRequest>) {
          for (const auto& pair : req.pairs) {
            if (!in_range(pair.src) || !in_range(pair.dst)) {
              return "node id out of range in batch";
            }
          }
        }
        return nullptr;
      },
      request);
}

}  // namespace

Server::Server(host::RouteService& service, ServerOptions options)
    : service_(&service), options_(std::move(options)) {
  if (options_.tcp_port < 0 && options_.uds_path.empty()) {
    throw std::runtime_error(
        "rpc::Server: no listener configured (need tcp_port >= 0 or a "
        "uds_path)");
  }
  options_.max_frame = std::min(options_.max_frame, wire::kMaxFrameLimit);
  int loop_count = options_.loops;
  if (loop_count == 0) {
    loop_count = static_cast<int>(std::thread::hardware_concurrency());
  }
  loop_count = std::clamp(loop_count, 1, 64);

  loops_.reserve(static_cast<std::size_t>(loop_count));
  for (int i = 0; i < loop_count; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = static_cast<std::size_t>(i);
    loops_.push_back(std::move(loop));
  }
  if (options_.tcp_port >= 0) {
    listen_fds_.push_back(make_tcp_listener(options_.tcp_host,
                                            options_.tcp_port,
                                            options_.max_connections,
                                            bound_tcp_port_));
  }
  if (!options_.uds_path.empty()) {
    listen_fds_.push_back(
        make_uds_listener(options_.uds_path, options_.max_connections));
  }
  for (auto& loop : loops_) {
    if (::pipe(loop->wake_fds) != 0) throw_errno("pipe");
    set_nonblocking(loop->wake_fds[0]);
    set_nonblocking(loop->wake_fds[1]);
  }
}

Server::~Server() {
  stop();
  close_listeners();  // never started: loop 0 did not close them
  for (auto& loop : loops_) {
    for (const int fd : loop->wake_fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
}

void Server::start() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (loops_[0]->thread.joinable() || stopped_) return;
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { loop_run(*raw); });
  }
}

void Server::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  stop_requested_.store(true, std::memory_order_release);
  for (auto& loop : loops_) wake(*loop);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Loop 0 may have parked a handoff in an inbox right before its
  // target observed the stop flag; with every thread joined, whatever is
  // left can only be closed here.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> inbox_lock(loop->inbox_mutex);
    for (const int fd : loop->inbox) ::close(fd);
    loop->inbox.clear();
  }
  running_.store(false, std::memory_order_release);
}

void Server::wake(Loop& loop) {
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(loop.wake_fds[1], &byte, 1);
}

void Server::close_listeners() {
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
}

void Server::accumulate(const AtomicStats& c, ServerStats& into) {
  // Acquire loads pair with the (relaxed) increments' position in each
  // loop thread's program order at join time: after stop() the sums are
  // exact, while serving they are a consistent monotonic lower bound.
  into.connections_accepted +=
      c.connections_accepted.load(std::memory_order_acquire);
  into.connections_active +=
      c.connections_active.load(std::memory_order_acquire);
  into.frames_in += c.frames_in.load(std::memory_order_acquire);
  into.frames_out += c.frames_out.load(std::memory_order_acquire);
  into.decode_errors += c.decode_errors.load(std::memory_order_acquire);
  into.error_responses += c.error_responses.load(std::memory_order_acquire);
  into.idle_closed += c.idle_closed.load(std::memory_order_acquire);
  into.bytes_in += c.bytes_in.load(std::memory_order_acquire);
  into.bytes_out += c.bytes_out.load(std::memory_order_acquire);
  into.batches += c.batches.load(std::memory_order_acquire);
}

ServerStats Server::stats() const {
  ServerStats total;
  for (const auto& loop : loops_) accumulate(loop->counters, total);
  return total;
}

std::vector<ServerStats> Server::per_loop_stats() const {
  std::vector<ServerStats> out(loops_.size());
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    accumulate(loops_[i]->counters, out[i]);
  }
  return out;
}

std::size_t Server::per_loop_conn_cap() const {
  const auto cap = static_cast<std::size_t>(
      std::max(1, options_.max_connections));
  return std::max<std::size_t>(1, cap / loops_.size());
}

void Server::adopt_conn(Loop& loop, int fd) {
  if (loop.conns.size() >= per_loop_conn_cap()) {
    ::close(fd);
    return;
  }
  set_nonblocking(fd);
  const int one = 1;
  // No-op (ENOTSUP/EOPNOTSUPP) on UDS fds; essential on TCP so small
  // pipelined frames never park behind Nagle.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Conn conn;
  conn.fd = fd;
  conn.last_activity = std::chrono::steady_clock::now();
  loop.conns.push_back(std::move(conn));
  loop.counters.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  loop.counters.connections_active.store(loop.conns.size(),
                                         std::memory_order_relaxed);
}

void Server::accept_ready(Loop& loop, int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the listener stays armed
    }
    // One accept path for TCP and UDS alike: round-robin every fd over
    // the loops; a peer's share goes through its inbox and a wake.
    const std::size_t target = accept_rr_++ % loops_.size();
    if (target == loop.index) {
      adopt_conn(loop, fd);
      continue;
    }
    Loop& peer = *loops_[target];
    {
      std::lock_guard<std::mutex> inbox_lock(peer.inbox_mutex);
      peer.inbox.push_back(fd);
    }
    wake(peer);
  }
}

void Server::drain_inbox(Loop& loop) {
  std::vector<int> handoff;
  {
    std::lock_guard<std::mutex> inbox_lock(loop.inbox_mutex);
    handoff.swap(loop.inbox);
  }
  for (const int fd : handoff) adopt_conn(loop, fd);
}

bool Server::read_ready(Loop& loop, Conn& conn) {
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
      loop.counters.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
      conn.last_activity = std::chrono::steady_clock::now();
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      // Socket may hold more; cap one connection's share of the loop so a
      // firehose peer cannot starve the rest.
      if (conn.in.size() > options_.max_frame + (1u << 20)) return true;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool Server::dispatch(Loop& loop, Conn& conn) {
  if (conn.closing) return true;
  // Collect every complete frame first, then answer the batch off ONE
  // pinned snapshot — the pipelining contract: a client that stuffs K
  // requests into one write gets K answers that are mutually consistent
  // (same publication) for the cost of a single acquire().
  struct Pending {
    std::uint64_t id;
    wire::Request request;
  };
  std::vector<Pending> batch;
  for (;;) {
    const auto bytes = conn.in.readable();
    const auto hd = wire::decode_header(bytes, options_.max_frame);
    if (hd.status == wire::DecodeStatus::kNeedMore) break;
    if (hd.status != wire::DecodeStatus::kOk) {
      // Header-level garbage: framing is lost, answer once and hang up.
      loop.counters.decode_errors.fetch_add(1, std::memory_order_relaxed);
      reply_error(loop, conn.out.tail(), hd.header.request_id,
                  wire::ErrorCode::kMalformedFrame,
                  std::string("malformed frame: ") + to_string(hd.status));
      loop.counters.frames_out.fetch_add(1, std::memory_order_relaxed);
      conn.in.clear();
      conn.closing = true;
      break;
    }
    const std::size_t frame_len = wire::kHeaderSize + hd.header.payload_len;
    if (bytes.size() < frame_len) break;  // payload still in flight
    const auto payload = bytes.subspan(wire::kHeaderSize,
                                       hd.header.payload_len);
    auto decoded = wire::decode_request(hd.header, payload);
    if (decoded.status != wire::DecodeStatus::kOk) {
      // Payload-level breakage: framing is intact, the connection lives.
      loop.counters.decode_errors.fetch_add(1, std::memory_order_relaxed);
      reply_error(
          loop, conn.out.tail(), hd.header.request_id,
          wire::ErrorCode::kBadRequest,
          std::string("bad request payload: ") + to_string(decoded.status));
      loop.counters.frames_out.fetch_add(1, std::memory_order_relaxed);
      conn.in.consume(frame_len);
      continue;
    }
    loop.counters.frames_in.fetch_add(1, std::memory_order_relaxed);
    batch.push_back({hd.header.request_id, std::move(decoded.request)});
    conn.in.consume(frame_len);
  }
  if (batch.empty()) return true;

  loop.counters.batches.fetch_add(1, std::memory_order_relaxed);
  const host::ServedSnapshot pinned = service_->acquire();
  const auto& snap = pinned.snapshot();
  const auto n = static_cast<std::int32_t>(snap.size());
  // Answers land in the loop's scratch arena (errors discovered during
  // the scan above are already in conn.out, ahead of them — the same
  // ordering the single-buffer dispatch produced); the flush below
  // gathers [conn.out backlog, scratch] through one sendmsg.
  auto& out = loop.scratch;
  out.clear();

  for (const auto& pending : batch) {
    const std::uint64_t id = pending.id;
    if (const char* why = out_of_range(pending.request, n)) {
      reply_error(loop, out, id, wire::ErrorCode::kOutOfRange, why);
    } else {
      answer(loop, pinned, id, pending.request, out);
    }
    loop.counters.frames_out.fetch_add(1, std::memory_order_relaxed);
  }
  return flush_gather(loop, conn, loop.scratch);
}

void Server::reply_error(Loop& loop, std::vector<std::uint8_t>& out,
                         std::uint64_t id, wire::ErrorCode code,
                         std::string message) {
  loop.counters.error_responses.fetch_add(1, std::memory_order_relaxed);
  wire::encode_error_response(
      out, id, {static_cast<std::uint16_t>(code), std::move(message)});
}

void Server::answer(Loop& loop, const host::ServedSnapshot& pinned,
                    std::uint64_t id, const wire::Request& request,
                    std::vector<std::uint8_t>& out) {
  const auto& snap = pinned.snapshot();
  std::visit(
      [&](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, wire::PingRequest>) {
          wire::PingResponse resp;
          resp.node_count = static_cast<std::uint32_t>(snap.size());
          resp.epoch = snap.epoch();
          resp.publish_seq = pinned.publish_seq();
          wire::encode_ping_response(out, id, resp);
        } else if constexpr (std::is_same_v<T, wire::RouteRequest>) {
          const auto answer = pinned.route(req.src, req.dst);
          wire::RouteResponse resp;
          resp.reachable = answer.reachable ? 1 : 0;
          resp.next_hop = answer.next_hop;
          resp.cost = answer.cost;
          resp.epoch = answer.epoch;
          resp.publish_seq = answer.publish_seq;
          wire::encode_route_response(out, id, resp);
        } else if constexpr (std::is_same_v<T, wire::BatchRouteRequest>) {
          // The response must itself fit in a frame the peer will
          // accept: 16 fixed bytes + 13 per entry against max_frame.
          const std::uint64_t response_payload =
              16 + std::uint64_t{req.pairs.size()} * 13;
          if (response_payload > options_.max_frame) {
            reply_error(loop, out, id, wire::ErrorCode::kBadRequest,
                        "batch response would exceed max frame");
            return;
          }
          wire::BatchRouteResponse resp;
          resp.epoch = pinned.epoch();
          resp.publish_seq = pinned.publish_seq();
          resp.entries.reserve(req.pairs.size());
          for (const auto& pair : req.pairs) {
            const auto answer = pinned.route(pair.src, pair.dst);
            wire::BatchRouteEntry entry;
            entry.reachable = answer.reachable ? 1 : 0;
            entry.next_hop = answer.next_hop;
            entry.cost = answer.cost;
            resp.entries.push_back(entry);
          }
          wire::encode_batch_route_response(out, id, resp);
        } else if constexpr (std::is_same_v<T, wire::PathRequest>) {
          const auto answer = pinned.path(req.src, req.dst);
          wire::PathResponse resp;
          resp.reachable = answer.reachable ? 1 : 0;
          resp.cost = answer.cost;
          resp.epoch = answer.epoch;
          resp.publish_seq = answer.publish_seq;
          resp.hops.assign(answer.nodes.begin(), answer.nodes.end());
          wire::encode_path_response(out, id, resp);
        } else if constexpr (std::is_same_v<T, wire::ScoreRequest>) {
          wire::ScoreResponse resp;
          resp.score = pinned.score(req.node);
          resp.epoch = pinned.epoch();
          resp.publish_seq = pinned.publish_seq();
          wire::encode_score_response(out, id, resp);
        } else if constexpr (std::is_same_v<T, wire::StatsRequest>) {
          const auto service = service_->stats();
          const auto server = stats();
          wire::StatsResponse resp;
          resp.node_count = static_cast<std::uint32_t>(snap.size());
          resp.published_epoch = service.published_epoch;
          resp.publish_seq = pinned.publish_seq();
          resp.queries_route = service.queries_route;
          resp.queries_path = service.queries_path;
          resp.queries_score = service.queries_score;
          resp.stale_served = service.stale_served;
          resp.rows_built = service.rows_built;
          resp.rows_discarded = service.rows_discarded;
          resp.uncached_queries = service.uncached_queries;
          resp.seal_violations = service.seal_violations;
          resp.retired_pending = service.retired_pending;
          resp.connections_accepted = server.connections_accepted;
          resp.connections_active = server.connections_active;
          resp.frames_in = server.frames_in;
          resp.frames_out = server.frames_out;
          resp.decode_errors = server.decode_errors;
          resp.error_responses = server.error_responses;
          resp.idle_closed = server.idle_closed;
          resp.bytes_in = server.bytes_in;
          resp.bytes_out = server.bytes_out;
          resp.batches = server.batches;
          for (const auto& per : per_loop_stats()) {
            wire::PerLoopStats wire_loop;
            wire_loop.connections_accepted = per.connections_accepted;
            wire_loop.connections_active = per.connections_active;
            wire_loop.frames_in = per.frames_in;
            wire_loop.frames_out = per.frames_out;
            wire_loop.bytes_in = per.bytes_in;
            wire_loop.bytes_out = per.bytes_out;
            wire_loop.batches = per.batches;
            resp.per_loop.push_back(wire_loop);
          }
          wire::encode_stats_response(out, id, resp);
        }
      },
      request);
}

bool Server::flush_gather(Loop& loop, Conn& conn,
                          std::span<const std::uint8_t> extra) {
  std::size_t extra_off = 0;
  for (;;) {
    const auto head = conn.out.readable();
    iovec iov[2];
    int iov_count = 0;
    if (!head.empty()) {
      iov[iov_count].iov_base = const_cast<std::uint8_t*>(head.data());
      iov[iov_count].iov_len = head.size();
      ++iov_count;
    }
    if (extra_off < extra.size()) {
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(extra.data() + extra_off);
      iov[iov_count].iov_len = extra.size() - extra_off;
      ++iov_count;
    }
    if (iov_count == 0) return true;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    // sendmsg == writev + flags; MSG_NOSIGNAL keeps a vanished client an
    // EPIPE (we close the connection), not a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      loop.counters.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                        std::memory_order_relaxed);
      conn.last_activity = std::chrono::steady_clock::now();
      std::size_t left = static_cast<std::size_t>(n);
      const std::size_t from_head = std::min(left, head.size());
      if (from_head > 0) conn.out.consume(from_head);
      extra_off += left - from_head;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket is full: park the unsent answers behind the backlog; the
      // loop's POLLOUT pass finishes the job.
      if (extra_off < extra.size()) {
        conn.out.append(extra.data() + extra_off, extra.size() - extra_off);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

void Server::close_conn(Loop& loop, std::size_t index) {
  ::close(loop.conns[index].fd);
  loop.conns.erase(loop.conns.begin() + static_cast<std::ptrdiff_t>(index));
  loop.counters.connections_active.store(loop.conns.size(),
                                         std::memory_order_relaxed);
}

void Server::drain_and_close_all(Loop& loop) {
  // Stop reading, keep flushing: every response already queued gets its
  // chance to leave under the deadline. poll() only watches writability.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(0.0, options_.drain_deadline_s)));
  for (;;) {
    std::vector<pollfd> fds;
    for (const auto& conn : loop.conns) {
      if (!conn.out.empty()) {
        fds.push_back({conn.fd, POLLOUT, 0});
      }
    }
    if (fds.empty()) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const int timeout_ms = static_cast<int>(std::min<std::int64_t>(
        100, std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                   now)
                 .count()));
    const int ready = ::poll(fds.data(), fds.size(),
                             std::max(1, timeout_ms));
    if (ready < 0 && errno != EINTR) break;
    for (std::size_t i = loop.conns.size(); i-- > 0;) {
      if (!loop.conns[i].out.empty() &&
          !flush_gather(loop, loop.conns[i], {})) {
        close_conn(loop, i);
      }
    }
  }
  for (std::size_t i = loop.conns.size(); i-- > 0;) close_conn(loop, i);
}

void Server::loop_run(Loop& loop) {
  std::vector<pollfd> fds;
  // Index map rebuilt every iteration: fds[0] = wake pipe, then this
  // loop's listeners, then one entry per connection.
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({loop.wake_fds[0], POLLIN, 0});
    if (loop.index == 0) {
      for (const int fd : listen_fds_) fds.push_back({fd, POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    for (const auto& conn : loop.conns) {
      short events = 0;
      if (!conn.closing) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
    }

    // Wake at least every 100 ms for the idle sweep.
    const int ready = ::poll(fds.data(), fds.size(), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[0].revents & POLLIN) {
      char scratch[64];
      while (::read(loop.wake_fds[0], scratch, sizeof(scratch)) > 0) {
      }
      // A wake is either stop() (checked at the top) or a handoff from
      // loop 0 — adopt whatever is parked in the inbox.
      drain_inbox(loop);
    }
    for (std::size_t i = 1; i < conn_base; ++i) {
      if (fds[i].revents & POLLIN) accept_ready(loop, fds[i].fd);
    }

    const auto now = std::chrono::steady_clock::now();
    // Sweep only the connections that were polled this iteration —
    // accept_ready/drain_inbox above may have appended fresh ones with no
    // fds entry (they get their first turn next iteration). Downward
    // iteration keeps index i aligned with fds even as close_conn erases.
    const std::size_t polled = fds.size() - conn_base;
    for (std::size_t i = polled; i-- > 0;) {
      auto& conn = loop.conns[i];
      const auto revents = fds[conn_base + i].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        alive = false;  // peer already hung up; nothing left to flush to
      } else {
        if (alive && (revents & POLLIN)) {
          alive = read_ready(loop, conn);
          if (alive) alive = dispatch(loop, conn);
        }
        if (alive && !conn.out.empty()) {
          alive = flush_gather(loop, conn, {});
        }
        if (alive && conn.closing && conn.out.empty()) alive = false;
        if (alive && options_.idle_timeout_s > 0.0 &&
            std::chrono::duration<double>(now - conn.last_activity).count() >
                options_.idle_timeout_s) {
          loop.counters.idle_closed.fetch_add(1, std::memory_order_relaxed);
          alive = false;
        }
      }
      if (!alive) close_conn(loop, i);
    }
  }

  if (loop.index == 0) close_listeners();
  drain_and_close_all(loop);
}

}  // namespace egoist::rpc
