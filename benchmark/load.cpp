#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <variant>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "rpc/client.hpp"
#include "wire/protocol.hpp"

namespace egoist::bench {

QueryMix::QueryMix(Kind kind, const host::WiringSnapshot& snap,
                   std::size_t hot_sources, double zipf_exponent,
                   std::uint64_t seed)
    : kind_(kind),
      online_(snap.online_nodes()),
      zipf_(kind == Kind::kHot ? online_.size() : 1, zipf_exponent) {
  if (online_.empty()) throw std::invalid_argument("no online nodes to query");
  if (kind_ == Kind::kHot) sources_ = exp::hot_source_pool(snap, seed, 0, hot_sources);
}

std::int32_t QueryMix::draw_src(util::Rng& rng) const {
  const auto& pool = kind_ == Kind::kHot ? sources_ : online_;
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

std::int32_t QueryMix::draw_dst(util::Rng& rng) const {
  if (kind_ == Kind::kHot) {
    return online_[static_cast<std::size_t>(zipf_.draw(rng))];
  }
  return online_[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(online_.size()) - 1))];
}

namespace {

void note_answer(PhaseResult& part, const wire::BatchRoutePair& pair,
                 std::int32_t epoch, std::uint64_t publish_seq,
                 std::uint8_t reachable, std::int32_t next_hop, double cost,
                 bool keep) {
  ++part.answers;
  if (!reachable) ++part.unreachable;
  if (keep) {
    part.recorded.push_back(
        {pair.src, pair.dst, epoch, publish_seq, reachable, next_hop, cost});
  }
}

int connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + why);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

PhaseResult run_closed(const std::string& uds_path, const QueryMix& mix,
                       int conns, int depth, bool batch, double seconds,
                       double slice_s, std::uint64_t seed,
                       std::size_t record_every) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> progress{0};  // answers so far, all threads
  std::vector<PhaseResult> parts(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  const std::uint64_t start = now_ns();
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      auto& part = parts[static_cast<std::size_t>(c)];
      util::Rng rng(seed ^ (0xC105EDull * static_cast<std::uint64_t>(c + 1)));
      std::size_t counter = 0;
      std::vector<wire::BatchRoutePair> pairs(static_cast<std::size_t>(depth));
      try {
        auto client = rpc::Client::connect_uds(uds_path);
        while (!stop.load(std::memory_order_relaxed)) {
          for (auto& pair : pairs) pair = {mix.draw_src(rng), mix.draw_dst(rng)};
          if (batch) {
            client.post_route_batch(pairs);
            client.flush();
            const auto resp = client.take_route_batch();
            if (resp.entries.size() != pairs.size()) {
              throw rpc::RpcError("BATCH_ROUTE answered " +
                                  std::to_string(resp.entries.size()) + " of " +
                                  std::to_string(pairs.size()));
            }
            for (std::size_t i = 0; i < pairs.size(); ++i) {
              const auto& e = resp.entries[i];
              note_answer(part, pairs[i], resp.epoch, resp.publish_seq,
                          e.reachable, e.next_hop, e.cost,
                          ++counter % record_every == 0);
            }
            progress.fetch_add(pairs.size(), std::memory_order_relaxed);
          } else {
            for (const auto& pair : pairs) client.post_route(pair.src, pair.dst);
            client.flush();
            for (const auto& pair : pairs) {
              const auto r = client.take_route();
              note_answer(part, pair, r.epoch, r.publish_seq, r.reachable,
                          r.next_hop, r.cost, ++counter % record_every == 0);
            }
            progress.fetch_add(pairs.size(), std::memory_order_relaxed);
          }
        }
      } catch (const std::exception& e) {
        part.errors.push_back(e.what());
        part.failed += static_cast<std::uint64_t>(depth);
      }
    });
  }
  PhaseResult result;
  std::uint64_t slice_start = start;
  std::uint64_t slice_answers = 0;
  while (seconds_since(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t now = now_ns();
    const std::uint64_t answers = progress.load(std::memory_order_relaxed);
    // A slice also holds enough answers that whole bursts do not quantize
    // its rate.
    if (static_cast<double>(now - slice_start) * 1e-9 >= slice_s &&
        answers - slice_answers >= 2048) {
      result.slice_qps.push_back(static_cast<double>(answers - slice_answers) /
                                 (static_cast<double>(now - slice_start) * 1e-9));
      slice_start = now;
      slice_answers = answers;
    }
  }
  if (result.slice_qps.empty()) {  // a phase too short for one full slice
    result.slice_qps.push_back(
        static_cast<double>(progress.load(std::memory_order_relaxed)) /
        seconds_since(start));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();
  for (auto& part : parts) {
    result.answers += part.answers;
    result.failed += part.failed;
    result.unreachable += part.unreachable;
    result.recorded.insert(result.recorded.end(), part.recorded.begin(),
                           part.recorded.end());
    result.errors.insert(result.errors.end(), part.errors.begin(),
                         part.errors.end());
  }
  return result;
}

PhaseResult run_open(const std::string& uds_path, const QueryMix& mix,
                     int conns, double rate, double seconds, double slice_s,
                     std::uint64_t seed, Tracer& tracer,
                     std::size_t sample_every) {
  // The whole schedule is drawn up front so the loop only encodes, sends
  // and receives. Sends are evenly spaced: the tail then measures how the
  // server's service time varies, not how bursty a random arrival draw was.
  util::Rng rng(seed ^ 0x0BE9ull);
  const double gap_s = 1.0 / rate;
  std::vector<std::uint64_t> due_offset;
  std::vector<wire::BatchRoutePair> pairs;
  for (double t = gap_s * rng.uniform(); t < seconds; t += gap_s) {
    due_offset.push_back(static_cast<std::uint64_t>(t * 1e9));
    pairs.push_back({mix.draw_src(rng), mix.draw_dst(rng)});
  }
  const std::size_t total = pairs.size();

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;
    bool dead = false;
  };
  struct Sample {
    std::uint64_t encode0 = 0, encode1 = 0, send0 = 0, send1 = 0;
  };

  PhaseResult result;
  std::vector<Conn> links(static_cast<std::size_t>(conns));
  for (auto& link : links) link.fd = connect_uds(uds_path);
  std::vector<std::uint8_t> answered(total, 0);
  // Slices long enough for a p90 with ten samples beyond it; a trailing
  // partial slice joins the one before.
  const double slice_len = std::max(slice_s, 100.0 / rate);
  const auto slice_ns = static_cast<std::uint64_t>(slice_len * 1e9);
  std::vector<std::vector<double>> slices(
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / slice_len)));
  std::vector<Sample> samples(tracer.enabled() ? total / sample_every + 1 : 0);
  std::vector<std::size_t> just_sent;
  std::vector<std::uint8_t> buf(1 << 16);

  const std::uint64_t start = now_ns() + 1000000;  // 1 ms lead
  const std::uint64_t give_up =
      start + static_cast<std::uint64_t>((seconds + 2.0) * 1e9);
  std::size_t next = 0;
  std::uint64_t settled = 0;  // answered or failed

  const auto fail_link = [&](Conn& link, const std::string& why) {
    result.errors.push_back(why);
    link.dead = true;
    ::close(link.fd);
    link.fd = -1;
  };

  while (settled < total) {
    std::uint64_t now = now_ns();
    if (now > give_up) break;
    just_sent.clear();
    while (next < total && start + due_offset[next] <= now) {
      auto& link = links[next % links.size()];
      const bool sampled = !samples.empty() && next % sample_every == 0;
      if (link.dead) {
        ++next;
        continue;
      }
      if (now - (start + due_offset[next]) > 50000) ++result.late_sends;
      if (sampled) samples[next / sample_every].encode0 = now_ns();
      wire::encode_route_request(link.out, next + 1,
                                 {pairs[next].src, pairs[next].dst});
      if (sampled) {
        samples[next / sample_every].encode1 = now_ns();
        just_sent.push_back(next);
      }
      ++next;
    }
    for (auto& link : links) {
      if (link.dead || link.out_off == link.out.size()) continue;
      const std::uint64_t send0 = now_ns();
      const ssize_t n =
          ::send(link.fd, link.out.data() + link.out_off,
                 link.out.size() - link.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
      const std::uint64_t send1 = now_ns();
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        fail_link(link, "open-loop send: " + std::string(std::strerror(errno)));
        continue;
      }
      if (n > 0) link.out_off += static_cast<std::size_t>(n);
      if (link.out_off == link.out.size()) {
        link.out.clear();
        link.out_off = 0;
      }
      for (const std::size_t idx : just_sent) {
        if (&links[idx % links.size()] != &link) continue;
        samples[idx / sample_every].send0 = send0;
        samples[idx / sample_every].send1 = send1;
      }
    }
    for (auto& link : links) {
      if (link.dead) continue;
      const ssize_t n = ::recv(link.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n == 0) {
        fail_link(link, "open-loop: daemon closed the connection");
        continue;
      }
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          fail_link(link, "open-loop recv: " + std::string(std::strerror(errno)));
        }
        continue;
      }
      const std::uint64_t recv_ns = now_ns();
      link.in.insert(link.in.end(), buf.begin(), buf.begin() + n);
      for (;;) {
        const std::span<const std::uint8_t> avail(link.in.data() + link.in_off,
                                                  link.in.size() - link.in_off);
        const auto head = wire::decode_header(avail);
        if (head.status == wire::DecodeStatus::kNeedMore) break;
        if (head.status != wire::DecodeStatus::kOk) {
          fail_link(link, std::string("open-loop header: ") +
                              wire::to_string(head.status));
          break;
        }
        const std::size_t frame = wire::kHeaderSize + head.header.payload_len;
        if (avail.size() < frame) break;
        const auto decoded = wire::decode_response(
            head.header, avail.subspan(wire::kHeaderSize, head.header.payload_len));
        link.in_off += frame;
        const std::uint64_t id = head.header.request_id;
        if (decoded.status != wire::DecodeStatus::kOk || id == 0 || id > next ||
            answered[id - 1]) {
          fail_link(link, "open-loop: undecodable or unexpected response");
          break;
        }
        const std::size_t idx = id - 1;
        answered[idx] = 1;
        ++settled;
        const auto* route = std::get_if<wire::RouteResponse>(&decoded.response);
        if (route == nullptr) {
          ++result.failed;
          result.errors.push_back("open-loop: ERROR frame or wrong type");
          continue;
        }
        const std::uint64_t due = start + due_offset[idx];
        slices[std::min(slices.size() - 1, due_offset[idx] / slice_ns)]
            .push_back(static_cast<double>(recv_ns - due));
        note_answer(result, pairs[idx], route->epoch, route->publish_seq,
                    route->reachable, route->next_hop, route->cost, true);
        if (!samples.empty() && idx % sample_every == 0) {
          const auto& s = samples[idx / sample_every];
          const std::uint64_t done = now_ns();
          const std::uint64_t request = tracer.reserve();
          tracer.add("client.encode", s.encode0, s.encode1, request, id);
          tracer.add("client.send", s.send0, s.send1, request, id);
          tracer.add("client.recv_decode", recv_ns, done, request, id);
          tracer.add_reserved(request, "request", due, done, 0, id);
          result.sampled_request_ns += static_cast<double>(done - due);
          result.sampled_client_ns += static_cast<double>(
              (s.encode1 - s.encode0) + (s.send1 - s.send0) + (done - recv_ns));
        }
      }
      if (link.in_off > 0 && link.in_off * 2 >= link.in.size()) {
        link.in.erase(link.in.begin(),
                      link.in.begin() + static_cast<std::ptrdiff_t>(link.in_off));
        link.in_off = 0;
      }
    }
    bool all_dead = true;
    for (const auto& link : links) all_dead = all_dead && link.dead;
    if (all_dead) break;
  }
  for (auto& link : links) {
    if (link.fd >= 0) ::close(link.fd);
  }
  // Unanswered requests (dead link, give-up deadline) count as failed.
  result.failed += total - settled;
  result.sent = next;
  for (auto& slice : slices) {
    if (slice.empty()) continue;  // every request in it failed
    result.slice_p50_ns.push_back(util::percentile(slice, 50.0));
    result.slice_p90_ns.push_back(util::percentile(std::move(slice), 90.0));
  }
  return result;
}

}  // namespace egoist::bench
