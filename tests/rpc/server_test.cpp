// rpc::Server + rpc::Client integration (the TSan CI job runs this suite):
// a real socket server over a real RouteService, exercised over TCP and
// Unix-domain transports. Covers the dispatch contract (simple calls,
// pipelined batches answered off one pinned snapshot), both malformed-
// input severities (payload error -> ERROR response + live connection;
// header garbage -> connection closed), out-of-range ids, idle timeouts,
// concurrent clients under epoch churn, and graceful shutdown with a
// RouteService::drain proof.
#include "rpc/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "host/overlay_host.hpp"
#include "host/route_service.hpp"
#include "rpc/client.hpp"
#include "wire/protocol.hpp"

namespace egoist::rpc {
namespace {

host::OverlaySpec br_spec(std::uint64_t seed) {
  overlay::OverlayConfig config;
  config.policy = overlay::Policy::kBestResponse;
  config.metric = overlay::Metric::kDelayPing;
  config.k = 3;
  config.seed = seed;
  return host::OverlaySpec(config);
}

/// A deployed overlay + service + started server on an ephemeral TCP port
/// and a per-test UDS path.
struct Stack {
  explicit Stack(std::size_t n = 16, ServerOptions options = {}) {
    host = std::make_unique<host::OverlayHost>(n, 7);
    handle = host->deploy(br_spec(7));
    host->run_epochs(handle, 1);
    service = std::make_unique<host::RouteService>(*host, handle);
    options.tcp_port = 0;  // ephemeral
    options.uds_path = "/tmp/egoist_rpc_test_" + std::to_string(::getpid()) +
                       "_" + std::to_string(counter++) + ".sock";
    server = std::make_unique<Server>(*service, options);
    server->start();
  }

  Client tcp() { return Client::connect_tcp("127.0.0.1", server->tcp_port()); }
  Client uds() { return Client::connect_uds(server->uds_path()); }

  static inline std::atomic<int> counter{0};
  std::unique_ptr<host::OverlayHost> host;
  host::OverlayHandle handle;
  std::unique_ptr<host::RouteService> service;
  std::unique_ptr<Server> server;
};

TEST(RpcServer, SimpleCallsOverBothTransports) {
  Stack stack;
  const auto check = [&](Client client) {
    const auto ping = client.ping();
    EXPECT_EQ(ping.node_count, 16u);
    EXPECT_GT(ping.publish_seq, 0u);

    const auto route = client.route(0, 1);
    const auto expect = stack.service->route(0, 1);
    EXPECT_EQ(route.reachable, expect.reachable ? 1 : 0);
    EXPECT_EQ(route.next_hop, expect.next_hop);
    if (expect.reachable) {
      EXPECT_DOUBLE_EQ(route.cost, expect.cost);
    }

    const auto path = client.path(0, 1);
    const auto expect_path = stack.service->path(0, 1);
    EXPECT_EQ(path.reachable, expect_path.reachable ? 1 : 0);
    EXPECT_EQ(path.hops.size(), expect_path.nodes.size());

    const auto score = client.score(3);
    EXPECT_EQ(score.publish_seq, ping.publish_seq);

    const auto stats = client.stats();
    EXPECT_EQ(stats.node_count, 16u);
    EXPECT_GT(stats.frames_in, 0u);
    EXPECT_EQ(stats.decode_errors, 0u);
  };
  check(stack.tcp());
  check(stack.uds());
}

TEST(RpcServer, PipelinedBatchAnswersInOrderOffOneSnapshot) {
  Stack stack;
  auto client = stack.uds();
  constexpr int kDepth = 64;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kDepth; ++i) {
      client.post_route(i % 16, (i * 5 + 1) % 16);
    }
    EXPECT_EQ(client.outstanding(), static_cast<std::size_t>(kDepth));
    client.flush();
    std::uint64_t seq = 0;
    for (int i = 0; i < kDepth; ++i) {
      const auto resp = client.take_route();
      // All answers in one batch come from the same publication.
      if (i == 0) {
        seq = resp.publish_seq;
      } else {
        EXPECT_EQ(resp.publish_seq, seq);
      }
    }
    EXPECT_EQ(client.outstanding(), 0u);
  }
  // The server pins ONE snapshot per dispatch batch. Each flush lands as
  // one (typically) burst, so batches stays far below frames: pipelining
  // actually coalesced. The exact count depends on how the kernel chunks
  // the stream, hence the inequality rather than == 3.
  const auto stats = stack.server->stats();
  EXPECT_GE(stats.batches, 3u);
  EXPECT_LT(stats.batches, stats.frames_in);
  EXPECT_EQ(stats.frames_in, 3u * kDepth);
}

TEST(RpcServer, BatchRouteMatchesSingleRouteAnswers) {
  Stack stack;
  auto client = stack.uds();
  std::vector<wire::BatchRoutePair> pairs;
  for (std::int32_t src = 0; src < 16; ++src) {
    for (std::int32_t dst = 0; dst < 16; ++dst) {
      pairs.push_back({src, dst});
    }
  }
  const auto batch = client.route_batch(pairs);
  ASSERT_EQ(batch.entries.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto single = stack.service->route(pairs[i].src, pairs[i].dst);
    EXPECT_EQ(batch.entries[i].reachable, single.reachable ? 1 : 0)
        << pairs[i].src << "->" << pairs[i].dst;
    EXPECT_EQ(batch.entries[i].next_hop, single.next_hop);
    if (single.reachable) {
      EXPECT_DOUBLE_EQ(batch.entries[i].cost, single.cost);
    }
  }
  // The whole batch was answered off one pinned snapshot; its stamp is a
  // real publication.
  EXPECT_EQ(batch.publish_seq, client.ping().publish_seq);
  // One frame in, one frame out, however many lookups rode along.
  const auto stats = stack.server->stats();
  EXPECT_EQ(stats.frames_in, 2u);  // the batch + the ping
}

TEST(RpcServer, BatchRouteInterleavesWithPipelinedSingles) {
  Stack stack;
  auto client = stack.tcp();
  client.post_route(0, 5);
  client.post_route_batch({{1, 2}, {3, 4}, {5, 6}});
  client.post_route(7, 8);
  client.flush();
  const auto first = client.take_route();
  const auto batch = client.take_route_batch();
  const auto last = client.take_route();
  // One flush burst == one dispatch batch == one snapshot: every answer,
  // batched or single, carries the same publication stamp.
  EXPECT_EQ(batch.publish_seq, first.publish_seq);
  EXPECT_EQ(last.publish_seq, first.publish_seq);
  ASSERT_EQ(batch.entries.size(), 3u);
  const auto expect = stack.service->route(3, 4);
  EXPECT_EQ(batch.entries[1].next_hop, expect.next_hop);
}

TEST(RpcServer, BatchRouteOutOfRangeIsAllOrNothing) {
  Stack stack;
  auto client = stack.uds();
  // One bad id poisons the whole batch — a partial answer would misalign
  // the packed entries against the request's pair order.
  try {
    (void)client.route_batch({{0, 1}, {2, 16}, {3, 4}});  // 16 out of range
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(),
              static_cast<std::uint16_t>(wire::ErrorCode::kOutOfRange));
  }
  // The connection lives, and valid batches still answer on it.
  const auto ok = client.route_batch({{0, 1}});
  EXPECT_EQ(ok.entries.size(), 1u);
  EXPECT_EQ(stack.server->stats().error_responses, 1u);
  EXPECT_EQ(stack.server->stats().decode_errors, 0u);
}

TEST(RpcServer, BatchWhoseResponseWouldOverflowMaxFrameIsRejected) {
  // The response stride (13B) outruns the request stride (8B), so there is
  // a count window where the request decodes fine but the response would
  // bust the frame bound. The server must refuse it up front instead of
  // emitting a frame its peers reject at the header.
  ServerOptions options;
  options.max_frame = 1024;
  Stack stack(16, options);
  auto client = stack.uds();
  std::vector<wire::BatchRoutePair> pairs(100, {0, 1});
  // request payload 4 + 100*8 = 804 <= 1024; response 16 + 100*13 = 1316.
  try {
    (void)client.route_batch(pairs);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(),
              static_cast<std::uint16_t>(wire::ErrorCode::kBadRequest));
  }
  // A batch whose response fits still answers on the live connection.
  pairs.resize(70);  // 16 + 70*13 = 926 <= 1024
  EXPECT_EQ(client.route_batch(pairs).entries.size(), 70u);
}

TEST(RpcServer, MultiLoopServesBothTransportsAndAggregatesExactly) {
  ServerOptions options;
  options.loops = 4;
  Stack stack(24, options);
  EXPECT_EQ(stack.server->loops(), 4);

  // 4 UDS + 4 TCP clients hammering concurrently: the UDS round-robin
  // guarantees every loop owns at least one connection.
  constexpr int kClientsPerTransport = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 2 * kClientsPerTransport; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto client = c % 2 == 0 ? stack.uds() : stack.tcp();
        for (int round = 0; round < 50; ++round) {
          const auto src = static_cast<std::int32_t>((c + round) % 24);
          const auto dst = static_cast<std::int32_t>((c * 7 + round) % 24);
          const auto route = client.route(src, dst);
          const auto batch = client.route_batch({{src, dst}, {dst, src}});
          if (batch.entries[0].next_hop != route.next_hop &&
              batch.publish_seq == route.publish_seq) {
            failures.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The v2 STATS frame carries the per-loop breakdown.
  auto control = stack.uds();
  const auto remote = control.stats();
  ASSERT_EQ(remote.per_loop.size(), 4u);
  std::uint64_t remote_accepted = 0;
  for (const auto& loop : remote.per_loop) {
    remote_accepted += loop.connections_accepted;
  }
  EXPECT_EQ(remote_accepted, remote.connections_accepted);
  control.close();

  // After stop() the loops have joined, so the per-loop counters sum to
  // the aggregate EXACTLY, field by field.
  stack.server->stop();
  const auto agg = stack.server->stats();
  const auto per_loop = stack.server->per_loop_stats();
  ASSERT_EQ(per_loop.size(), 4u);
  ServerStats sum;
  for (const auto& loop : per_loop) {
    sum.connections_accepted += loop.connections_accepted;
    sum.connections_active += loop.connections_active;
    sum.frames_in += loop.frames_in;
    sum.frames_out += loop.frames_out;
    sum.decode_errors += loop.decode_errors;
    sum.error_responses += loop.error_responses;
    sum.idle_closed += loop.idle_closed;
    sum.bytes_in += loop.bytes_in;
    sum.bytes_out += loop.bytes_out;
    sum.batches += loop.batches;
  }
  EXPECT_EQ(sum.connections_accepted, agg.connections_accepted);
  EXPECT_EQ(sum.connections_active, agg.connections_active);
  EXPECT_EQ(sum.frames_in, agg.frames_in);
  EXPECT_EQ(sum.frames_out, agg.frames_out);
  EXPECT_EQ(sum.decode_errors, agg.decode_errors);
  EXPECT_EQ(sum.error_responses, agg.error_responses);
  EXPECT_EQ(sum.idle_closed, agg.idle_closed);
  EXPECT_EQ(sum.bytes_in, agg.bytes_in);
  EXPECT_EQ(sum.bytes_out, agg.bytes_out);
  EXPECT_EQ(sum.batches, agg.batches);

  // 9 UDS connections round-robined over 4 loops: every loop served.
  EXPECT_EQ(agg.connections_accepted, 9u);
  for (std::size_t i = 0; i < per_loop.size(); ++i) {
    EXPECT_GE(per_loop[i].connections_accepted, 1u) << "loop " << i;
  }
  // TCP takes the same round-robin as UDS, so the 9 connections of both
  // transports deal out 3/2/2/2: no loop is left with fewer than 2.
  for (std::size_t i = 0; i < per_loop.size(); ++i) {
    EXPECT_GE(per_loop[i].connections_accepted, 2u) << "loop " << i;
    EXPECT_LE(per_loop[i].connections_accepted, 3u) << "loop " << i;
  }
  EXPECT_EQ(agg.decode_errors, 0u);
  EXPECT_EQ(agg.error_responses, 0u);
  EXPECT_TRUE(stack.service->drain(5.0));
}

TEST(RpcServer, TcpClientsLandOnePerLoop) {
  // Loop 0 deals TCP accepts round-robin, exactly as it deals UDS ones:
  // four sequential TCP clients on a four-loop server get one loop each.
  ServerOptions options;
  options.loops = 4;
  Stack stack(16, options);
  std::vector<Client> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(stack.tcp());
    EXPECT_EQ(clients.back().ping().node_count, 16u);
  }
  stack.server->stop();
  const auto per_loop = stack.server->per_loop_stats();
  ASSERT_EQ(per_loop.size(), 4u);
  for (std::size_t i = 0; i < per_loop.size(); ++i) {
    EXPECT_EQ(per_loop[i].connections_accepted, 1u) << "loop " << i;
    EXPECT_EQ(per_loop[i].frames_in, 1u) << "loop " << i;
  }
}

TEST(RpcServer, MultiLoopShutdownDrainsEveryLoop) {
  ServerOptions options;
  options.loops = 3;
  Stack stack(16, options);
  std::vector<Client> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(i % 2 == 0 ? stack.uds() : stack.tcp());
    EXPECT_EQ(clients.back().ping().node_count, 16u);
  }
  stack.server->stop();
  for (auto& client : clients) {
    EXPECT_THROW((void)client.ping(), RpcError);
  }
  EXPECT_TRUE(stack.service->drain(5.0));
  EXPECT_EQ(stack.service->retired_pending(), 0u);
  EXPECT_EQ(stack.server->stats().connections_active, 0u);
}

TEST(RpcServer, TcpNodelaySendsSmallFramesWithoutCoalescingDelay) {
  // 100 strictly sequential request/response round-trips over loopback
  // TCP. With TCP_NODELAY unset, Nagle + delayed ACK turns this pattern
  // into ~40ms per round trip (4+ seconds total); with it set on both the
  // accepted and connecting sockets the whole exchange is comfortably
  // sub-second. The 2s bound keeps the assertion meaningful on a loaded
  // CI runner while still catching a missing NODELAY by a wide margin.
  Stack stack;
  auto client = stack.tcp();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    (void)client.ping();
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 2.0) << "sequential round-trips stalled — "
                                     "TCP_NODELAY regression?";
}

TEST(RpcServer, MixedPipelinedTypesComeBackInPostOrder) {
  Stack stack;
  auto client = stack.tcp();
  client.post_route(0, 5);
  client.post_path(0, 5);
  client.post_score(2);
  client.flush();
  const auto route = client.take_route();
  const auto path = client.take_path();
  (void)client.take_score();
  if (route.reachable && path.reachable) {
    EXPECT_DOUBLE_EQ(route.cost, path.cost);
    ASSERT_GE(path.hops.size(), 2u);  // src != dst and reachable
    EXPECT_EQ(path.hops[1], route.next_hop);
  }
}

TEST(RpcServer, OutOfRangeIdsGetTypedErrorsAndConnectionLives) {
  Stack stack;
  auto client = stack.uds();
  try {
    (void)client.route(0, 16);  // n == 16, so id 16 is out of range
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(),
              static_cast<std::uint16_t>(wire::ErrorCode::kOutOfRange));
  }
  try {
    (void)client.score(-1);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(),
              static_cast<std::uint16_t>(wire::ErrorCode::kOutOfRange));
  }
  // The connection survived both errors.
  EXPECT_EQ(client.ping().node_count, 16u);
  EXPECT_EQ(stack.server->stats().error_responses, 2u);
  EXPECT_EQ(stack.server->stats().decode_errors, 0u);
}

/// Raw socket helper for malformed-byte tests (the typed Client cannot be
/// convinced to send garbage).
int raw_uds_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::vector<std::uint8_t> recv_one_frame(int fd) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return bytes;  // EOF / error: return what we have
    bytes.insert(bytes.end(), chunk, chunk + n);
    const auto hd = wire::decode_header(bytes);
    if (hd.status == wire::DecodeStatus::kOk &&
        bytes.size() >= wire::kHeaderSize + hd.header.payload_len) {
      return bytes;
    }
    if (hd.status != wire::DecodeStatus::kNeedMore &&
        hd.status != wire::DecodeStatus::kOk) {
      return bytes;
    }
  }
}

TEST(RpcServer, PayloadErrorKeepsConnectionHeaderGarbageClosesIt) {
  Stack stack;
  const int fd = raw_uds_connect(stack.server->uds_path());
  ASSERT_GE(fd, 0);

  // A valid header whose ROUTE payload is one byte short of its own
  // advertised length: payload-level error -> ERROR response, framing
  // intact, connection lives.
  std::vector<std::uint8_t> frame;
  wire::encode_route_request(frame, 42, {1, 2});
  frame[16] = 7;  // payload_len lies: 7 < 8
  frame.resize(wire::kHeaderSize + 7);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  auto reply = recv_one_frame(fd);
  auto hd = wire::decode_header(reply);
  ASSERT_EQ(hd.status, wire::DecodeStatus::kOk);
  EXPECT_EQ(hd.header.type, wire::MsgType::kError);
  EXPECT_EQ(hd.header.request_id, 42u);
  auto decoded = wire::decode_response(
      hd.header,
      std::span<const std::uint8_t>(reply).subspan(wire::kHeaderSize));
  ASSERT_EQ(decoded.status, wire::DecodeStatus::kOk);
  EXPECT_EQ(std::get<wire::ErrorResponse>(decoded.response).code,
            static_cast<std::uint16_t>(wire::ErrorCode::kBadRequest));

  // Framing is intact: a well-formed request on the same connection still
  // answers.
  frame.clear();
  wire::encode_ping_request(frame, 43);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  reply = recv_one_frame(fd);
  hd = wire::decode_header(reply);
  ASSERT_EQ(hd.status, wire::DecodeStatus::kOk);
  EXPECT_EQ(hd.header.type, wire::MsgType::kPing);

  // Header-level garbage: one ERROR(kMalformedFrame), then EOF.
  const std::uint8_t garbage[32] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  reply = recv_one_frame(fd);
  hd = wire::decode_header(reply);
  ASSERT_EQ(hd.status, wire::DecodeStatus::kOk);
  EXPECT_EQ(hd.header.type, wire::MsgType::kError);
  decoded = wire::decode_response(
      hd.header,
      std::span<const std::uint8_t>(reply).subspan(wire::kHeaderSize));
  ASSERT_EQ(decoded.status, wire::DecodeStatus::kOk);
  EXPECT_EQ(std::get<wire::ErrorResponse>(decoded.response).code,
            static_cast<std::uint16_t>(wire::ErrorCode::kMalformedFrame));
  std::uint8_t scrap;
  EXPECT_EQ(::recv(fd, &scrap, 1, 0), 0) << "connection should be closed";
  ::close(fd);

  EXPECT_EQ(stack.server->stats().decode_errors, 2u);
}

TEST(RpcServer, IdleConnectionsAreSweptOut) {
  ServerOptions options;
  options.idle_timeout_s = 0.15;
  Stack stack(16, options);
  auto client = stack.uds();
  EXPECT_EQ(client.ping().node_count, 16u);
  // Outlive the idle timeout without traffic: the server hangs up.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (stack.server->stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(stack.server->stats().idle_closed, 1u);
  EXPECT_THROW((void)client.ping(), RpcError);
}

TEST(RpcServer, ConcurrentClientsUnderEpochChurnStayConsistent) {
  Stack stack(24);
  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto client = c % 2 == 0 ? stack.uds() : stack.tcp();
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 8; ++i) client.post_route(i % 24, (i + c) % 24);
          client.flush();
          std::uint64_t seq = 0;
          for (int i = 0; i < 8; ++i) {
            const auto resp = client.take_route();
            if (i == 0) {
              seq = resp.publish_seq;
            } else if (resp.publish_seq != seq) {
              failures.fetch_add(1);  // torn batch: two publications
            }
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  // Epochs churn and publish underneath the serving connections.
  stack.host->run_epochs(stack.handle, 6);
  stop.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stack.server->stats().decode_errors, 0u);
  EXPECT_EQ(stack.service->stats().seal_violations, 0u);
}

TEST(RpcServer, GracefulShutdownDrainsAndServiceQuiesces) {
  Stack stack;
  {
    auto client = stack.uds();
    EXPECT_EQ(client.ping().node_count, 16u);
    // stop() with a live connection: queued responses flushed, sockets
    // closed, loop joined. Then the service must fully quiesce — the
    // egoistd shutdown sequence.
    stack.server->stop();
    EXPECT_FALSE(stack.server->running());
    EXPECT_THROW((void)client.ping(), RpcError);
  }
  EXPECT_TRUE(stack.service->drain(5.0));
  EXPECT_EQ(stack.service->retired_pending(), 0u);
  // stop() is idempotent and safe after the fact.
  stack.server->stop();
}

TEST(RpcServer, StopUnblocksInFlightPipelinedClientPromptly) {
  Stack stack;
  auto client = stack.tcp();
  for (int i = 0; i < 16; ++i) client.post_route(0, i % 16);
  client.flush();
  for (int i = 0; i < 16; ++i) (void)client.take_route();
  std::thread stopper([&] { stack.server->stop(); });
  // After stop, calls fail with a transport error rather than hanging.
  try {
    for (;;) (void)client.ping();
  } catch (const RpcError&) {
  }
  stopper.join();
  EXPECT_TRUE(stack.service->drain(5.0));
}

TEST(RpcClient, SimpleCallWithPipelinedResponsesOutstandingThrows) {
  Stack stack;
  auto client = stack.uds();
  client.post_route(0, 1);
  client.post_score(2);
  // Every simple call refuses before it queues anything, so the
  // outstanding responses stay first in line.
  EXPECT_THROW((void)client.ping(), RpcError);
  EXPECT_THROW((void)client.route(0, 1), RpcError);
  EXPECT_THROW((void)client.path(0, 1), RpcError);
  EXPECT_THROW((void)client.score(2), RpcError);
  EXPECT_THROW((void)client.stats(), RpcError);
  EXPECT_THROW((void)client.route_batch({{0, 1}}), RpcError);
  EXPECT_EQ(client.outstanding(), 2u);

  const auto route = client.take_route();
  EXPECT_EQ(route.next_hop, stack.service->route(0, 1).next_hop);
  const auto score = client.take_score();
  EXPECT_EQ(score.publish_seq, route.publish_seq);
  EXPECT_EQ(client.outstanding(), 0u);
  // Drained: simple calls work again on the same connection.
  EXPECT_EQ(client.ping().node_count, 16u);
  EXPECT_EQ(stack.server->stats().frames_in, 3u);
}

TEST(RpcServer, ServerRequiresAListener) {
  host::OverlayHost host(8, 3);
  const auto handle = host.deploy(br_spec(3));
  host::RouteService service(host, handle);
  const ServerOptions options;  // tcp disabled by default, no uds path
  EXPECT_THROW(std::make_unique<Server>(service, options),
               std::runtime_error);
}

TEST(RpcServer, EphemeralPortIsReadableBeforeStart) {
  host::OverlayHost host(8, 3);
  const auto handle = host.deploy(br_spec(3));
  host::RouteService service(host, handle);
  ServerOptions options;
  options.tcp_port = 0;
  Server server(service, options);
  EXPECT_GT(server.tcp_port(), 0);  // bound at construction
  server.start();
  auto client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(client.ping().node_count, 8u);
}

}  // namespace
}  // namespace egoist::rpc
