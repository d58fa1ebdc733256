// Wire-protocol codec: encode/decode round trips for every message type,
// header validation (magic / version / type / flags / size bound), and the
// exact-consumption payload contract. The adversarial battery lives in
// codec_fuzz_test.cpp; these are the deterministic contracts.
#include "wire/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

namespace egoist::wire {
namespace {

/// Splits one encoded frame into (validated header, payload span) or fails
/// the test.
struct SplitFrame {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

SplitFrame split(const std::vector<std::uint8_t>& bytes,
                 std::size_t max_frame = kDefaultMaxFrame) {
  const auto hd = decode_header(bytes, max_frame);
  EXPECT_EQ(hd.status, DecodeStatus::kOk);
  EXPECT_EQ(bytes.size(), kHeaderSize + hd.header.payload_len)
      << "encoder produced trailing bytes";
  return {hd.header,
          std::span<const std::uint8_t>(bytes).subspan(kHeaderSize)};
}

TEST(WireCodec, PingRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_ping_request(bytes, 7);
  const auto f = split(bytes);
  EXPECT_EQ(f.header.type, MsgType::kPing);
  EXPECT_FALSE(f.header.response);
  EXPECT_EQ(f.header.request_id, 7u);
  EXPECT_EQ(f.header.payload_len, 0u);
  const auto decoded = decode_request(f.header, f.payload);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(decoded.request));

  PingResponse resp;
  resp.node_count = 10000;
  resp.epoch = 42;
  resp.publish_seq = 99;
  bytes.clear();
  encode_ping_response(bytes, 7, resp);
  const auto rf = split(bytes);
  EXPECT_TRUE(rf.header.response);
  const auto rd = decode_response(rf.header, rf.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<PingResponse>(rd.response);
  EXPECT_EQ(out.node_count, 10000u);
  EXPECT_EQ(out.epoch, 42);
  EXPECT_EQ(out.publish_seq, 99u);
}

TEST(WireCodec, RouteRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_route_request(bytes, 1, {123, -1});
  const auto f = split(bytes);
  const auto decoded = decode_request(f.header, f.payload);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  const auto& req = std::get<RouteRequest>(decoded.request);
  EXPECT_EQ(req.src, 123);
  EXPECT_EQ(req.dst, -1);

  RouteResponse resp;
  resp.reachable = 1;
  resp.next_hop = 17;
  resp.cost = 3.25;
  resp.epoch = -2;
  resp.publish_seq = 1ull << 40;
  bytes.clear();
  encode_route_response(bytes, 1, resp);
  const auto rf = split(bytes);
  const auto rd = decode_response(rf.header, rf.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<RouteResponse>(rd.response);
  EXPECT_EQ(out.reachable, 1);
  EXPECT_EQ(out.next_hop, 17);
  EXPECT_DOUBLE_EQ(out.cost, 3.25);
  EXPECT_EQ(out.epoch, -2);
  EXPECT_EQ(out.publish_seq, 1ull << 40);
}

TEST(WireCodec, RouteResponseInfinityAndScoreNaNSurvive) {
  RouteResponse resp;
  resp.cost = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> bytes;
  encode_route_response(bytes, 2, resp);
  auto f = split(bytes);
  auto rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  EXPECT_TRUE(std::isinf(std::get<RouteResponse>(rd.response).cost));

  ScoreResponse score;
  score.score = std::numeric_limits<double>::quiet_NaN();
  bytes.clear();
  encode_score_response(bytes, 3, score);
  f = split(bytes);
  rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  EXPECT_TRUE(std::isnan(std::get<ScoreResponse>(rd.response).score));
}

TEST(WireCodec, PathRoundTripWithAndWithoutHops) {
  PathResponse resp;
  resp.reachable = 1;
  resp.cost = 12.5;
  resp.epoch = 3;
  resp.publish_seq = 8;
  resp.hops = {0, 5, 2, 9};
  std::vector<std::uint8_t> bytes;
  encode_path_response(bytes, 4, resp);
  auto f = split(bytes);
  auto rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<PathResponse>(rd.response).hops,
            (std::vector<std::int32_t>{0, 5, 2, 9}));

  resp.hops.clear();
  resp.reachable = 0;
  bytes.clear();
  encode_path_response(bytes, 5, resp);
  f = split(bytes);
  rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  EXPECT_TRUE(std::get<PathResponse>(rd.response).hops.empty());
}

TEST(WireCodec, StatsRoundTripCarriesEveryCounter) {
  StatsResponse resp;
  resp.node_count = 2000;
  resp.published_epoch = 64;
  resp.publish_seq = 66;
  resp.queries_route = 1;
  resp.queries_path = 2;
  resp.queries_score = 3;
  resp.stale_served = 4;
  resp.rows_built = 5;
  resp.rows_discarded = 6;
  resp.uncached_queries = 7;
  resp.seal_violations = 8;
  resp.retired_pending = 9;
  resp.connections_accepted = 10;
  resp.connections_active = 11;
  resp.frames_in = 12;
  resp.frames_out = 13;
  resp.decode_errors = 14;
  resp.error_responses = 15;
  resp.idle_closed = 16;
  resp.bytes_in = 17;
  resp.bytes_out = 18;
  resp.batches = 19;
  std::vector<std::uint8_t> bytes;
  encode_stats_response(bytes, 6, resp);
  const auto f = split(bytes);
  const auto rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<StatsResponse>(rd.response);
  EXPECT_EQ(out.node_count, 2000u);
  EXPECT_EQ(out.published_epoch, 64);
  EXPECT_EQ(out.publish_seq, 66u);
  EXPECT_EQ(out.queries_route, 1u);
  EXPECT_EQ(out.queries_path, 2u);
  EXPECT_EQ(out.queries_score, 3u);
  EXPECT_EQ(out.stale_served, 4u);
  EXPECT_EQ(out.rows_built, 5u);
  EXPECT_EQ(out.rows_discarded, 6u);
  EXPECT_EQ(out.uncached_queries, 7u);
  EXPECT_EQ(out.seal_violations, 8u);
  EXPECT_EQ(out.retired_pending, 9u);
  EXPECT_EQ(out.connections_accepted, 10u);
  EXPECT_EQ(out.connections_active, 11u);
  EXPECT_EQ(out.frames_in, 12u);
  EXPECT_EQ(out.frames_out, 13u);
  EXPECT_EQ(out.decode_errors, 14u);
  EXPECT_EQ(out.error_responses, 15u);
  EXPECT_EQ(out.idle_closed, 16u);
  EXPECT_EQ(out.bytes_in, 17u);
  EXPECT_EQ(out.bytes_out, 18u);
  EXPECT_EQ(out.batches, 19u);
}

TEST(WireCodec, BatchRouteRoundTrip) {
  BatchRouteRequest req;
  req.pairs = {{0, 9999}, {42, -0}, {7, 7}};
  std::vector<std::uint8_t> bytes;
  encode_batch_route_request(bytes, 11, req);
  const auto f = split(bytes);
  EXPECT_EQ(f.header.type, MsgType::kBatchRoute);
  EXPECT_FALSE(f.header.response);
  EXPECT_EQ(f.header.payload_len, 4u + 3u * 8u);
  const auto decoded = decode_request(f.header, f.payload);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  const auto& out_req = std::get<BatchRouteRequest>(decoded.request);
  ASSERT_EQ(out_req.pairs.size(), 3u);
  EXPECT_EQ(out_req.pairs[0].src, 0);
  EXPECT_EQ(out_req.pairs[0].dst, 9999);
  EXPECT_EQ(out_req.pairs[1].src, 42);
  EXPECT_EQ(out_req.pairs[2].dst, 7);

  BatchRouteResponse resp;
  resp.epoch = -3;
  resp.publish_seq = 1ull << 33;
  resp.entries = {{1, 17, 3.25}, {0, -1, 0.0}, {1, 0, 0.5}};
  bytes.clear();
  encode_batch_route_response(bytes, 11, resp);
  const auto rf = split(bytes);
  EXPECT_TRUE(rf.header.response);
  EXPECT_EQ(rf.header.payload_len, 4u + 8u + 4u + 3u * 13u);
  const auto rd = decode_response(rf.header, rf.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<BatchRouteResponse>(rd.response);
  EXPECT_EQ(out.epoch, -3);
  EXPECT_EQ(out.publish_seq, 1ull << 33);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].reachable, 1);
  EXPECT_EQ(out.entries[0].next_hop, 17);
  EXPECT_DOUBLE_EQ(out.entries[0].cost, 3.25);
  EXPECT_EQ(out.entries[1].reachable, 0);
  EXPECT_EQ(out.entries[1].next_hop, -1);
}

TEST(WireCodec, EmptyBatchRouteRejectedBothDirections) {
  std::vector<std::uint8_t> bytes;
  encode_batch_route_request(bytes, 1, BatchRouteRequest{});
  const auto f = split(bytes);
  EXPECT_EQ(decode_request(f.header, f.payload).status,
            DecodeStatus::kBadPayload);
  bytes.clear();
  encode_batch_route_response(bytes, 1, BatchRouteResponse{});
  const auto rf = split(bytes);
  EXPECT_EQ(decode_response(rf.header, rf.payload).status,
            DecodeStatus::kBadPayload);
}

TEST(WireCodec, StatsPerLoopBreakdownRoundTrips) {
  StatsResponse resp;
  resp.frames_out = 100;
  resp.per_loop.resize(3);
  resp.per_loop[0].frames_out = 60;
  resp.per_loop[1].frames_out = 40;
  resp.per_loop[1].connections_accepted = 5;
  resp.per_loop[2].batches = 7;
  resp.per_loop[2].bytes_in = 123456;
  std::vector<std::uint8_t> bytes;
  encode_stats_response(bytes, 8, resp);
  const auto f = split(bytes);
  const auto rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<StatsResponse>(rd.response);
  ASSERT_EQ(out.per_loop.size(), 3u);
  EXPECT_EQ(out.per_loop[0].frames_out, 60u);
  EXPECT_EQ(out.per_loop[1].frames_out, 40u);
  EXPECT_EQ(out.per_loop[1].connections_accepted, 5u);
  EXPECT_EQ(out.per_loop[2].batches, 7u);
  EXPECT_EQ(out.per_loop[2].bytes_in, 123456u);
}

TEST(WireCodec, V1StatsFramesStillParseWithEmptyPerLoop) {
  // A v1 peer's STATS frame is the frozen 22-field prefix with no per-loop
  // appendix: build one by stripping the (empty) appendix off a v2 frame
  // and stamping version 1. The 22 shared fields must decode unchanged.
  StatsResponse resp;
  resp.node_count = 777;
  resp.batches = 19;
  std::vector<std::uint8_t> bytes;
  encode_stats_response(bytes, 4, resp);
  bytes.resize(bytes.size() - 4);  // drop the u32 loop_count == 0
  bytes[4] = 1;                    // version byte
  const auto new_len = static_cast<std::uint32_t>(bytes.size() - kHeaderSize);
  bytes[16] = static_cast<std::uint8_t>(new_len);
  bytes[17] = static_cast<std::uint8_t>(new_len >> 8);
  bytes[18] = static_cast<std::uint8_t>(new_len >> 16);
  bytes[19] = static_cast<std::uint8_t>(new_len >> 24);
  const auto hd = decode_header(bytes);
  ASSERT_EQ(hd.status, DecodeStatus::kOk);
  EXPECT_EQ(hd.header.version, 1);
  const auto rd = decode_response(
      hd.header, std::span<const std::uint8_t>(bytes).subspan(kHeaderSize));
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<StatsResponse>(rd.response);
  EXPECT_EQ(out.node_count, 777u);
  EXPECT_EQ(out.batches, 19u);
  EXPECT_TRUE(out.per_loop.empty());

  // The same bytes with version 2 claim a per-loop appendix that is not
  // there — rejected, not misparsed.
  bytes[4] = kVersion;
  const auto hd2 = decode_header(bytes);
  ASSERT_EQ(hd2.status, DecodeStatus::kOk);
  EXPECT_EQ(decode_response(hd2.header,
                            std::span<const std::uint8_t>(bytes).subspan(
                                kHeaderSize))
                .status,
            DecodeStatus::kBadPayload);
}

TEST(WireCodec, ErrorRoundTrip) {
  ErrorResponse resp;
  resp.code = static_cast<std::uint16_t>(ErrorCode::kOutOfRange);
  resp.message = "node id out of range";
  std::vector<std::uint8_t> bytes;
  encode_error_response(bytes, 9, resp);
  const auto f = split(bytes);
  EXPECT_EQ(f.header.type, MsgType::kError);
  EXPECT_TRUE(f.header.response);
  const auto rd = decode_response(f.header, f.payload);
  ASSERT_EQ(rd.status, DecodeStatus::kOk);
  const auto& out = std::get<ErrorResponse>(rd.response);
  EXPECT_EQ(out.code, static_cast<std::uint16_t>(ErrorCode::kOutOfRange));
  EXPECT_EQ(out.message, "node id out of range");
}

// --- Header validation ----------------------------------------------------

std::vector<std::uint8_t> valid_frame() {
  std::vector<std::uint8_t> bytes;
  encode_route_request(bytes, 77, {1, 2});
  return bytes;
}

TEST(WireHeader, NeedMoreOnShortHeader) {
  const auto bytes = valid_frame();
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    const auto hd = decode_header(
        std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_EQ(hd.status, DecodeStatus::kNeedMore) << "len=" << len;
  }
}

TEST(WireHeader, BadMagicRejected) {
  auto bytes = valid_frame();
  bytes[0] ^= 0xFF;
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadMagic);
}

TEST(WireHeader, BadVersionRejected) {
  auto bytes = valid_frame();
  bytes[4] = kVersion + 1;
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadVersion);
  bytes[4] = 0;  // below kMinVersion
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadVersion);
}

TEST(WireHeader, WholeVersionRangeAccepted) {
  // v2 receivers speak to v1 peers: every version in [kMinVersion,
  // kVersion] passes the header check and is reported back verbatim.
  for (std::uint8_t version = kMinVersion; version <= kVersion; ++version) {
    auto bytes = valid_frame();
    bytes[4] = version;
    const auto hd = decode_header(bytes);
    EXPECT_EQ(hd.status, DecodeStatus::kOk) << "version " << int{version};
    EXPECT_EQ(hd.header.version, version);
  }
}

TEST(WireHeader, BatchRouteIsV2Only) {
  // A v1 peer never learned BATCH_ROUTE; a v1-stamped batch frame gets
  // the same kBadType that peer would produce itself.
  std::vector<std::uint8_t> bytes;
  BatchRouteRequest req;
  req.pairs = {{1, 2}};
  encode_batch_route_request(bytes, 3, req);
  ASSERT_EQ(decode_header(bytes).status, DecodeStatus::kOk);
  bytes[4] = 1;
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadType);
}

TEST(WireHeader, UnknownTypeRejected) {
  auto bytes = valid_frame();
  bytes[5] = 0;
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadType);
  bytes[5] = 200;
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadType);
}

TEST(WireHeader, ReservedFlagBitsRejected) {
  auto bytes = valid_frame();
  bytes[6] |= 0x02;  // any bit beyond bit 0
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kBadFlags);
}

TEST(WireHeader, OversizedPayloadRejectedBeforeBuffering) {
  auto bytes = valid_frame();
  // Patch payload_len (offset 16, u32 LE) to 32 MiB - 1 — beyond both the
  // default bound and the 16 MiB hard limit.
  bytes[16] = 0xFF;
  bytes[17] = 0xFF;
  bytes[18] = 0xFF;
  bytes[19] = 0x01;
  EXPECT_EQ(decode_header(bytes).status, DecodeStatus::kOversized);
  // A tighter receiver bound rejects smaller frames too.
  const auto small = valid_frame();
  EXPECT_EQ(decode_header(small, /*max_frame=*/4).status,
            DecodeStatus::kOversized);
  // And nothing may raise the bound above kMaxFrameLimit.
  EXPECT_EQ(decode_header(bytes, /*max_frame=*/1ull << 40).status,
            DecodeStatus::kOversized);
}

// --- Payload contract -----------------------------------------------------

TEST(WirePayload, TruncatedPayloadRejected) {
  const auto bytes = valid_frame();
  const auto f = split(bytes);
  for (std::size_t len = 0; len < f.payload.size(); ++len) {
    const auto rd = decode_request(f.header, f.payload.subspan(0, len));
    EXPECT_EQ(rd.status, DecodeStatus::kBadPayload) << "len=" << len;
  }
}

TEST(WirePayload, TrailingBytesRejected) {
  auto bytes = valid_frame();
  bytes.push_back(0);
  const auto hd = decode_header(bytes);
  ASSERT_EQ(hd.status, DecodeStatus::kOk);
  // Hand the decoder one byte more than payload_len claims.
  const auto rd = decode_request(
      hd.header, std::span<const std::uint8_t>(bytes).subspan(kHeaderSize));
  EXPECT_EQ(rd.status, DecodeStatus::kBadPayload);
}

TEST(WirePayload, RequestDecoderRejectsResponses) {
  std::vector<std::uint8_t> bytes;
  encode_route_response(bytes, 1, RouteResponse{});
  const auto f = split(bytes);
  EXPECT_EQ(decode_request(f.header, f.payload).status,
            DecodeStatus::kBadType);
}

TEST(WirePayload, ErrorIsResponseOnly) {
  std::vector<std::uint8_t> bytes;
  encode_error_response(bytes, 1, {1, "x"});
  auto hd = decode_header(bytes);
  ASSERT_EQ(hd.status, DecodeStatus::kOk);
  hd.header.response = false;  // forge a request-direction ERROR
  EXPECT_EQ(decode_request(hd.header,
                           std::span<const std::uint8_t>(bytes).subspan(
                               kHeaderSize))
                .status,
            DecodeStatus::kBadType);
}

TEST(WirePayload, HostileHopCountCannotForceAllocation) {
  // A PATH response whose hop_count claims 2^30 entries but whose payload
  // carries none: the decoder must reject before reserving anything.
  PathResponse resp;
  resp.reachable = 1;
  std::vector<std::uint8_t> bytes;
  encode_path_response(bytes, 1, resp);
  // hop_count is the last u32 of the fixed part; empty hops follow. Patch
  // it to a huge value without appending hop data.
  const std::size_t hop_count_at = bytes.size() - 4;
  bytes[hop_count_at] = 0x00;
  bytes[hop_count_at + 1] = 0x00;
  bytes[hop_count_at + 2] = 0x00;
  bytes[hop_count_at + 3] = 0x40;  // 2^30
  const auto hd = decode_header(bytes);
  ASSERT_EQ(hd.status, DecodeStatus::kOk);
  const auto rd = decode_response(
      hd.header, std::span<const std::uint8_t>(bytes).subspan(kHeaderSize));
  EXPECT_EQ(rd.status, DecodeStatus::kBadPayload);
}

TEST(WireCodec, EncodersAppendWithoutClobbering) {
  // Encoders append — back-to-back frames in one buffer is the pipelined
  // server's write path.
  std::vector<std::uint8_t> bytes;
  encode_route_request(bytes, 1, {0, 1});
  const auto first_len = bytes.size();
  encode_ping_request(bytes, 2);
  const auto hd1 = decode_header(bytes);
  ASSERT_EQ(hd1.status, DecodeStatus::kOk);
  EXPECT_EQ(kHeaderSize + hd1.header.payload_len, first_len);
  const auto hd2 = decode_header(
      std::span<const std::uint8_t>(bytes).subspan(first_len));
  ASSERT_EQ(hd2.status, DecodeStatus::kOk);
  EXPECT_EQ(hd2.header.request_id, 2u);
}

// --- Golden frames --------------------------------------------------------
// The exact bytes of one frame per request and response type, written out
// field by field from the layout in wire/protocol.hpp (header: magic,
// version, type, flags, request_id, payload_len). Round trips only prove
// the codec agrees with itself; these pin what goes on the wire.

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(text.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// The 20 u64 counters of the frozen STATS prefix, in wire order (after
/// node_count and published_epoch).
constexpr std::uint64_t StatsResponse::*kStatsCounters[] = {
    &StatsResponse::publish_seq,          &StatsResponse::queries_route,
    &StatsResponse::queries_path,         &StatsResponse::queries_score,
    &StatsResponse::stale_served,         &StatsResponse::rows_built,
    &StatsResponse::rows_discarded,       &StatsResponse::uncached_queries,
    &StatsResponse::seal_violations,      &StatsResponse::retired_pending,
    &StatsResponse::connections_accepted, &StatsResponse::connections_active,
    &StatsResponse::frames_in,            &StatsResponse::frames_out,
    &StatsResponse::decode_errors,        &StatsResponse::error_responses,
    &StatsResponse::idle_closed,          &StatsResponse::bytes_in,
    &StatsResponse::bytes_out,            &StatsResponse::batches,
};

/// The 7 u64 counters of one v2 per-loop entry, in wire order.
constexpr std::uint64_t PerLoopStats::*kLoopCounters[] = {
    &PerLoopStats::connections_accepted, &PerLoopStats::connections_active,
    &PerLoopStats::frames_in,            &PerLoopStats::frames_out,
    &PerLoopStats::bytes_in,             &PerLoopStats::bytes_out,
    &PerLoopStats::batches,
};

/// node_count 2000, published_epoch 11, prefix counters 101..120 and, for
/// loop l, per-loop counters 201 + 100 l .. 207 + 100 l.
StatsResponse golden_stats(std::size_t loops) {
  StatsResponse s;
  s.node_count = 2000;
  s.published_epoch = 11;
  for (std::size_t i = 0; i < std::size(kStatsCounters); ++i) {
    s.*kStatsCounters[i] = 101 + i;
  }
  s.per_loop.resize(loops);
  for (std::size_t l = 0; l < loops; ++l) {
    for (std::size_t j = 0; j < std::size(kLoopCounters); ++j) {
      s.per_loop[l].*kLoopCounters[j] = 201 + 100 * l + j;
    }
  }
  return s;
}

void expect_golden_stats(const StatsResponse& out, std::size_t loops) {
  const StatsResponse want = golden_stats(loops);
  EXPECT_EQ(out.node_count, want.node_count);
  EXPECT_EQ(out.published_epoch, want.published_epoch);
  for (const auto counter : kStatsCounters) {
    EXPECT_EQ(out.*counter, want.*counter);
  }
  ASSERT_EQ(out.per_loop.size(), loops);
  for (std::size_t l = 0; l < loops; ++l) {
    for (const auto counter : kLoopCounters) {
      EXPECT_EQ(out.per_loop[l].*counter, want.per_loop[l].*counter);
    }
  }
}

constexpr char kStatsPrefixHex[] =
    "d0070000" "0b000000"  // node_count 2000, published_epoch 11
    "6500000000000000" "6600000000000000" "6700000000000000"
    "6800000000000000" "6900000000000000" "6a00000000000000"
    "6b00000000000000" "6c00000000000000" "6d00000000000000"
    "6e00000000000000" "6f00000000000000" "7000000000000000"
    "7100000000000000" "7200000000000000" "7300000000000000"
    "7400000000000000" "7500000000000000" "7600000000000000"
    "7700000000000000" "7800000000000000";

TEST(WireGolden, PingFrames) {
  const std::string request =
      "45474f52" "02" "01" "0000" "0100000000000000" "00000000";
  const std::string response =
      "45474f52" "02" "01" "0100" "0100000000000000" "10000000"
      "10270000" "2a000000" "6300000000000000";
  std::vector<std::uint8_t> bytes;
  encode_ping_request(bytes, 1);
  EXPECT_EQ(hex(bytes), request);
  bytes.clear();
  encode_ping_response(bytes, 1, {10000, 42, 99});
  EXPECT_EQ(hex(bytes), response);

  const auto req_bytes = unhex(request);
  const auto f = split(req_bytes);
  const auto req = decode_request(f.header, f.payload);
  ASSERT_EQ(req.status, DecodeStatus::kOk);
  EXPECT_TRUE(std::holds_alternative<PingRequest>(req.request));
  const auto resp_bytes = unhex(response);
  const auto rf = split(resp_bytes);
  const auto resp = decode_response(rf.header, rf.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  const auto& out = std::get<PingResponse>(resp.response);
  EXPECT_EQ(out.node_count, 10000u);
  EXPECT_EQ(out.epoch, 42);
  EXPECT_EQ(out.publish_seq, 99u);
}

TEST(WireGolden, RouteFrames) {
  const std::string request =
      "45474f52" "02" "02" "0000" "0200000000000000" "08000000"
      "7b000000" "ffffffff";
  const std::string response =
      "45474f52" "02" "02" "0100" "0200000000000000" "19000000"
      "01" "11000000" "0000000000000a40" "feffffff" "0000000000010000";
  std::vector<std::uint8_t> bytes;
  encode_route_request(bytes, 2, {123, -1});
  EXPECT_EQ(hex(bytes), request);
  bytes.clear();
  encode_route_response(bytes, 2, {1, 17, 3.25, -2, 1ull << 40});
  EXPECT_EQ(hex(bytes), response);

  const auto req_bytes = unhex(request);
  const auto f = split(req_bytes);
  const auto req = decode_request(f.header, f.payload);
  ASSERT_EQ(req.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<RouteRequest>(req.request).src, 123);
  EXPECT_EQ(std::get<RouteRequest>(req.request).dst, -1);
  const auto resp_bytes = unhex(response);
  const auto rf = split(resp_bytes);
  const auto resp = decode_response(rf.header, rf.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  const auto& out = std::get<RouteResponse>(resp.response);
  EXPECT_EQ(out.reachable, 1);
  EXPECT_EQ(out.next_hop, 17);
  EXPECT_EQ(out.cost, 3.25);
  EXPECT_EQ(out.epoch, -2);
  EXPECT_EQ(out.publish_seq, 1ull << 40);
}

TEST(WireGolden, PathFramesWithAndWithoutHops) {
  const std::string request =
      "45474f52" "02" "03" "0000" "0300000000000000" "08000000"
      "04000000" "09000000";
  const std::string with_hops =
      "45474f52" "02" "03" "0100" "0300000000000000" "29000000"
      "01" "0000000000002940" "03000000" "0800000000000000"
      "04000000" "04000000" "05000000" "02000000" "09000000";
  const std::string without_hops =
      "45474f52" "02" "03" "0100" "0400000000000000" "19000000"
      "00" "000000000000f07f" "03000000" "0800000000000000" "00000000";
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> bytes;
  encode_path_request(bytes, 3, {4, 9});
  EXPECT_EQ(hex(bytes), request);
  bytes.clear();
  encode_path_response(bytes, 3, {1, 12.5, 3, 8, {4, 5, 2, 9}});
  EXPECT_EQ(hex(bytes), with_hops);
  bytes.clear();
  encode_path_response(bytes, 4, {0, inf, 3, 8, {}});
  EXPECT_EQ(hex(bytes), without_hops);

  const auto req_bytes = unhex(request);
  const auto f = split(req_bytes);
  const auto req = decode_request(f.header, f.payload);
  ASSERT_EQ(req.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<PathRequest>(req.request).src, 4);
  EXPECT_EQ(std::get<PathRequest>(req.request).dst, 9);
  const auto hops_bytes = unhex(with_hops);
  const auto hf = split(hops_bytes);
  const auto hops = decode_response(hf.header, hf.payload);
  ASSERT_EQ(hops.status, DecodeStatus::kOk);
  const auto& reachable = std::get<PathResponse>(hops.response);
  EXPECT_EQ(reachable.reachable, 1);
  EXPECT_EQ(reachable.cost, 12.5);
  EXPECT_EQ(reachable.epoch, 3);
  EXPECT_EQ(reachable.publish_seq, 8u);
  EXPECT_EQ(reachable.hops, (std::vector<std::int32_t>{4, 5, 2, 9}));
  const auto none_bytes = unhex(without_hops);
  const auto nf = split(none_bytes);
  const auto none = decode_response(nf.header, nf.payload);
  ASSERT_EQ(none.status, DecodeStatus::kOk);
  const auto& unreachable = std::get<PathResponse>(none.response);
  EXPECT_EQ(unreachable.reachable, 0);
  EXPECT_EQ(unreachable.cost, inf);
  EXPECT_TRUE(unreachable.hops.empty());
}

TEST(WireGolden, ScoreFrames) {
  const std::string request =
      "45474f52" "02" "04" "0000" "0500000000000000" "04000000"
      "07000000";
  const std::string response =
      "45474f52" "02" "04" "0100" "0500000000000000" "14000000"
      "000000000000f8bf" "06000000" "4d00000000000000";
  std::vector<std::uint8_t> bytes;
  encode_score_request(bytes, 5, {7});
  EXPECT_EQ(hex(bytes), request);
  bytes.clear();
  encode_score_response(bytes, 5, {-1.5, 6, 77});
  EXPECT_EQ(hex(bytes), response);

  const auto req_bytes = unhex(request);
  const auto f = split(req_bytes);
  const auto req = decode_request(f.header, f.payload);
  ASSERT_EQ(req.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<ScoreRequest>(req.request).node, 7);
  const auto resp_bytes = unhex(response);
  const auto rf = split(resp_bytes);
  const auto resp = decode_response(rf.header, rf.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  const auto& out = std::get<ScoreResponse>(resp.response);
  EXPECT_EQ(out.score, -1.5);
  EXPECT_EQ(out.epoch, 6);
  EXPECT_EQ(out.publish_seq, 77u);
}

TEST(WireGolden, StatsFramesWithTwoLoops) {
  const std::string request =
      "45474f52" "02" "05" "0000" "0600000000000000" "00000000";
  const std::string response =
      std::string("45474f52" "02" "05" "0100" "0600000000000000" "1c010000") +
      kStatsPrefixHex +
      "02000000"  // loop count
      "c900000000000000" "ca00000000000000" "cb00000000000000"
      "cc00000000000000" "cd00000000000000" "ce00000000000000"
      "cf00000000000000"
      "2d01000000000000" "2e01000000000000" "2f01000000000000"
      "3001000000000000" "3101000000000000" "3201000000000000"
      "3301000000000000";
  std::vector<std::uint8_t> bytes;
  encode_stats_request(bytes, 6);
  EXPECT_EQ(hex(bytes), request);
  bytes.clear();
  encode_stats_response(bytes, 6, golden_stats(2));
  EXPECT_EQ(hex(bytes), response);

  const auto req_bytes = unhex(request);
  const auto f = split(req_bytes);
  const auto req = decode_request(f.header, f.payload);
  ASSERT_EQ(req.status, DecodeStatus::kOk);
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(req.request));
  const auto resp_bytes = unhex(response);
  const auto rf = split(resp_bytes);
  const auto resp = decode_response(rf.header, rf.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  expect_golden_stats(std::get<StatsResponse>(resp.response), 2);
}

TEST(WireGolden, HandBuiltV1StatsFrameDecodesWithoutPerLoop) {
  // What a version-1 peer sends: the 22-field prefix and nothing after it.
  const auto bytes = unhex(
      std::string("45474f52" "01" "05" "0100" "0900000000000000" "a8000000") +
      kStatsPrefixHex);
  const auto f = split(bytes);
  EXPECT_EQ(f.header.version, 1);
  const auto resp = decode_response(f.header, f.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  expect_golden_stats(std::get<StatsResponse>(resp.response), 0);
}

TEST(WireGolden, ErrorFrame) {
  const std::string response =
      "45474f52" "02" "06" "0100" "0700000000000000" "1a000000"
      "0300" "14000000"
      "6e6f6465206964206f7574206f662072616e6765";  // "node id out of range"
  std::vector<std::uint8_t> bytes;
  encode_error_response(bytes, 7, {3, "node id out of range"});
  EXPECT_EQ(hex(bytes), response);

  const auto resp_bytes = unhex(response);
  const auto rf = split(resp_bytes);
  const auto resp = decode_response(rf.header, rf.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  const auto& out = std::get<ErrorResponse>(resp.response);
  EXPECT_EQ(out.code, 3);
  EXPECT_EQ(out.message, "node id out of range");
}

TEST(WireGolden, BatchRouteFramesBothDirections) {
  const std::string request =
      "45474f52" "02" "07" "0000" "0800000000000000" "14000000"
      "02000000" "01000000" "02000000" "03000000" "fcffffff";
  const std::string response =
      "45474f52" "02" "07" "0100" "0800000000000000" "2a000000"
      "05000000" "0600000000000000" "02000000"
      "01" "02000000" "000000000000d03f"
      "00" "ffffffff" "000000000000f07f";
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> bytes;
  encode_batch_route_request(bytes, 8, {{{1, 2}, {3, -4}}});
  EXPECT_EQ(hex(bytes), request);
  bytes.clear();
  encode_batch_route_response(bytes, 8, {5, 6, {{1, 2, 0.25}, {0, -1, inf}}});
  EXPECT_EQ(hex(bytes), response);

  const auto req_bytes = unhex(request);
  const auto f = split(req_bytes);
  const auto req = decode_request(f.header, f.payload);
  ASSERT_EQ(req.status, DecodeStatus::kOk);
  const auto& pairs = std::get<BatchRouteRequest>(req.request).pairs;
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].src, 1);
  EXPECT_EQ(pairs[0].dst, 2);
  EXPECT_EQ(pairs[1].src, 3);
  EXPECT_EQ(pairs[1].dst, -4);
  const auto resp_bytes = unhex(response);
  const auto rf = split(resp_bytes);
  const auto resp = decode_response(rf.header, rf.payload);
  ASSERT_EQ(resp.status, DecodeStatus::kOk);
  const auto& out = std::get<BatchRouteResponse>(resp.response);
  EXPECT_EQ(out.epoch, 5);
  EXPECT_EQ(out.publish_seq, 6u);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].reachable, 1);
  EXPECT_EQ(out.entries[0].next_hop, 2);
  EXPECT_EQ(out.entries[0].cost, 0.25);
  EXPECT_EQ(out.entries[1].reachable, 0);
  EXPECT_EQ(out.entries[1].next_hop, -1);
  EXPECT_EQ(out.entries[1].cost, inf);
}

}  // namespace
}  // namespace egoist::wire
