// The egoistd wire protocol: versioned, length-prefixed binary frames.
//
// This is the out-of-process leg of the serving stack (the in-process leg
// is host::RouteService). A client and the rpc::Server exchange frames,
// each a fixed 20-byte header followed by a typed payload:
//
//   offset  size  field
//        0     4  magic        "EGOR" (0x45 0x47 0x4F 0x52 on the wire)
//        4     1  version      kMinVersion..kVersion; others are rejected
//        5     1  type         MsgType (PING / ROUTE / PATH / SCORE /
//                              STATS / ERROR / BATCH_ROUTE)
//        6     2  flags        bit 0: response; all other bits must be 0
//        8     8  request_id   echoed verbatim in the matching response
//       16     4  payload_len  bytes that follow; bounded by max_frame
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern in a u64 (NaN survives — SCORE of an offline node is NaN by
// contract). The header's payload_len is validated against the receiver's
// max_frame bound BEFORE any payload is buffered, so a hostile length
// cannot force an allocation.
//
// Decoding never throws and never over-reads: every primitive read is
// bounds-checked against the frame it was handed, truncated or malformed
// input yields a typed DecodeStatus, and a payload that does not consume
// exactly payload_len bytes is rejected (kBadPayload). kNeedMore is not an
// error — it tells a streaming caller to buffer more bytes.
//
// Each payload layout is written once: protocol.cpp holds one field list
// per payload type that drives both its encoder and its decoder, and one
// list helper owns every count-prefixed list (u32 count, exact tiling of
// the rest of the payload, u64 multiply). The encode_* functions and
// decode_request/decode_response below are thin wrappers over them.
//
// Versioning rule: the header layout (magic through payload_len) is frozen
// forever; bumping kVersion is reserved for payload-format changes. A
// receiver speaks the half-open range [kMinVersion, kVersion]: frames
// carrying any version it speaks are accepted (the decoded FrameHeader
// records which one), anything else is rejected (kBadVersion) rather than
// guessed at. Version 2 appended the per-loop breakdown to the STATS
// response — the 22 shared fields are a frozen prefix, so a v2 receiver
// still parses a v1 STATS frame (empty per_loop) — and introduced
// BATCH_ROUTE, which is rejected (kBadType) on a v1 frame. New message
// types extend the enum without a version bump; unknown types are
// rejected (kBadType).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace egoist::wire {

inline constexpr std::uint32_t kMagic = 0x524F4745u;  // "EGOR" little-endian
inline constexpr std::uint8_t kVersion = 2;     ///< what encoders emit
inline constexpr std::uint8_t kMinVersion = 1;  ///< oldest version accepted
inline constexpr std::size_t kHeaderSize = 20;

/// Default per-frame payload bound; servers and clients may lower it, and
/// nothing may raise it above kMaxFrameLimit.
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;  // 1 MiB
inline constexpr std::size_t kMaxFrameLimit = 16u << 20;   // 16 MiB

enum class MsgType : std::uint8_t {
  kPing = 1,   ///< liveness + deployment shape (node count, publish seq)
  kRoute = 2,  ///< next hop + cost of a shortest announced-cost path
  kPath = 3,   ///< full hop list of same
  kScore = 4,  ///< single-node routing-cost score (NaN when offline)
  kStats = 5,  ///< service + server counters
  kError = 6,  ///< response-only: typed failure for one request
  kBatchRoute = 7,  ///< many ROUTE lookups in one frame (v2+)
};

/// True for values that name a known message type.
bool is_known_type(std::uint8_t raw);

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kNeedMore,     ///< streaming: not enough bytes yet (never an error)
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadFlags,     ///< reserved flag bits set
  kOversized,    ///< payload_len exceeds the receiver's max_frame bound
  kBadPayload,   ///< payload truncated, trailing, or semantically malformed
};

const char* to_string(DecodeStatus status);

struct FrameHeader {
  std::uint8_t version = kVersion;
  MsgType type = MsgType::kPing;
  bool response = false;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

// --- Typed payloads -------------------------------------------------------

struct PingRequest {};

struct PingResponse {
  std::uint32_t node_count = 0;   ///< overlay size n
  std::int32_t epoch = 0;         ///< epoch of the current publication
  std::uint64_t publish_seq = 0;
};

struct RouteRequest {
  std::int32_t src = -1;
  std::int32_t dst = -1;
};

struct RouteResponse {
  std::uint8_t reachable = 0;
  std::int32_t next_hop = -1;
  double cost = 0.0;              ///< +inf when unreachable
  std::int32_t epoch = 0;
  std::uint64_t publish_seq = 0;
};

struct PathRequest {
  std::int32_t src = -1;
  std::int32_t dst = -1;
};

struct PathResponse {
  std::uint8_t reachable = 0;
  double cost = 0.0;
  std::int32_t epoch = 0;
  std::uint64_t publish_seq = 0;
  std::vector<std::int32_t> hops;  ///< src..dst; empty when unreachable
};

struct ScoreRequest {
  std::int32_t node = -1;
};

/// One (src, dst) lookup inside a BATCH_ROUTE frame.
struct BatchRoutePair {
  std::int32_t src = -1;
  std::int32_t dst = -1;
};

/// BATCH_ROUTE request: one header, u32 count, then `count` packed
/// src/dst pairs (8 bytes each). A pipelined client that used to send
/// depth-16 ROUTE frames (16 header decodes, 16 response sends) sends one
/// frame and gets one response frame back. count == 0 is rejected
/// (kBadPayload) — an empty batch is always a framing bug — and count must
/// tile the payload exactly, so a hostile count can neither over-read nor
/// force an allocation beyond the (already bounded) frame.
struct BatchRouteRequest {
  std::vector<BatchRoutePair> pairs;
};

/// One answer slot of a BATCH_ROUTE response (13 bytes packed).
struct BatchRouteEntry {
  std::uint8_t reachable = 0;
  std::int32_t next_hop = -1;
  double cost = 0.0;  ///< +inf when unreachable
};

/// BATCH_ROUTE response: epoch + publish_seq once (the whole batch is
/// answered off ONE pinned snapshot, so they are shared by construction),
/// then `count` packed entries in request order.
struct BatchRouteResponse {
  std::int32_t epoch = 0;
  std::uint64_t publish_seq = 0;
  std::vector<BatchRouteEntry> entries;
};

struct ScoreResponse {
  double score = 0.0;             ///< NaN for an offline node
  std::int32_t epoch = 0;
  std::uint64_t publish_seq = 0;
};

struct StatsRequest {};

/// Per-event-loop slice of the server's transport counters (v2+). The
/// shared StatsResponse fields hold the exact aggregate; these are the
/// per-loop break-down a multi-loop server serves from.
struct PerLoopStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t batches = 0;
};

/// One coherent sample of the daemon's counters: the RouteService's
/// publication/query telemetry plus the rpc::Server's transport counters.
/// The 22 fields up to `batches` are a frozen prefix shared with wire
/// version 1; version 2 appends the per-loop breakdown, and a v1 frame
/// decodes with `per_loop` empty — old clients still parse the shared
/// fields, old frames still satisfy new receivers.
struct StatsResponse {
  std::uint32_t node_count = 0;
  std::int32_t published_epoch = 0;
  std::uint64_t publish_seq = 0;
  // RouteService (host/route_service.hpp Stats)
  std::uint64_t queries_route = 0;
  std::uint64_t queries_path = 0;
  std::uint64_t queries_score = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t rows_built = 0;
  std::uint64_t rows_discarded = 0;
  std::uint64_t uncached_queries = 0;
  std::uint64_t seal_violations = 0;
  std::uint64_t retired_pending = 0;
  // rpc::Server
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t error_responses = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t batches = 0;        ///< dispatch batches == snapshot pins
  // v2+: per-event-loop breakdown (empty when decoded from a v1 frame).
  std::vector<PerLoopStats> per_loop;
};

enum class ErrorCode : std::uint16_t {
  kMalformedFrame = 1,  ///< header-level garbage; the connection will close
  kBadRequest = 2,      ///< payload undecodable for its advertised type
  kOutOfRange = 3,      ///< node id outside [0, n)
  kShuttingDown = 4,    ///< server draining; retry elsewhere
};

struct ErrorResponse {
  std::uint16_t code = 0;
  std::string message;            ///< short human-readable diagnostic
};

using Request = std::variant<PingRequest, RouteRequest, PathRequest,
                             ScoreRequest, StatsRequest, BatchRouteRequest>;
using Response =
    std::variant<PingResponse, RouteResponse, PathResponse, ScoreResponse,
                 StatsResponse, ErrorResponse, BatchRouteResponse>;

// --- Encoding -------------------------------------------------------------
// Every encoder appends one complete frame (header + payload) to `out`.

void encode_ping_request(std::vector<std::uint8_t>& out, std::uint64_t id);
void encode_route_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const RouteRequest& req);
void encode_path_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                         const PathRequest& req);
void encode_score_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const ScoreRequest& req);
void encode_stats_request(std::vector<std::uint8_t>& out, std::uint64_t id);
void encode_batch_route_request(std::vector<std::uint8_t>& out,
                                std::uint64_t id,
                                const BatchRouteRequest& req);

void encode_ping_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const PingResponse& resp);
void encode_route_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const RouteResponse& resp);
void encode_path_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const PathResponse& resp);
void encode_score_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const ScoreResponse& resp);
void encode_stats_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const StatsResponse& resp);
void encode_error_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const ErrorResponse& resp);
void encode_batch_route_response(std::vector<std::uint8_t>& out,
                                 std::uint64_t id,
                                 const BatchRouteResponse& resp);

// --- Decoding -------------------------------------------------------------

struct HeaderDecode {
  DecodeStatus status = DecodeStatus::kNeedMore;
  FrameHeader header;
};

/// Validates the fixed header at the front of `bytes`. kNeedMore when
/// fewer than kHeaderSize bytes are available; kOversized when payload_len
/// exceeds `max_frame`. Does not look at the payload.
HeaderDecode decode_header(std::span<const std::uint8_t> bytes,
                           std::size_t max_frame = kDefaultMaxFrame);

struct RequestDecode {
  DecodeStatus status = DecodeStatus::kBadPayload;
  Request request;
};

struct ResponseDecode {
  DecodeStatus status = DecodeStatus::kBadPayload;
  Response response;
};

/// Decodes the payload of a request frame whose header already validated.
/// `payload` must be exactly header.payload_len bytes; under- or
/// over-consumption yields kBadPayload. A response-flagged header or an
/// ERROR type yields kBadType (ERROR is response-only).
RequestDecode decode_request(const FrameHeader& header,
                             std::span<const std::uint8_t> payload);

/// Decodes the payload of a response frame whose header already validated.
ResponseDecode decode_response(const FrameHeader& header,
                               std::span<const std::uint8_t> payload);

}  // namespace egoist::wire
