#include "wire/protocol.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
#include <type_traits>
#include <utility>

namespace egoist::wire {

namespace {

/// Constrains a field list to one payload type, const (encode) or not
/// (decode).
template <typename M, typename T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// The unsigned integer as wide as T. Every field travels as the
/// little-endian bytes of its bit pattern; doubles as their IEEE-754 bits,
/// so NaN survives.
template <typename T>
using Bits = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>>>;

// Byte-at-a-time little-endian on both sides: endian-independent, no
// alignment or aliasing traps, and the compiler folds the loops into
// single moves on LE targets.

/// Appends fields to a frame. Encoders always emit kVersion, so every
/// version-gated part of a field list is written.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  std::uint8_t version() const { return kVersion; }

  template <typename T>
  bool operator()(const T& v) {
    const auto bits = std::bit_cast<Bits<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
    return true;
  }

  void bytes(std::span<const std::uint8_t> data) {
    out_->insert(out_->end(), data.begin(), data.end());
  }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked cursor over one frame's bytes. Every read returns false
/// (and leaves the output untouched) instead of reading past the end, so a
/// truncated payload can never over-read.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes,
                  std::uint8_t version = kVersion)
      : bytes_(bytes), version_(version) {}

  /// The version of the frame being read (gates v2+ appendices).
  std::uint8_t version() const { return version_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

  template <typename T>
  bool operator()(T& v) {
    if (remaining() < sizeof(T)) return false;
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bits |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
    }
    pos_ += sizeof(T);
    v = std::bit_cast<T>(static_cast<Bits<T>>(bits));
    return true;
  }

  bool bytes(std::size_t len, std::span<const std::uint8_t>& out) {
    if (remaining() < len) return false;
    out = bytes_.subspan(pos_, len);
    pos_ += len;
    return true;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::uint8_t version_;
};

/// Counts the bytes a fixed-size field list covers: the stride of a list
/// item, derived from the same field list that encodes and decodes it.
struct Sizer {
  std::size_t bytes = 0;
  template <typename T>
  constexpr bool operator()(const T&) {
    bytes += sizeof(T);
    return true;
  }
};

// --- Field lists ----------------------------------------------------------
// One function per payload type names its fields in wire order. Applied to
// a Writer it encodes, applied to a Reader it decodes; list() and text()
// carry the only variable-length parts.

constexpr bool fields(auto& io, Of<BatchRoutePair> auto& m) {
  return io(m.src) && io(m.dst);
}

constexpr bool fields(auto& io, Of<BatchRouteEntry> auto& m) {
  return io(m.reachable) && io(m.next_hop) && io(m.cost);
}

constexpr bool fields(auto& io, Of<PerLoopStats> auto& m) {
  return io(m.connections_accepted) && io(m.connections_active) &&
         io(m.frames_in) && io(m.frames_out) && io(m.bytes_in) &&
         io(m.bytes_out) && io(m.batches);
}

/// One list item: a number travels as itself, a struct as its field list.
template <typename IO, typename T>
constexpr bool item(IO& io, T& x) {
  if constexpr (std::is_arithmetic_v<std::remove_const_t<T>>) {
    return io(x);
  } else {
    return fields(io, x);
  }
}

template <typename T>
constexpr std::size_t wire_size() {
  Sizer sizer;
  T x{};
  item(sizer, x);
  return sizer.bytes;
}

/// Whether a list may carry zero items. Only BATCH_ROUTE rejects an empty
/// list (both directions): an empty batch is always a framing bug.
enum class Empty { kAllowed, kRejected };

/// A u32 count, then `count` fixed-size items.
template <typename T>
bool list(Writer& w, const std::vector<T>& items, Empty) {
  w(static_cast<std::uint32_t>(items.size()));
  for (const auto& x : items) item(w, x);
  return true;
}

/// The one hostile-count check. A list is always the last part of its
/// payload, so its items must tile the rest of the payload exactly. The
/// count is widened to u64 before the multiply, so a count near UINT32_MAX
/// cannot wrap to a small product, and the exact tiling bounds the
/// allocation by the (already size-capped) frame.
template <typename T>
bool list(Reader& r, std::vector<T>& items, Empty empty) {
  std::uint32_t count = 0;
  if (!r(count)) return false;
  if (count == 0 && empty == Empty::kRejected) return false;
  if (r.remaining() != std::uint64_t{count} * wire_size<T>()) return false;
  items.resize(count);
  for (auto& x : items) item(r, x);
  return true;
}

/// The ERROR message: a u32 byte length, then the bytes.
bool text(Writer& w, const std::string& s) {
  w(static_cast<std::uint32_t>(s.size()));
  w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  return true;
}

bool text(Reader& r, std::string& s) {
  std::uint32_t len = 0;
  std::span<const std::uint8_t> chars;
  if (!r(len) || !r.bytes(len, chars)) return false;
  s.assign(reinterpret_cast<const char*>(chars.data()), chars.size());
  return true;
}

bool fields(auto&, Of<PingRequest> auto&) { return true; }

bool fields(auto& io, Of<RouteRequest> auto& m) {
  return io(m.src) && io(m.dst);
}

bool fields(auto& io, Of<PathRequest> auto& m) {
  return io(m.src) && io(m.dst);
}

bool fields(auto& io, Of<ScoreRequest> auto& m) { return io(m.node); }

bool fields(auto&, Of<StatsRequest> auto&) { return true; }

bool fields(auto& io, Of<BatchRouteRequest> auto& m) {
  return list(io, m.pairs, Empty::kRejected);
}

bool fields(auto& io, Of<PingResponse> auto& m) {
  return io(m.node_count) && io(m.epoch) && io(m.publish_seq);
}

bool fields(auto& io, Of<RouteResponse> auto& m) {
  return io(m.reachable) && io(m.next_hop) && io(m.cost) && io(m.epoch) &&
         io(m.publish_seq);
}

bool fields(auto& io, Of<PathResponse> auto& m) {
  return io(m.reachable) && io(m.cost) && io(m.epoch) &&
         io(m.publish_seq) && list(io, m.hops, Empty::kAllowed);
}

bool fields(auto& io, Of<ScoreResponse> auto& m) {
  return io(m.score) && io(m.epoch) && io(m.publish_seq);
}

bool fields(auto& io, Of<StatsResponse> auto& m) {
  return io(m.node_count) && io(m.published_epoch) && io(m.publish_seq) &&
         io(m.queries_route) && io(m.queries_path) && io(m.queries_score) &&
         io(m.stale_served) && io(m.rows_built) && io(m.rows_discarded) &&
         io(m.uncached_queries) && io(m.seal_violations) &&
         io(m.retired_pending) && io(m.connections_accepted) &&
         io(m.connections_active) && io(m.frames_in) && io(m.frames_out) &&
         io(m.decode_errors) && io(m.error_responses) && io(m.idle_closed) &&
         io(m.bytes_in) && io(m.bytes_out) && io(m.batches) &&
         // v1 frames stop at the frozen 22-field prefix; v2 appends the
         // per-loop breakdown.
         (io.version() < 2 || list(io, m.per_loop, Empty::kAllowed));
}

bool fields(auto& io, Of<ErrorResponse> auto& m) {
  return io(m.code) && text(io, m.message);
}

bool fields(auto& io, Of<BatchRouteResponse> auto& m) {
  return io(m.epoch) && io(m.publish_seq) &&
         list(io, m.entries, Empty::kRejected);
}

/// Appends header + payload; the payload length is patched in after the
/// field list ran, so encoders never pre-compute sizes.
template <typename M>
void encode_frame(std::vector<std::uint8_t>& out, MsgType type, bool response,
                  std::uint64_t id, const M& msg) {
  const std::size_t header_at = out.size();
  Writer w(out);
  w(kMagic);
  w(kVersion);
  w(static_cast<std::uint8_t>(type));
  w(static_cast<std::uint16_t>(response ? 1 : 0));
  w(id);
  w(std::uint32_t{0});
  const std::size_t payload_at = out.size();
  fields(w, msg);
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(out.size() - payload_at);
  // Patch payload_len (last 4 header bytes), little-endian.
  for (int i = 0; i < 4; ++i) {
    out[header_at + kHeaderSize - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
}

/// Decodes `payload` as an `M` into `out`: kOk only when the field list
/// reads it completely and exactly; `out` is untouched otherwise.
template <typename M, typename Variant>
DecodeStatus decode_payload(const FrameHeader& header,
                            std::span<const std::uint8_t> payload,
                            Variant& out) {
  M msg;
  Reader r(payload, header.version);
  if (!fields(r, msg) || !r.exhausted()) return DecodeStatus::kBadPayload;
  out = std::move(msg);
  return DecodeStatus::kOk;
}

}  // namespace

bool is_known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kPing) &&
         raw <= static_cast<std::uint8_t>(MsgType::kBatchRoute);
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kBadFlags: return "bad-flags";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

// --- Encoders -------------------------------------------------------------

void encode_ping_request(std::vector<std::uint8_t>& out, std::uint64_t id) {
  encode_frame(out, MsgType::kPing, false, id, PingRequest{});
}

void encode_route_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const RouteRequest& req) {
  encode_frame(out, MsgType::kRoute, false, id, req);
}

void encode_path_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                         const PathRequest& req) {
  encode_frame(out, MsgType::kPath, false, id, req);
}

void encode_score_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const ScoreRequest& req) {
  encode_frame(out, MsgType::kScore, false, id, req);
}

void encode_stats_request(std::vector<std::uint8_t>& out, std::uint64_t id) {
  encode_frame(out, MsgType::kStats, false, id, StatsRequest{});
}

void encode_batch_route_request(std::vector<std::uint8_t>& out,
                                std::uint64_t id,
                                const BatchRouteRequest& req) {
  encode_frame(out, MsgType::kBatchRoute, false, id, req);
}

void encode_ping_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const PingResponse& resp) {
  encode_frame(out, MsgType::kPing, true, id, resp);
}

void encode_route_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const RouteResponse& resp) {
  encode_frame(out, MsgType::kRoute, true, id, resp);
}

void encode_path_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                          const PathResponse& resp) {
  encode_frame(out, MsgType::kPath, true, id, resp);
}

void encode_score_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const ScoreResponse& resp) {
  encode_frame(out, MsgType::kScore, true, id, resp);
}

void encode_stats_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const StatsResponse& resp) {
  encode_frame(out, MsgType::kStats, true, id, resp);
}

void encode_error_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const ErrorResponse& resp) {
  encode_frame(out, MsgType::kError, true, id, resp);
}

void encode_batch_route_response(std::vector<std::uint8_t>& out,
                                 std::uint64_t id,
                                 const BatchRouteResponse& resp) {
  encode_frame(out, MsgType::kBatchRoute, true, id, resp);
}

// --- Decoders -------------------------------------------------------------

HeaderDecode decode_header(std::span<const std::uint8_t> bytes,
                           std::size_t max_frame) {
  HeaderDecode out;
  if (bytes.size() < kHeaderSize) {
    out.status = DecodeStatus::kNeedMore;
    return out;
  }
  Reader r(bytes.first(kHeaderSize));
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  r(magic);
  r(version);
  r(type);
  r(flags);
  r(out.header.request_id);
  r(out.header.payload_len);
  if (magic != kMagic) {
    out.status = DecodeStatus::kBadMagic;
    return out;
  }
  if (version < kMinVersion || version > kVersion) {
    out.status = DecodeStatus::kBadVersion;
    return out;
  }
  if (!is_known_type(type)) {
    out.status = DecodeStatus::kBadType;
    return out;
  }
  // BATCH_ROUTE is a v2 addition: a v1 peer that never learned the type
  // gets the same kBadType it would produce itself.
  if (static_cast<MsgType>(type) == MsgType::kBatchRoute && version < 2) {
    out.status = DecodeStatus::kBadType;
    return out;
  }
  if ((flags & ~std::uint16_t{1}) != 0) {
    out.status = DecodeStatus::kBadFlags;
    return out;
  }
  const std::size_t bound = std::min(max_frame, kMaxFrameLimit);
  if (out.header.payload_len > bound) {
    out.status = DecodeStatus::kOversized;
    return out;
  }
  out.header.version = version;
  out.header.type = static_cast<MsgType>(type);
  out.header.response = (flags & 1) != 0;
  out.status = DecodeStatus::kOk;
  return out;
}

RequestDecode decode_request(const FrameHeader& header,
                             std::span<const std::uint8_t> payload) {
  RequestDecode out;
  if (header.response || header.type == MsgType::kError) {
    out.status = DecodeStatus::kBadType;
    return out;
  }
  if (payload.size() != header.payload_len) return out;
  auto& req = out.request;
  switch (header.type) {
    case MsgType::kPing:
      out.status = decode_payload<PingRequest>(header, payload, req);
      break;
    case MsgType::kRoute:
      out.status = decode_payload<RouteRequest>(header, payload, req);
      break;
    case MsgType::kPath:
      out.status = decode_payload<PathRequest>(header, payload, req);
      break;
    case MsgType::kScore:
      out.status = decode_payload<ScoreRequest>(header, payload, req);
      break;
    case MsgType::kStats:
      out.status = decode_payload<StatsRequest>(header, payload, req);
      break;
    case MsgType::kBatchRoute:
      out.status = decode_payload<BatchRouteRequest>(header, payload, req);
      break;
    case MsgType::kError:
      break;  // unreachable (rejected above)
  }
  return out;
}

ResponseDecode decode_response(const FrameHeader& header,
                               std::span<const std::uint8_t> payload) {
  ResponseDecode out;
  if (!header.response) {
    out.status = DecodeStatus::kBadType;
    return out;
  }
  if (payload.size() != header.payload_len) return out;
  auto& resp = out.response;
  switch (header.type) {
    case MsgType::kPing:
      out.status = decode_payload<PingResponse>(header, payload, resp);
      break;
    case MsgType::kRoute:
      out.status = decode_payload<RouteResponse>(header, payload, resp);
      break;
    case MsgType::kPath:
      out.status = decode_payload<PathResponse>(header, payload, resp);
      break;
    case MsgType::kScore:
      out.status = decode_payload<ScoreResponse>(header, payload, resp);
      break;
    case MsgType::kStats:
      out.status = decode_payload<StatsResponse>(header, payload, resp);
      break;
    case MsgType::kError:
      out.status = decode_payload<ErrorResponse>(header, payload, resp);
      break;
    case MsgType::kBatchRoute:
      out.status = decode_payload<BatchRouteResponse>(header, payload, resp);
      break;
  }
  return out;
}

}  // namespace egoist::wire
