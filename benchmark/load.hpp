// Traffic for the serving workloads: the seeded query mixes, the
// closed-loop clients (rpc::Client, pipelined or BATCH_ROUTE) and the
// open-loop generator (wire:: codec over raw non-blocking UDS sockets,
// each request timed from its scheduled send time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/serve_workload.hpp"
#include "util/rng.hpp"

namespace egoist::bench {

/// Who asks for which routes. Sources and destinations are drawn from the
/// nodes online in one snapshot; a Zipf rank r maps to the r-th of them.
class QueryMix {
 public:
  enum class Kind {
    kHot,     ///< a few hot sources (exp::hot_source_pool), Zipf destinations
    kSpread,  ///< every online node asks, uniform destinations
  };

  QueryMix(Kind kind, const host::WiringSnapshot& snap, std::size_t hot_sources,
           double zipf_exponent, std::uint64_t seed);

  std::int32_t draw_src(util::Rng& rng) const;
  std::int32_t draw_dst(util::Rng& rng) const;

 private:
  Kind kind_;
  std::vector<std::int32_t> online_;
  std::vector<std::int32_t> sources_;
  exp::ZipfSampler zipf_;
};

/// One answer kept for the oracle: the query and everything the daemon
/// said about it.
struct Recorded {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t epoch = 0;
  std::uint64_t publish_seq = 0;
  std::uint8_t reachable = 0;
  std::int32_t next_hop = -1;
  double cost = 0.0;
};

/// One timed phase. Rates and latencies are taken per time slice and
/// reported as the median slice, so a short stall of a shared CPU moves
/// one slice rather than the run's figure.
struct PhaseResult {
  std::uint64_t answers = 0;
  std::uint64_t failed = 0;  ///< RpcError, timeout, ERROR frame, unanswered
  std::uint64_t unreachable = 0;
  std::vector<Recorded> recorded;
  std::vector<std::string> errors;

  std::vector<double> slice_qps;      ///< closed loop: answers/s per slice
  std::vector<double> slice_p50_ns;   ///< open loop: per slice, from the
  std::vector<double> slice_p90_ns;   ///< scheduled send time
  std::uint64_t sent = 0;             ///< open loop: requests sent
  std::uint64_t late_sends = 0;       ///< sent > 50 us after schedule
  double sampled_request_ns = 0.0;    ///< traced requests' total span time
  double sampled_client_ns = 0.0;     ///< ... of which client-side children
};

/// Closed loop: `conns` rpc::Client threads over UDS, each sending
/// `depth` pipelined ROUTE frames (or one BATCH_ROUTE of `depth`) and
/// waiting for every answer before the next burst, for `seconds` in
/// slices of `slice_s`. Every `record_every`-th answer is kept for the
/// oracle.
PhaseResult run_closed(const std::string& uds_path, const QueryMix& mix,
                       int conns, int depth, bool batch, double seconds,
                       double slice_s, std::uint64_t seed,
                       std::size_t record_every);

/// Open loop: evenly spaced sends at `rate` requests/s for `seconds`, spread
/// round-robin over `conns` connections and driven by one thread; requests
/// are grouped into slices of `slice_s` by scheduled send time. Every
/// answer is kept for the oracle. With a tracer, one request in
/// `sample_every` gets request / client.encode / client.send /
/// client.recv_decode spans.
PhaseResult run_open(const std::string& uds_path, const QueryMix& mix,
                     int conns, double rate, double seconds, double slice_s,
                     std::uint64_t seed, Tracer& tracer,
                     std::size_t sample_every);

}  // namespace egoist::bench
