// RouteService — a thread-safe query front end over one overlay's latest
// published WiringSnapshot.
//
// The overlays exist to route traffic; this is the layer that answers
// route(src, dst) / path(src, dst) / score(node) queries from reader
// threads WHILE the host's epoch engine (sequential, parallel, or
// incremental) keeps rewiring on its own thread. The protocol is RCU-style
// publish/read/reclaim over immutable snapshots:
//
//   publish  (host thread)  On every on_epoch_end the service captures a
//                           fresh WiringSnapshot, wraps it in a ServingView
//                           and swaps it into the published-view slot. The
//                           previous view moves to the retired list. The
//                           service subscribes in its constructor, so
//                           epoch-end observers registered AFTER the
//                           service always see the just-published epoch
//                           (subscription callbacks fire in subscription
//                           order — OverlayHost's dispatch contract).
//   read     (any thread)   acquire() copies the current view out of the
//                           slot and pins it via refcount; queries answer
//                           from that view only, so every answer is
//                           internally consistent with exactly one
//                           published snapshot — never a torn mix.
//   reclaim  (host thread)  A retired view is freed only once its refcount
//                           has drained to the retired list's own reference
//                           (the grace period: all in-flight readers have
//                           released it). At that point the payload seal —
//                           a checksum recorded at publication
//                           (WiringSnapshot::payload_checksum) — is
//                           re-verified; a mismatch means some writer
//                           mutated a published payload, and reclaim()
//                           throws.
//
// Query answers are shortest paths over the snapshot's ANNOUNCED graph
// (what the link-state protocol carried — the paper's standard
// shortest-path routing over the selfishly built topology, §2.1), searched
// on a CSR copy of it that each view builds at publication
// (graph::CsrSearch). Per-source rows are built lazily on first use,
// published into the view with a compare-exchange (duplicate builders
// discard), and capped by Options::max_cached_sources. A query from a
// source beyond the cap runs the same search on a per-thread scratch and
// stops once dst is settled; the search settles nodes in (dist, id) order,
// so that answer, its first hop and its path equal the full row's bit for
// bit. score(node) is the single-node routing-cost score over the
// true-cost graph (WiringSnapshot::node_cost).
//
// Threading contract: publish(), reclaim(), construction and destruction
// belong to the host (simulator) thread; acquire(), route(), path(),
// score() and stats() are safe from any thread. The service must be
// destroyed before its OverlayHost, and a ServedSnapshot never outlives
// the data it pins (views and counters are shared_ptr-owned), so readers
// may hold one across swaps — the staleness counter records exactly that.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/shortest_path.hpp"
#include "host/overlay_host.hpp"
#include "host/wiring_snapshot.hpp"

namespace egoist::host {

/// Answer to route(src, dst): the first hop of a shortest announced-cost
/// path and its total cost, stamped with the publication that answered.
struct RouteAnswer {
  bool reachable = false;
  NodeId next_hop = -1;          ///< src itself when src == dst
  double cost = graph::kUnreachable;
  int epoch = 0;                 ///< snapshot epoch that answered
  std::uint64_t publish_seq = 0; ///< publication sequence number
};

/// Answer to path(src, dst): the full node sequence src..dst.
struct PathAnswer {
  bool reachable = false;
  std::vector<NodeId> nodes;     ///< empty when unreachable; {src} when src == dst
  double cost = graph::kUnreachable;
  int epoch = 0;
  std::uint64_t publish_seq = 0;
};

namespace detail {

/// Shared atomic counters; ServedSnapshots hold a reference so queries
/// through a pinned view keep counting even mid-swap.
struct ServiceCounters {
  std::atomic<std::uint64_t> latest_seq{0};
  std::atomic<std::uint64_t> queries_route{0};
  std::atomic<std::uint64_t> queries_path{0};
  std::atomic<std::uint64_t> queries_score{0};
  std::atomic<std::uint64_t> stale_served{0};
  std::atomic<std::uint64_t> rows_built{0};
  std::atomic<std::uint64_t> rows_discarded{0};
  std::atomic<std::uint64_t> uncached_queries{0};
  std::atomic<std::uint64_t> seal_violations{0};
};

/// One source's routing row: the shortest-path tree over the announced
/// graph plus the first hop toward every destination.
struct SourceRow {
  graph::ShortestPathTree tree;
  std::vector<NodeId> first_hop;  ///< -1 when unreachable or == source
};

/// One published snapshot plus its lazily built routing rows. Immutable
/// after publication except for the row cache, which only ever goes
/// nullptr -> row under a compare-exchange.
class ServingView {
 public:
  ServingView(WiringSnapshot snapshot, std::uint64_t seq,
              std::size_t max_cached_sources, bool seal,
              std::shared_ptr<ServiceCounters> counters);
  ~ServingView();
  ServingView(const ServingView&) = delete;
  ServingView& operator=(const ServingView&) = delete;

  const WiringSnapshot& snapshot() const { return snapshot_; }
  std::uint64_t seq() const { return seq_; }
  /// The announced graph as a CSR snapshot of its out-edges (every answer
  /// walks from its source), built at construction.
  const graph::CsrGraph& csr() const { return csr_; }

  /// The cached row for `src`, building it on first use. nullptr when the
  /// row cache is full — the caller searches src -> dst directly instead.
  const SourceRow* row(NodeId src) const;

  /// Re-checks the publication-time payload seal. Always true when the
  /// view was published without sealing.
  bool verify_seal() const;

  std::size_t cached_rows() const {
    return cached_rows_.load(std::memory_order_relaxed);
  }

 private:
  /// One full search from src, copied out.
  SourceRow build_row(NodeId src) const;

  WiringSnapshot snapshot_;
  graph::CsrGraph csr_;
  std::uint64_t seq_ = 0;
  std::size_t max_cached_sources_ = 0;
  bool sealed_ = false;
  std::uint64_t seal_ = 0;
  std::shared_ptr<ServiceCounters> counters_;
  mutable std::vector<std::atomic<const SourceRow*>> rows_;
  mutable std::atomic<std::size_t> cached_rows_{0};
};

}  // namespace detail

/// A reader's pinned view of one publication. Copyable and cheap (two
/// shared_ptrs); safe to query from any thread and to hold across swaps —
/// the pinned snapshot stays alive and internally consistent until every
/// holder releases it. Queries through a pinned view after a newer
/// publication count toward the service's stale_served telemetry.
class ServedSnapshot {
 public:
  ServedSnapshot() = default;

  bool valid() const { return view_ != nullptr; }
  int epoch() const;
  std::uint64_t publish_seq() const;
  const WiringSnapshot& snapshot() const;

  /// First hop + cost of a shortest announced-cost path. Offline src or
  /// dst (or no path) answers unreachable; out-of-range ids throw.
  RouteAnswer route(NodeId src, NodeId dst) const;

  /// Full shortest-path node sequence src..dst.
  PathAnswer path(NodeId src, NodeId dst) const;

  /// Single-node routing-cost score over the true-cost graph
  /// (WiringSnapshot::node_cost); NaN for an offline node.
  double score(NodeId node) const;

 private:
  friend class RouteService;
  ServedSnapshot(std::shared_ptr<const detail::ServingView> view,
                 std::shared_ptr<detail::ServiceCounters> counters)
      : view_(std::move(view)), counters_(std::move(counters)) {}

  /// Counts a query against this view's publication, flagging staleness.
  void note_query(std::atomic<std::uint64_t> detail::ServiceCounters::*kind) const;

  std::shared_ptr<const detail::ServingView> view_;
  std::shared_ptr<detail::ServiceCounters> counters_;
};

class RouteService {
 public:
  struct Options {
    /// Per-view cap on cached per-source rows (each is O(n)); queries from
    /// sources beyond the cap search src -> dst without caching a row.
    std::size_t max_cached_sources = 256;
    /// Record a payload checksum at publication and re-verify it when the
    /// last reader drains (reclaim throws std::logic_error on mismatch).
    bool verify_seals = true;
  };

  /// One coherent counter sample (see the field comments; monotone except
  /// retired_pending).
  struct Stats {
    std::uint64_t publishes = 0;      ///< snapshots published (initial included)
    std::uint64_t swaps = 0;          ///< publishes that replaced a previous view
    std::uint64_t queries_route = 0;
    std::uint64_t queries_path = 0;
    std::uint64_t queries_score = 0;
    std::uint64_t stale_served = 0;   ///< queries answered by a superseded view
    std::uint64_t rows_built = 0;     ///< per-source rows cached
    std::uint64_t rows_discarded = 0; ///< duplicate builds lost the CAS
    std::uint64_t uncached_queries = 0; ///< answered past the row cache cap
    std::uint64_t seal_violations = 0;
    std::size_t retired_pending = 0;  ///< retired views readers still pin
    int published_epoch = 0;          ///< epoch of the current publication
    double published_time = 0.0;      ///< virtual capture time of same

    std::uint64_t queries_served() const {
      return queries_route + queries_path + queries_score;
    }
  };

  /// Subscribes to `overlay`'s epoch ends and publishes the initial
  /// snapshot immediately, so acquire() is always valid.
  RouteService(OverlayHost& host, OverlayHandle overlay);
  RouteService(OverlayHost& host, OverlayHandle overlay, Options options);
  ~RouteService();
  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  /// Pins the latest publication (any thread).
  ServedSnapshot acquire() const;

  /// Convenience one-shot queries: acquire() + query (any thread).
  RouteAnswer route(NodeId src, NodeId dst) const { return acquire().route(src, dst); }
  PathAnswer path(NodeId src, NodeId dst) const { return acquire().path(src, dst); }
  double score(NodeId node) const { return acquire().score(node); }

  /// Captures and publishes a snapshot of the overlay's current state
  /// outside the epoch cadence (host thread; the constructor and the
  /// epoch-end subscription call this).
  void publish();

  /// Frees retired views whose readers have all drained, re-verifying
  /// each payload seal first (host thread). Returns the number freed;
  /// throws std::logic_error on a seal violation. publish() sweeps
  /// opportunistically, so calling this directly is only needed to prove
  /// drain (tests) or to bound memory between epochs.
  std::size_t reclaim();

  /// Retired views still pinned by at least one reader.
  std::size_t retired_pending() const;

  /// Quiesce: blocks until every pinned reader view has been released and
  /// every retired snapshot reclaimed (seal-verified) — i.e. the only
  /// remaining snapshot reference is the service's own published slot.
  /// This is the shutdown proof egoistd runs after stopping its socket
  /// server: drain() returning true means no ServedSnapshot leaked.
  ///
  /// Host thread only (it sweeps reclaim()). Callers must have stopped
  /// issuing NEW acquires first — drain() waits for in-flight readers, it
  /// cannot outwait a reader that keeps re-pinning. `timeout_s < 0` waits
  /// forever; otherwise returns false if the deadline passes with a view
  /// still pinned. Throws like reclaim() on a seal violation.
  bool drain(double timeout_s = -1.0);

  Stats stats() const;

 private:
  struct Retired {
    std::shared_ptr<const detail::ServingView> view;
  };

  std::size_t reclaim_impl(bool nothrow);

  OverlayHost* host_;
  OverlayHandle overlay_;
  Options options_;
  std::shared_ptr<detail::ServiceCounters> counters_;
  // The published-view slot. Not std::atomic<shared_ptr>: libstdc++ 12's
  // _Sp_atomic unlocks reader critical sections with memory_order_relaxed,
  // which leaves no formal happens-before edge against the writer's swap —
  // TSan (rightly, per the model) reports every load as racing. A plain
  // mutex around the pointer copy/swap is the same cost class (that
  // implementation is itself a CAS spinlock plus a refcount RMW) and is
  // sanitizer-clean. Hold times are a few instructions; queries run
  // entirely outside the lock on the pinned view.
  mutable std::mutex slot_mutex_;
  std::shared_ptr<const detail::ServingView> current_;  ///< guarded by slot_mutex_
  SubscriptionId subscription_ = 0;
  std::uint64_t publishes_ = 0;  ///< host thread only
  std::atomic<int> published_epoch_{0};
  std::atomic<double> published_time_{0.0};
  mutable std::mutex retired_mutex_;
  std::vector<Retired> retired_;  ///< guarded by retired_mutex_
};

}  // namespace egoist::host
