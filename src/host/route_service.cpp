#include "host/route_service.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

namespace egoist::host {

namespace {

/// The reader thread's search scratch: every uncached answer and row build
/// on this thread reuses it (CsrSearch stamps its slots per run, so views
/// of any size may share it).
graph::CsrSearch& thread_search() {
  thread_local graph::CsrSearch search;
  return search;
}

}  // namespace

namespace detail {

ServingView::ServingView(WiringSnapshot snapshot, std::uint64_t seq,
                         std::size_t max_cached_sources, bool seal,
                         std::shared_ptr<ServiceCounters> counters)
    : snapshot_(std::move(snapshot)),
      csr_(snapshot_.announced_graph(), graph::CsrSides::kOut),
      seq_(seq),
      max_cached_sources_(max_cached_sources),
      sealed_(seal),
      counters_(std::move(counters)),
      rows_(snapshot_.size()) {
  if (sealed_) seal_ = snapshot_.payload_checksum();
}

ServingView::~ServingView() {
  for (auto& slot : rows_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

SourceRow ServingView::build_row(NodeId src) const {
  graph::CsrSearch& search = thread_search();
  search.run(csr_, src);
  const std::size_t n = csr_.node_count();
  SourceRow row;
  row.tree.dist.resize(n);
  row.tree.parent.resize(n);
  row.first_hop.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<NodeId>(i);
    row.tree.dist[i] = search.dist(v);
    row.tree.parent[i] = search.parent(v);
    row.first_hop[i] = search.first_hop(v);
  }
  return row;
}

const SourceRow* ServingView::row(NodeId src) const {
  auto& slot = rows_[static_cast<std::size_t>(src)];
  if (const SourceRow* existing = slot.load(std::memory_order_acquire)) {
    return existing;
  }
  // Soft cap: concurrent first-time builders may overshoot by a thread or
  // two, which only costs a few extra cached rows.
  if (cached_rows_.load(std::memory_order_relaxed) >= max_cached_sources_) {
    return nullptr;
  }
  auto built = std::make_unique<SourceRow>(build_row(src));
  const SourceRow* expected = nullptr;
  if (slot.compare_exchange_strong(expected, built.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    cached_rows_.fetch_add(1, std::memory_order_relaxed);
    counters_->rows_built.fetch_add(1, std::memory_order_relaxed);
    return built.release();
  }
  // Another reader published the same row first; ours is discarded.
  counters_->rows_discarded.fetch_add(1, std::memory_order_relaxed);
  return expected;
}

bool ServingView::verify_seal() const {
  return !sealed_ || snapshot_.payload_checksum() == seal_;
}

}  // namespace detail

int ServedSnapshot::epoch() const { return snapshot().epoch(); }

std::uint64_t ServedSnapshot::publish_seq() const {
  if (!view_) throw std::logic_error("empty ServedSnapshot");
  return view_->seq();
}

const WiringSnapshot& ServedSnapshot::snapshot() const {
  if (!view_) throw std::logic_error("empty ServedSnapshot");
  return view_->snapshot();
}

void ServedSnapshot::note_query(
    std::atomic<std::uint64_t> detail::ServiceCounters::*kind) const {
  ((*counters_).*kind).fetch_add(1, std::memory_order_relaxed);
  if (view_->seq() != counters_->latest_seq.load(std::memory_order_relaxed)) {
    counters_->stale_served.fetch_add(1, std::memory_order_relaxed);
  }
}

RouteAnswer ServedSnapshot::route(NodeId src, NodeId dst) const {
  const auto& snap = snapshot();
  note_query(&detail::ServiceCounters::queries_route);
  RouteAnswer answer;
  answer.epoch = snap.epoch();
  answer.publish_seq = view_->seq();
  // Evaluate both: is_online range-checks, and an out-of-range dst must
  // throw even when src is offline.
  const bool src_online = snap.is_online(src);
  const bool dst_online = snap.is_online(dst);
  if (!src_online || !dst_online) return answer;
  if (src == dst) {
    answer.reachable = true;
    answer.next_hop = src;
    answer.cost = 0.0;
    return answer;
  }
  if (const detail::SourceRow* row = view_->row(src)) {
    const double cost = row->tree.dist[static_cast<std::size_t>(dst)];
    if (cost == graph::kUnreachable) return answer;
    answer.reachable = true;
    answer.cost = cost;
    answer.next_hop = row->first_hop[static_cast<std::size_t>(dst)];
    return answer;
  }
  counters_->uncached_queries.fetch_add(1, std::memory_order_relaxed);
  graph::CsrSearch& search = thread_search();
  search.run(view_->csr(), src, {.stop_at = dst});
  if (!search.reached(dst)) return answer;
  answer.reachable = true;
  answer.cost = search.dist(dst);
  answer.next_hop = search.first_hop(dst);
  return answer;
}

PathAnswer ServedSnapshot::path(NodeId src, NodeId dst) const {
  const auto& snap = snapshot();
  note_query(&detail::ServiceCounters::queries_path);
  PathAnswer answer;
  answer.epoch = snap.epoch();
  answer.publish_seq = view_->seq();
  const bool src_online = snap.is_online(src);
  const bool dst_online = snap.is_online(dst);
  if (!src_online || !dst_online) return answer;
  if (src == dst) {
    answer.reachable = true;
    answer.nodes = {src};
    answer.cost = 0.0;
    return answer;
  }
  if (const detail::SourceRow* row = view_->row(src)) {
    const double cost = row->tree.dist[static_cast<std::size_t>(dst)];
    if (cost == graph::kUnreachable) return answer;
    answer.reachable = true;
    answer.cost = cost;
    answer.nodes = graph::extract_path(row->tree, src, dst);
    return answer;
  }
  counters_->uncached_queries.fetch_add(1, std::memory_order_relaxed);
  graph::CsrSearch& search = thread_search();
  search.run(view_->csr(), src, {.stop_at = dst});
  if (!search.reached(dst)) return answer;
  answer.reachable = true;
  answer.cost = search.dist(dst);
  answer.nodes = search.path_to(dst);
  return answer;
}

double ServedSnapshot::score(NodeId node) const {
  const auto& snap = snapshot();
  note_query(&detail::ServiceCounters::queries_score);
  return snap.node_cost(node);
}

RouteService::RouteService(OverlayHost& host, OverlayHandle overlay)
    : RouteService(host, overlay, Options{}) {}

RouteService::RouteService(OverlayHost& host, OverlayHandle overlay,
                           Options options)
    : host_(&host),
      overlay_(overlay),
      options_(options),
      counters_(std::make_shared<detail::ServiceCounters>()) {
  // Publish before subscribing: acquire() must be valid the moment the
  // constructor returns, even if no epoch ever completes.
  publish();
  subscription_ = host_->on_epoch_end(
      overlay_, [this](const EpochEvent&) { publish(); });
}

RouteService::~RouteService() {
  // The overlay may already be retired (its subscriptions dropped with
  // it); unsubscribing an unknown id is a no-op.
  host_->unsubscribe(subscription_);
  // Retire the current view and sweep what has drained. Anything still
  // pinned by a live ServedSnapshot stays alive through its shared_ptr;
  // the final seal check for those is forfeited (there is no service left
  // to run it).
  std::shared_ptr<const detail::ServingView> last;
  {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    last = std::move(current_);
  }
  if (last) {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    retired_.push_back({std::move(last)});
  }
  reclaim_impl(/*nothrow=*/true);
}

void RouteService::publish() {
  auto view = std::make_shared<const detail::ServingView>(
      host_->snapshot(overlay_), ++publishes_, options_.max_cached_sources,
      options_.verify_seals, counters_);
  published_epoch_.store(view->snapshot().epoch(), std::memory_order_relaxed);
  published_time_.store(view->snapshot().time(), std::memory_order_relaxed);
  std::shared_ptr<const detail::ServingView> old;
  {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    old = std::exchange(current_, view);
  }
  // Readers that acquired `old` just before the swap observe latest_seq
  // updating underneath them — that is exactly the staleness telemetry.
  counters_->latest_seq.store(view->seq(), std::memory_order_release);
  if (old) {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    retired_.push_back({std::move(old)});
  }
  reclaim_impl(/*nothrow=*/false);
}

std::size_t RouteService::reclaim() { return reclaim_impl(/*nothrow=*/false); }

std::size_t RouteService::reclaim_impl(bool nothrow) {
  // Grace period: a view leaves the retired list only when its refcount
  // has drained to the list's own reference. Once off current_, no reader
  // can create a NEW reference (acquire() only sees current_), so
  // use_count() == 1 is stable and means every in-flight reader released.
  std::vector<std::shared_ptr<const detail::ServingView>> drained;
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    for (auto it = retired_.begin(); it != retired_.end();) {
      if (it->view.use_count() == 1) {
        drained.push_back(std::move(it->view));
        it = retired_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::size_t freed = 0;
  bool violated = false;
  for (const auto& view : drained) {
    if (!view->verify_seal()) {
      counters_->seal_violations.fetch_add(1, std::memory_order_relaxed);
      violated = true;
    }
    ++freed;
  }
  drained.clear();  // the actual frees
  if (violated && !nothrow) {
    throw std::logic_error(
        "RouteService: WiringSnapshot payload mutated after publication "
        "(seal checksum mismatch at reader release)");
  }
  return freed;
}

ServedSnapshot RouteService::acquire() const {
  std::shared_ptr<const detail::ServingView> view;
  {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    view = current_;
  }
  return ServedSnapshot(std::move(view), counters_);
}

bool RouteService::drain(double timeout_s) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    reclaim_impl(/*nothrow=*/false);
    bool quiesced = retired_pending() == 0;
    if (quiesced) {
      // The published slot must be the snapshot's only owner: any extra
      // use_count is a live ServedSnapshot still pinning the current view.
      // Once readers stop acquiring, the count is monotone non-increasing,
      // so observing 1 under the lock is a stable quiesce proof.
      std::lock_guard<std::mutex> lock(slot_mutex_);
      quiesced = current_.use_count() == 1;
    }
    if (quiesced) return true;
    if (timeout_s >= 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() > timeout_s) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::size_t RouteService::retired_pending() const {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  return retired_.size();
}

RouteService::Stats RouteService::stats() const {
  Stats s;
  s.publishes = counters_->latest_seq.load(std::memory_order_relaxed);
  s.swaps = s.publishes > 0 ? s.publishes - 1 : 0;
  s.queries_route = counters_->queries_route.load(std::memory_order_relaxed);
  s.queries_path = counters_->queries_path.load(std::memory_order_relaxed);
  s.queries_score = counters_->queries_score.load(std::memory_order_relaxed);
  s.stale_served = counters_->stale_served.load(std::memory_order_relaxed);
  s.rows_built = counters_->rows_built.load(std::memory_order_relaxed);
  s.rows_discarded =
      counters_->rows_discarded.load(std::memory_order_relaxed);
  s.uncached_queries =
      counters_->uncached_queries.load(std::memory_order_relaxed);
  s.seal_violations =
      counters_->seal_violations.load(std::memory_order_relaxed);
  s.retired_pending = retired_pending();
  s.published_epoch = published_epoch_.load(std::memory_order_relaxed);
  s.published_time = published_time_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace egoist::host
