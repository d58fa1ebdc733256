#include "overlay/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/residual.hpp"
#include "core/sampling.hpp"
#include "graph/connectivity.hpp"
#include "graph/metrics.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_path.hpp"
#include "graph/widest_path.hpp"
#include "overlay/epoch_engine.hpp"
#include "overlay/scoring.hpp"
#include "util/profiler.hpp"

namespace egoist::overlay {

namespace {

bool same_set(std::vector<NodeId> a, std::vector<NodeId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// The free-link budget left once a search's fixed (donated) links are
/// committed.
std::size_t free_budget(std::size_t budget,
                        const core::BestResponseOptions& options) {
  const std::size_t fixed = options.fixed_links.size();
  return budget > fixed ? budget - fixed : 0;
}

/// Per-node wiring capacity of the SoA store: the degree budget k, except
/// for the full mesh which wires to everyone.
std::size_t wiring_capacity(const OverlayConfig& config, std::size_t n) {
  const std::size_t max_degree = n > 0 ? n - 1 : 0;
  if (config.policy == Policy::kFullMesh) return max_degree;
  return std::min(config.k, max_degree);
}

std::size_t donated_capacity(const OverlayConfig& config, std::size_t n) {
  if (config.policy != Policy::kHybridBR) return 0;
  return std::min(config.donated_links, n);
}

}  // namespace

EgoistNetwork::EgoistNetwork(Environment& env, OverlayConfig config)
    : env_(env),
      config_(config),
      rng_(config.seed),
      store_(env.size(), wiring_capacity(config, env.size()),
             donated_capacity(config, env.size())),
      announced_(env.size()),
      audited_(0) {
  if (config_.k == 0 || config_.k >= env.size()) {
    throw std::invalid_argument("need 0 < k < n");
  }
  if (config_.epoch_workers < 0) {
    throw std::invalid_argument("epoch_workers must be >= 0");
  }
  if (config_.policy == Policy::kHybridBR) {
    if (config_.donated_links % 2 != 0 || config_.donated_links == 0 ||
        config_.donated_links >= config_.k) {
      throw std::invalid_argument("HybridBR needs even 0 < k2 < k");
    }
  }
  if (config_.cheat_factor < 1.0) {
    throw std::invalid_argument("cheat_factor must be >= 1");
  }
  for (int c : config_.cheaters) {
    if (c < 0 || static_cast<std::size_t>(c) >= env.size()) {
      throw std::out_of_range("cheater id out of range");
    }
  }
  if (config_.preference_zipf_exponent < 0.0) {
    throw std::invalid_argument("zipf exponent must be >= 0");
  }
  if (config_.br_sample > 0) {
    // §5 scale mode is a BR mechanism; it deliberately refuses to combine
    // with features that require O(n^2) state (Zipf preference tables) or
    // per-node graph rewrites (audits).
    if (config_.policy != Policy::kBestResponse &&
        config_.policy != Policy::kHybridBR) {
      throw std::invalid_argument("br_sample requires BR or HybridBR");
    }
    if (config_.br_landmarks == 0) {
      throw std::invalid_argument("scale mode needs br_landmarks >= 1");
    }
    if (config_.preference_zipf_exponent > 0.0) {
      throw std::invalid_argument("scale mode requires uniform preferences");
    }
    if (config_.enable_audits) {
      throw std::invalid_argument("scale mode does not support audits");
    }
  }
  if (config_.drift_threshold < 0.0) {
    throw std::invalid_argument("drift_threshold must be >= 0");
  }
  if (config_.incremental) {
    // The dirty tracker reasons about best-response inputs; the trivial
    // policies re-wire for other reasons (ring repair, churn-only), and
    // audit mode rewrites the decision graph per node, voiding the
    // "unchanged announce => unchanged input" argument.
    if (config_.policy != Policy::kBestResponse &&
        config_.policy != Policy::kHybridBR) {
      throw std::invalid_argument("incremental requires BR or HybridBR");
    }
    if (config_.enable_audits) {
      throw std::invalid_argument("incremental does not support audits");
    }
    dirty_.reset(env.size(), config_.drift_threshold);
  }
  if (config_.preference_zipf_exponent > 0.0) {
    // Per-node Zipf preference over a node-specific random destination
    // ranking: p_ij proportional to 1 / rank_i(j)^s.
    base_preference_.resize(env.size());
    for (std::size_t i = 0; i < env.size(); ++i) {
      std::vector<NodeId> ranked;
      for (std::size_t j = 0; j < env.size(); ++j) {
        if (j != i) ranked.push_back(static_cast<NodeId>(j));
      }
      rng_.shuffle(ranked);
      base_preference_[i].assign(env.size(), 0.0);
      for (std::size_t r = 0; r < ranked.size(); ++r) {
        base_preference_[i][static_cast<std::size_t>(ranked[r])] =
            1.0 / std::pow(static_cast<double>(r + 1),
                           config_.preference_zipf_exponent);
      }
    }
  }
  // Incremental bootstrap: nodes join one at a time (id order), each wiring
  // itself against the overlay built so far...
  for (std::size_t v = 0; v < env.size(); ++v) {
    store_.set_online(v, true);
    announced_.set_active(static_cast<NodeId>(v), true);
    join(static_cast<int>(v));
  }
  if (config_.policy == Policy::kHybridBR) refresh_backbone();
  // ...then one settling pass so early joiners (who saw a near-empty
  // overlay) fill out their k links with full knowledge. This models the
  // initial convergence the deployed system reaches before measurements
  // start; it does not count as epoch re-wiring.
  for (std::size_t v = 0; v < env.size(); ++v) join(static_cast<int>(v));
}

EgoistNetwork::~EgoistNetwork() = default;

bool EgoistNetwork::is_cheater(int node) const {
  return std::find(config_.cheaters.begin(), config_.cheaters.end(), node) !=
         config_.cheaters.end();
}

void EgoistNetwork::set_online(int node, bool online) {
  announced_.check_node(node);
  const auto v = static_cast<std::size_t>(node);
  if (store_.is_online(v) == online) return;
  store_.set_online(v, online);
  announced_.set_active(node, online);
  // Membership changes void the scale-mode landmark cache: a departed
  // landmark's rows must not anchor further evaluations.
  landmark_state_.valid = false;
  if (config_.incremental) {
    // Dense candidate sets are global (everyone considers everyone), so a
    // join/leave invalidates every node; scale-mode tolerance marking can
    // restrict to the churned node and its current holders.
    holder_scratch_.clear();
    if (!dirty_.exact() && scale_mode()) collect_holders(node, holder_scratch_);
    dirty_.on_membership(v, !scale_mode(), holder_scratch_);
  }
  if (hooks_.on_membership) hooks_.on_membership(node, online);
  if (!online) {
    // The node vanishes: its announcements age out of everyone's database.
    announced_.clear_out_edges(node);
    store_.clear_wiring(v);
    store_.clear_donated(v);
  } else {
    // A (re)joining node first connects to a bootstrap node only (§3.1);
    // its full policy wiring is computed at its next wiring-epoch turn.
    // HybridBR additionally receives its donated backbone links right away
    // (the backbone is maintained aggressively, below).
    std::vector<NodeId> others;
    for (NodeId u : online_nodes()) {
      if (u != node) others.push_back(u);
    }
    if (!others.empty()) {
      const NodeId bootstrap = others[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(others.size()) - 1))];
      const auto direct = measure_pool(
          node, scale_mode() ? std::vector<NodeId>{bootstrap} : online_nodes());
      apply_wiring(node, {bootstrap}, direct);
    }
  }
  // The donated backbone is monitored aggressively (heartbeats) and spliced
  // immediately on membership changes; BR links wait for the wiring epoch.
  if (config_.policy == Policy::kHybridBR) refresh_backbone();
  // Immediate re-wiring mode: nodes that lost a neighbor repair right away
  // instead of waiting for their epoch (§3.3's aggressive monitoring
  // applied to every link).
  if (!online && config_.rewire_mode == RewireMode::kImmediate) {
    for (NodeId u : online_nodes()) {
      const auto w = store_.wiring(static_cast<std::size_t>(u));
      if (std::find(w.begin(), w.end(), static_cast<NodeId>(node)) != w.end()) {
        evaluate_counted(u);
      }
    }
  }
}

bool EgoistNetwork::is_online(int node) const {
  announced_.check_node(node);
  return store_.is_online(static_cast<std::size_t>(node));
}

std::size_t EgoistNetwork::online_count() const {
  return store_.online_count();
}

std::vector<NodeId> EgoistNetwork::online_nodes() const {
  return store_.online_nodes();
}

std::span<const NodeId> EgoistNetwork::wiring(int node) const {
  announced_.check_node(node);
  return store_.wiring(static_cast<std::size_t>(node));
}

std::span<const NodeId> EgoistNetwork::donated(int node) const {
  announced_.check_node(node);
  return store_.donated(static_cast<std::size_t>(node));
}

std::vector<double> EgoistNetwork::measure_pool(int node,
                                                const std::vector<NodeId>& pool) {
  const std::size_t n = store_.size();
  std::vector<double> direct(
      n, config_.metric == Metric::kBandwidth ? 0.0 : graph::kUnreachable);
  for (NodeId v : pool) {
    if (!store_.is_online(static_cast<std::size_t>(v)) || v == node) continue;
    switch (config_.metric) {
      case Metric::kDelayPing:
        direct[static_cast<std::size_t>(v)] = env_.measure_delay_ping(node, v);
        break;
      case Metric::kDelayCoords:
        direct[static_cast<std::size_t>(v)] = env_.measure_delay_coords(node, v);
        break;
      case Metric::kNodeLoad:
        // All outgoing links of a node carry the node's own measured load
        // (§4.1), so the direct cost does not depend on the target.
        direct[static_cast<std::size_t>(v)] = env_.measure_load(node);
        break;
      case Metric::kBandwidth:
        direct[static_cast<std::size_t>(v)] = env_.measure_avail_bw(node, v);
        break;
    }
  }
  return direct;
}

std::vector<NodeId> EgoistNetwork::sample_pool(int node) {
  // The node always re-measures its committed links (current wiring and
  // donated backbone — the sticky search needs their fresh costs), plus a
  // fresh random sample of br_sample other online nodes.
  std::vector<NodeId> pool;
  auto add = [&](NodeId v) {
    if (v == node || !store_.is_online(static_cast<std::size_t>(v))) return;
    if (std::find(pool.begin(), pool.end(), v) == pool.end()) pool.push_back(v);
  };
  for (NodeId v : store_.wiring(static_cast<std::size_t>(node))) add(v);
  for (NodeId v : store_.donated(static_cast<std::size_t>(node))) add(v);

  std::vector<NodeId> others;
  for (NodeId v : online_nodes()) {
    if (v != node &&
        std::find(pool.begin(), pool.end(), v) == pool.end()) {
      others.push_back(v);
    }
  }
  const std::size_t m = std::min(config_.br_sample, others.size());
  for (NodeId v : rng_.sample_without_replacement(
           std::span<const NodeId>(others), m)) {
    pool.push_back(v);
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

void EgoistNetwork::refresh_landmarks() {
  const auto online = online_nodes();
  const std::size_t t = std::min(config_.br_landmarks, online.size());
  auto landmarks = rng_.sample_without_replacement(
      std::span<const NodeId>(online), t);
  std::sort(landmarks.begin(), landmarks.end());

  landmark_state_.landmarks = std::move(landmarks);
  landmark_state_.column.assign(store_.size(), -1);
  for (std::size_t c = 0; c < landmark_state_.landmarks.size(); ++c) {
    landmark_state_.column[static_cast<std::size_t>(
        landmark_state_.landmarks[c])] = static_cast<std::int32_t>(c);
  }

  // One reverse traversal of the announced overlay per landmark: distances
  // *to* a landmark are distances *from* it in the reversed graph, so L
  // traversals serve every node's evaluation this epoch.
  const std::size_t n = store_.size();
  graph::Digraph reversed(n);
  for (std::size_t u = 0; u < n; ++u) {
    reversed.set_active(static_cast<NodeId>(u), store_.is_online(u));
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (!store_.is_online(u)) continue;
    for (const auto& e : announced_.out_edges(static_cast<NodeId>(u))) {
      reversed.set_edge(e.to, static_cast<NodeId>(u), e.weight);
    }
  }

  const bool widest = config_.metric == Metric::kBandwidth;
  landmark_state_.dist.reshape(n, landmark_state_.landmarks.size());
  for (std::size_t c = 0; c < landmark_state_.landmarks.size(); ++c) {
    const NodeId l = landmark_state_.landmarks[c];
    if (widest) {
      const auto tree = graph::widest_paths(reversed, l);
      for (std::size_t v = 0; v < n; ++v) {
        landmark_state_.dist(v, c) = tree.bottleneck[v];
      }
    } else {
      const auto tree = graph::dijkstra(reversed, l);
      for (std::size_t v = 0; v < n; ++v) {
        landmark_state_.dist(v, c) = tree.dist[v];
      }
    }
  }
  landmark_state_.valid = true;
  landmark_state_.evals_left = online_count();
}

bool EgoistNetwork::evaluate_node_sampled(int node) {
  // The landmark state serves one epoch-equivalent of evaluations (see
  // LandmarkState): inside run_epoch it was refreshed at the boundary;
  // on the staggered/run_node path it refreshes here once the budget of
  // online_count() evaluations is spent.
  if (!landmark_state_.valid || landmark_state_.evals_left == 0) {
    refresh_landmarks();
  }
  if (landmark_state_.evals_left > 0) --landmark_state_.evals_left;

  const auto pool = sample_pool(node);
  const auto direct = measure_pool(node, pool);
  const auto current = store_.wiring_vec(static_cast<std::size_t>(node));
  const double penalty = config_.metric == Metric::kBandwidth
                             ? 0.0
                             : unreachable_penalty(announced_);
  const auto objective = landmark_objective(node, pool, direct, penalty);
  // Both the kept and the proposed wiring are subsets of the measured pool
  // (fixed links included), so `direct` covers every announced cost.
  return commit(node, current,
                propose(node, objective, current, degree_budget(), br_scratch_),
                direct);
}

core::LandmarkObjective EgoistNetwork::landmark_objective(
    NodeId node, std::vector<NodeId> pool, std::vector<double> direct,
    double penalty) const {
  std::vector<NodeId> targets;
  targets.reserve(landmark_state_.landmarks.size());
  for (NodeId l : landmark_state_.landmarks) {
    if (l != node) targets.push_back(l);
  }
  const bool maximize = config_.metric == Metric::kBandwidth;
  return core::LandmarkObjective(
      node, std::move(pool), std::move(direct), &landmark_state_.dist,
      &landmark_state_.column, std::move(targets), maximize,
      maximize ? 0.0 : penalty);
}

double EgoistNetwork::announced_cost(int node, double measured) const {
  if (!is_cheater(node)) return measured;
  // Free riders discourage upstreams: inflate delay/load, deflate bandwidth.
  if (config_.metric == Metric::kBandwidth) {
    return measured / config_.cheat_factor;
  }
  return measured * config_.cheat_factor;
}

std::vector<double> EgoistNetwork::preference_of(int node) const {
  std::vector<double> pref(store_.size(), 0.0);
  double total = 0.0;
  for (std::size_t j = 0; j < store_.size(); ++j) {
    if (!store_.is_online(j) || static_cast<int>(j) == node) continue;
    const double w = base_preference_.empty()
                         ? 1.0
                         : base_preference_[static_cast<std::size_t>(node)][j];
    pref[j] = w;
    total += w;
  }
  if (total > 0.0) {
    for (double& w : pref) w /= total;
  }
  return pref;
}

const graph::Digraph& EgoistNetwork::decision_graph() {
  const bool delay_metric = config_.metric == Metric::kDelayPing ||
                            config_.metric == Metric::kDelayCoords;
  if (!config_.enable_audits || !delay_metric) return announced_;
  // Announcements above this multiple of the coordinate estimate count as
  // inflated and are replaced by the estimate (§3.4); the paper's free
  // riders inflate by 2x.
  constexpr double kAuditTolerance = 1.5;
  graph::Digraph audited(store_.size());
  for (std::size_t u = 0; u < store_.size(); ++u) {
    const auto uid = static_cast<NodeId>(u);
    audited.set_active(uid, store_.is_online(u));
    for (const auto& e : announced_.out_edges(uid)) {
      const double estimate =
          env_.measure_delay_coords(static_cast<int>(u), e.to);
      const bool suspicious = e.weight > kAuditTolerance * estimate;
      audited.set_edge(uid, e.to, suspicious ? estimate : e.weight);
    }
  }
  audited_ = std::move(audited);
  return audited_;
}

double EgoistNetwork::unreachable_penalty(const graph::Digraph& decision) const {
  // Rescanning every announced edge once per node per epoch is pure waste;
  // run_epoch caches the scan's result for the epoch.
  return epoch_penalty_ ? *epoch_penalty_
                        : core::default_unreachable_penalty(decision);
}

void EgoistNetwork::apply_wiring(int node, std::vector<NodeId> wiring,
                                 std::span<const double> direct) {
  // With everyone already dirty, no mark can add information — skip the
  // old-row copy and the delta test (this keeps the noisy-env and
  // bootstrap paths at zero tracking overhead).
  const bool track =
      config_.incremental && dirty_.dirty_count() < dirty_.size();
  if (track) {
    const auto old = announced_.out_edges(node);
    old_row_scratch_.assign(old.begin(), old.end());
  }
  std::sort(wiring.begin(), wiring.end());
  announced_.clear_out_edges(node);
  for (NodeId v : wiring) {
    announced_.set_edge(node, v,
                        announced_cost(node, direct[static_cast<std::size_t>(v)]));
  }
  store_.set_wiring(static_cast<std::size_t>(node), wiring);
  // Keep the epoch-shared engine snapshot in lockstep: only this node's
  // out-edge row changed, so its base trees are patched, not rebuilt.
  if (engine_synced_) engine_.update_out_edges(node, announced_);
  if (track) note_announce(node, old_row_scratch_);
  if (config_.incremental && !dirty_.exact()) {
    // Tolerance mode: the announced costs just became current, so they are
    // the drift baseline the node's future probes compare against.
    dirty_.set_baseline(static_cast<std::size_t>(node),
                        store_.wiring(static_cast<std::size_t>(node)), direct);
  }
}

void EgoistNetwork::note_announce(int node,
                                  std::span<const graph::Edge> old_row) {
  const auto new_row = announced_.out_edges(node);
  if (!dirty_.announce_delta_significant(old_row, new_row)) return;
  if (dirty_.exact()) {
    // Conservative global mark: any changed announcement can, through the
    // decision graph and the fold penalty, shift anyone's best response.
    dirty_.mark_all();
    return;
  }
  // Tolerance mode: the nodes routing over this announcer. Direct holders
  // always; plus, when the epoch-shared engine just patched its base trees,
  // exactly the sources whose dist rows the patch changed. Without a synced
  // engine (run_node, pipeline merge) the holder scan is the approximation
  // tolerance mode accepts.
  holder_scratch_.clear();
  collect_holders(node, holder_scratch_);
  for (NodeId h : holder_scratch_) dirty_.mark(static_cast<std::size_t>(h));
  dirty_.mark(static_cast<std::size_t>(node));
  if (engine_synced_) {
    if (engine_.last_update_rebuilt()) {
      dirty_.mark_all();  // per-row signal lost; fall back to everyone
    } else {
      for (NodeId s : engine_.last_update_invalidated()) {
        dirty_.mark(static_cast<std::size_t>(s));
      }
    }
  }
}

void EgoistNetwork::collect_holders(int node, std::vector<NodeId>& out) const {
  for (std::size_t u = 0; u < store_.size(); ++u) {
    if (!store_.is_online(u) || static_cast<int>(u) == node) continue;
    const auto w = store_.wiring(u);
    if (std::find(w.begin(), w.end(), static_cast<NodeId>(node)) != w.end()) {
      out.push_back(static_cast<NodeId>(u));
      continue;
    }
    const auto d = store_.donated(u);
    if (std::find(d.begin(), d.end(), static_cast<NodeId>(node)) != d.end()) {
      out.push_back(static_cast<NodeId>(u));
    }
  }
}

bool EgoistNetwork::node_needs_evaluation(int node) {
  if (dirty_.is_dirty(static_cast<std::size_t>(node))) return true;
  if (dirty_.exact()) return false;
  // Tolerance mode: probe the node's own wiring links (O(k), the links it
  // actually routes over) and compare against its last-evaluation baseline.
  const auto links = store_.wiring(static_cast<std::size_t>(node));
  if (links.empty()) return false;
  drift_links_scratch_.assign(links.begin(), links.end());
  const auto fresh = measure_pool(node, drift_links_scratch_);
  return dirty_.drift_exceeded(static_cast<std::size_t>(node), links, fresh);
}

std::vector<NodeId> EgoistNetwork::backbone_links(int node) const {
  const auto ring = online_nodes();
  std::vector<NodeId> links;
  const auto it = std::find(ring.begin(), ring.end(), static_cast<NodeId>(node));
  if (it == ring.end() || ring.size() < 2) return links;

  if (config_.backbone == Backbone::kMst) {
    // Young et al. [43]-style backbone: a minimum spanning tree over the
    // current true delays. Centralized and rebuilt on every membership
    // change — the overhead §3.3 argues against, quantified by the
    // ablation bench. Each node donates links to its tree neighbors (up to
    // its donated budget; high-degree tree nodes are truncated).
    const auto tree = graph::minimum_spanning_tree(
        ring, [this](NodeId a, NodeId b) { return env_.true_delay(a, b); });
    const auto adjacency = tree_adjacency(store_.size(), tree);
    for (NodeId v : adjacency[static_cast<std::size_t>(node)]) {
      if (links.size() >= config_.donated_links) break;
      links.push_back(v);
    }
    return links;
  }

  // EGOIST's choice: rank the online nodes by id; node connects to the
  // nodes +/- c ring positions away, c = 1 .. k2/2 (bidirectional cycles).
  const std::size_t pos = static_cast<std::size_t>(it - ring.begin());
  const std::size_t cycles = config_.donated_links / 2;
  for (std::size_t c = 1; c <= cycles; ++c) {
    const NodeId fwd = ring[(pos + c) % ring.size()];
    const NodeId back = ring[(pos + ring.size() - c % ring.size()) % ring.size()];
    for (NodeId v : {fwd, back}) {
      if (v != node && std::find(links.begin(), links.end(), v) == links.end()) {
        links.push_back(v);
      }
    }
  }
  return links;
}

void EgoistNetwork::refresh_backbone() {
  for (NodeId v : online_nodes()) {
    auto fresh = backbone_links(v);
    const auto donated = store_.donated_vec(static_cast<std::size_t>(v));
    if (same_set(donated, fresh)) continue;
    // Splice: replace old donated links, keep the BR links intact.
    std::vector<NodeId> free_links;
    for (NodeId w : store_.wiring(static_cast<std::size_t>(v))) {
      if (std::find(donated.begin(), donated.end(), w) == donated.end()) {
        free_links.push_back(w);
      }
    }
    std::vector<NodeId> combined = fresh;
    store_.set_donated(static_cast<std::size_t>(v), fresh);
    for (NodeId w : free_links) {
      if (std::find(combined.begin(), combined.end(), w) == combined.end() &&
          combined.size() < config_.k) {
        combined.push_back(w);
      }
    }
    const auto direct =
        measure_pool(v, scale_mode() ? combined : online_nodes());
    apply_wiring(v, std::move(combined), direct);
  }
}

std::vector<NodeId> EgoistNetwork::choose_wiring(int node,
                                                 const std::vector<double>& direct) {
  // Candidates: online nodes other than self.
  std::vector<NodeId> candidates;
  for (NodeId v : online_nodes()) {
    if (v != node) candidates.push_back(v);
  }
  const std::size_t k = std::min(config_.k, candidates.size());

  switch (config_.policy) {
    case Policy::kRandom: {
      // Keep the existing wiring; only replace links to departed nodes
      // (k-Random re-wires only under churn, §4.2).
      std::vector<NodeId> keep;
      for (NodeId v : store_.wiring(static_cast<std::size_t>(node))) {
        if (store_.is_online(static_cast<std::size_t>(v))) keep.push_back(v);
      }
      std::vector<NodeId> pool;
      for (NodeId v : candidates) {
        if (std::find(keep.begin(), keep.end(), v) == keep.end()) pool.push_back(v);
      }
      while (keep.size() < k && !pool.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
        keep.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      return keep;
    }
    case Policy::kClosest: {
      if (config_.metric == Metric::kBandwidth) {
        return core::select_k_widest(candidates, direct, k);
      }
      if (config_.metric == Metric::kNodeLoad) {
        // Under the load metric a node's own outgoing links all cost the
        // same (its own load), so "closest" is judged by the candidate's
        // advertised load — the myopic choice the paper describes: it sees
        // the immediate neighbor's load but nothing beyond it, and herds
        // onto currently-idle hosts.
        std::vector<double> candidate_load(store_.size(), 0.0);
        for (NodeId v : candidates) {
          candidate_load[static_cast<std::size_t>(v)] = env_.measure_load(v);
        }
        return core::select_k_closest(candidates, candidate_load, k);
      }
      return core::select_k_closest(candidates, direct, k);
    }
    case Policy::kRegular: {
      // Offsets over the ring of online nodes ranked by id.
      const auto ring = online_nodes();
      const auto it =
          std::find(ring.begin(), ring.end(), static_cast<NodeId>(node));
      const std::size_t pos = static_cast<std::size_t>(it - ring.begin());
      std::vector<NodeId> links;
      if (ring.size() >= 2) {
        for (int o : core::k_regular_offsets(ring.size(), std::min(k, ring.size() - 1))) {
          const NodeId v = ring[(pos + static_cast<std::size_t>(o)) % ring.size()];
          if (v != node && std::find(links.begin(), links.end(), v) == links.end()) {
            links.push_back(v);
          }
        }
      }
      return links;
    }
    case Policy::kFullMesh:
      return candidates;
    case Policy::kBestResponse:
    case Policy::kHybridBR: {
      // A joiner has no wiring to keep: no BR(eps) decision, no seed.
      const auto options = search_options(node, br_scratch_);
      const auto br = core::best_response(*dense_objective(node, direct),
                                          free_budget(k, options), options);
      auto combined = options.fixed_links;
      combined.insert(combined.end(), br.wiring.begin(), br.wiring.end());
      return combined;
    }
  }
  return {};
}

std::unique_ptr<core::WiringObjective> EgoistNetwork::dense_objective(
    int node, const std::vector<double>& direct) {
  const graph::Digraph& decision = decision_graph();
  // Inside a synchronized epoch the engine already mirrors the decision
  // graph (snapshotted at the boundary, patched after each re-announce);
  // otherwise it re-snapshots per call, reusing its buffers.
  if (!engine_synced_) engine_.rebuild(decision);
  if (config_.metric == Metric::kBandwidth) {
    engine_.prepare_widest();
    return residual_objective(node, direct, 0.0, query_scratch_,
                              residual_scratch_);
  }
  engine_.prepare_shortest();
  return residual_objective(node, direct, unreachable_penalty(decision),
                            query_scratch_, residual_scratch_);
}

std::unique_ptr<core::WiringObjective> EgoistNetwork::residual_objective(
    NodeId node, const std::vector<double>& direct, double penalty,
    graph::PathEngine::QueryScratch& query,
    graph::DistanceMatrix& residual) const {
  const graph::PathEngine& engine = engine_;  // const: scratch-based queries
  if (config_.metric == Metric::kBandwidth) {
    return std::make_unique<core::BandwidthObjective>(
        core::make_bandwidth_objective(engine, query, node, direct, &residual));
  }
  return std::make_unique<core::DelayObjective>(core::make_delay_objective(
      engine, query, node, direct, preference_of(node), penalty, &residual));
}

core::BestResponseOptions EgoistNetwork::search_options(
    int node, core::BestResponseScratch& scratch) const {
  core::BestResponseOptions options;
  options.scratch = &scratch;
  if (config_.policy == Policy::kHybridBR) {
    options.fixed_links = store_.donated_vec(static_cast<std::size_t>(node));
  }
  return options;
}

std::size_t EgoistNetwork::degree_budget() const {
  return std::min(config_.k, online_count() - 1);
}

EgoistNetwork::Proposal EgoistNetwork::propose(
    int node, const core::WiringObjective& objective,
    const std::vector<NodeId>& current, std::size_t budget,
    core::BestResponseScratch& scratch) const {
  core::BestResponseOptions options = search_options(node, scratch);
  options.seed_wiring = current;  // sticky search: move only on improvement
  options.exact_budget = 0;       // exhaustive search is not seedable
  const double current_cost = objective.cost(current);
  const auto br = core::best_response(
      objective, free_budget(budget, options), options);
  Proposal proposal{options.fixed_links, false};
  proposal.wiring.insert(proposal.wiring.end(), br.wiring.begin(),
                         br.wiring.end());
  // BR(eps) (§4.3): adopt only an improvement beyond eps of the current
  // cost (the noise floor for plain BR), and only a different wiring.
  // The noise floor: improvements below this fraction of the current cost
  // are indistinguishable from ping/probe noise and do not trigger a
  // re-wire. The deployed system gets the same effect from averaging link
  // samples across an epoch.
  constexpr double kNoiseFloor = 0.01;
  const double improvement = current_cost - br.cost;
  const double fraction =
      config_.epsilon > 0.0 ? config_.epsilon : kNoiseFloor;
  const double threshold = fraction * std::abs(current_cost);
  proposal.adopt =
      !(improvement <= threshold || same_set(current, proposal.wiring));
  return proposal;
}

bool EgoistNetwork::commit(int node, const std::vector<NodeId>& current,
                           Proposal proposal, std::span<const double> direct) {
  if (!proposal.adopt) {
    // Keep the wiring but refresh the announced costs.
    apply_wiring(node, current, direct);
    return false;
  }
  apply_wiring(node, std::move(proposal.wiring), direct);
  if (hooks_.on_rewire) {
    hooks_.on_rewire(node, current,
                     store_.wiring_vec(static_cast<std::size_t>(node)));
  }
  return true;
}

void EgoistNetwork::join(int node) {
  // HybridBR's donated backbone links come first. backbone_links draws no
  // randomness and reads no measurement state, so setting them ahead of
  // the measurement leaves every stream where it was; the scale-mode pool
  // re-measures them.
  if (config_.policy == Policy::kHybridBR) {
    store_.set_donated(static_cast<std::size_t>(node), backbone_links(node));
  }
  // One measurement over the node's pool: a joiner in scale mode cannot
  // measure everyone, so it probes a fresh sample; otherwise everyone.
  const auto pool = scale_mode() ? sample_pool(node) : online_nodes();
  const auto direct = measure_pool(node, pool);
  if (!scale_mode()) {
    apply_wiring(node, choose_wiring(node, direct), direct);
    return;
  }
  // Scale mode wires to the best of the sample (closest for delay/load,
  // widest for bandwidth) after the donated links; BR epochs refine from
  // there.
  const auto donated = store_.donated_vec(static_cast<std::size_t>(node));
  std::vector<NodeId> free_pool;
  for (NodeId v : pool) {
    if (std::find(donated.begin(), donated.end(), v) == donated.end()) {
      free_pool.push_back(v);
    }
  }
  const std::size_t free_k =
      config_.k > donated.size() ? config_.k - donated.size() : 0;
  std::vector<NodeId> wiring = donated;
  const auto picked =
      config_.metric == Metric::kBandwidth
          ? core::select_k_widest(free_pool, direct, free_k)
          : core::select_k_closest(free_pool, direct, free_k);
  wiring.insert(wiring.end(), picked.begin(), picked.end());
  apply_wiring(node, std::move(wiring), direct);
}

bool EgoistNetwork::evaluate_node(int node) {
  if (scale_mode()) return evaluate_node_sampled(node);
  const auto direct = measure_pool(node, online_nodes());
  const auto current = store_.wiring_vec(static_cast<std::size_t>(node));
  if (!best_response_policy()) {
    // Same set: costs may have drifted; refresh without re-wiring.
    auto proposed = choose_wiring(node, direct);
    const bool adopt = !same_set(current, proposed);
    return commit(node, current, {std::move(proposed), adopt}, direct);
  }
  // BR path: the residual objective under the same fresh measurements
  // scores both the current wiring and the search's proposal.
  return commit(node, current,
                propose(node, *dense_objective(node, direct), current,
                        degree_budget(), br_scratch_),
                direct);
}

bool EgoistNetwork::evaluate_counted(int node) {
  ++total_evaluations_;
  const bool rewired = evaluate_node(node);
  if (rewired) ++total_rewirings_;
  return rewired;
}

bool EgoistNetwork::run_node(int node) {
  announced_.check_node(node);
  if (!store_.is_online(static_cast<std::size_t>(node))) return false;
  if (config_.incremental) {
    if (!node_needs_evaluation(node)) {
      ++total_skipped_evals_;
      return false;
    }
    // Clear before evaluating: the node's own announce delta may re-mark
    // it, which is exactly the "keep chasing a moving world" semantics.
    dirty_.clear(static_cast<std::size_t>(node));
  }
  return evaluate_counted(node);
}

bool EgoistNetwork::best_response_policy() const {
  return config_.policy == Policy::kBestResponse ||
         config_.policy == Policy::kHybridBR;
}

bool EgoistNetwork::use_pipeline() const {
  return config_.epoch_workers >= 1 && best_response_policy();
}

EpochEngine& EgoistNetwork::epoch_engine() {
  if (!epoch_engine_ || epoch_engine_->workers() != config_.epoch_workers) {
    epoch_engine_ = std::make_unique<EpochEngine>(config_.epoch_workers);
  }
  return *epoch_engine_;
}

void EgoistNetwork::evaluate_proposal(NodeId v, EpochWorkspace& ws,
                                      double penalty, std::size_t budget) {
  const auto node = static_cast<std::size_t>(v);
  const std::size_t n = store_.size();
  const std::vector<NodeId> current = store_.wiring_vec(node);
  const auto ids = epoch_store_.pool_ids(node);
  const auto values = epoch_store_.pool_values(node);
  // Rebuild the node's measurement row in the full-size workspace buffer,
  // restore after the search: O(pool) per node.
  const double unmeasured =
      config_.metric == Metric::kBandwidth ? 0.0 : graph::kUnreachable;
  if (ws.direct.size() != n) ws.direct.assign(n, unmeasured);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ws.direct[static_cast<std::size_t>(ids[i])] = values[i];
  }
  Proposal proposal =
      scale_mode()
          ? propose(v,
                    landmark_objective(v, {ids.begin(), ids.end()},
                                       ws.direct, penalty),
                    current, budget, ws.br)
          : propose(v,
                    *residual_objective(v, ws.direct, penalty, ws.query,
                                        ws.residual),
                    current, budget, ws.br);
  for (NodeId id : ids) {
    ws.direct[static_cast<std::size_t>(id)] = unmeasured;
  }
  std::sort(proposal.wiring.begin(), proposal.wiring.end());
  epoch_store_.set_proposal(node, proposal.wiring, proposal.adopt);
}

int EgoistNetwork::run_epoch_pipeline() {
  EGOIST_PROFILE_SCOPE("epoch");
  ++epochs_;
  const std::size_t n = store_.size();
  const auto online = store_.online_nodes();  // ascending: the merge order
  const bool maximize = config_.metric == Metric::kBandwidth;
  EpochEngine& engine = epoch_engine();

  // Incremental mode: freeze the dirty set into this epoch's active list
  // (ascending, like the merge order). Drift probes — tolerance mode's
  // stateful measurements — run here, sequentially, keeping the evaluate
  // phase pure. Marks raised during the merge apply from the next epoch:
  // the pipeline's synchronized-agents semantics, unlike the sequential
  // epoch's immediate mid-epoch marks.
  std::vector<NodeId> active;
  if (config_.incremental) {
    for (NodeId v : online) {
      if (node_needs_evaluation(v)) {
        active.push_back(v);
      } else {
        ++total_skipped_evals_;
      }
    }
    for (NodeId v : active) dirty_.clear(static_cast<std::size_t>(v));
  } else {
    active = online;
  }
  total_evaluations_ += active.size();

  // --- Snapshot (sequential, ascending node order) ---
  // Everything stateful lives here: RNG draws (sample pools, landmarks) and
  // measurement streams (ping EWMAs, noise) advance exactly once, in a
  // worker-count-independent order. The decision graph is frozen at the
  // boundary — in audit mode it is audited once here, not once per node.
  // With nothing active, the epoch planes, landmark refresh, and engine
  // snapshot are all skipped — an all-clean epoch costs O(n).
  const graph::Digraph* decision = nullptr;
  {
    EGOIST_PROFILE_SCOPE("snapshot");
    decision = &decision_graph();
    if (!maximize) {
      epoch_penalty_ = core::default_unreachable_penalty(*decision);
    }
    if (!active.empty()) {
      if (scale_mode()) refresh_landmarks();
      // One measurement plane: each active node's pool and the values
      // measured over it — a fresh sample in scale mode, the online set
      // otherwise.
      epoch_store_.begin(n, store_.wiring_capacity());
      std::vector<double> values;
      for (NodeId v : active) {
        const auto pool = scale_mode() ? sample_pool(v) : online;
        const auto direct = measure_pool(v, pool);
        values.clear();
        for (NodeId p : pool) {
          values.push_back(direct[static_cast<std::size_t>(p)]);
        }
        epoch_store_.add_pool(static_cast<std::size_t>(v), pool, values);
      }
      if (!scale_mode()) {
        // One shared snapshot + eager base trees; the evaluate phase only
        // issues const scratch-based queries against it.
        engine_.rebuild(*decision);
        if (maximize) {
          engine_.prepare_widest();
        } else {
          engine_.prepare_shortest();
        }
      }
    }
  }

  // --- Evaluate (parallel, pure per-node) ---
  const std::size_t budget =
      online.empty() ? 0 : std::min(config_.k, online.size() - 1);
  const double penalty = maximize ? 0.0 : *epoch_penalty_;
  {
    EGOIST_PROFILE_SCOPE("evaluate");
    engine.run(active.size(), [&](std::size_t i, EpochWorkspace& ws) {
      evaluate_proposal(active[i], ws, penalty, budget);
    });
  }

  // --- Merge (sequential, ascending node order) ---
  int rewired = 0;
  {
    EGOIST_PROFILE_SCOPE("merge");
    const double unmeasured = maximize ? 0.0 : graph::kUnreachable;
    std::vector<double> direct;
    for (NodeId v : active) {
      const auto node = static_cast<std::size_t>(v);
      // Reconstruct the measurement row; every announced link is a pool
      // member (kept and proposed wirings are pool subsets).
      direct.assign(n, unmeasured);
      const auto ids = epoch_store_.pool_ids(node);
      const auto values = epoch_store_.pool_values(node);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        direct[static_cast<std::size_t>(ids[i])] = values[i];
      }
      const auto proposal = epoch_store_.proposal(node);
      if (commit(v, store_.wiring_vec(node),
                 {{proposal.begin(), proposal.end()}, epoch_store_.adopted(node)},
                 direct)) {
        ++rewired;
      }
    }
  }

  epoch_penalty_.reset();
  landmark_state_.valid = false;
  total_rewirings_ += static_cast<std::uint64_t>(rewired);
  return rewired;
}

int EgoistNetwork::run_epoch() {
  if (use_pipeline()) return run_epoch_pipeline();
  EGOIST_PROFILE_SCOPE("epoch");
  ++epochs_;
  // Cache the unreachable-fold penalty for this epoch (bandwidth's fold
  // has none): one edge scan instead of one per node.
  if (config_.metric != Metric::kBandwidth) {
    epoch_penalty_ = core::default_unreachable_penalty(decision_graph());
  }
  // Epoch-shared engine snapshot: taken once here, then patched after each
  // node re-announces (see evaluate_node), so the shared base trees carry
  // across the sequential epoch instead of being rebuilt n times. Audit
  // mode rebuilds the audited decision graph per node, so it re-snapshots
  // per evaluation instead.
  const bool audited = config_.enable_audits &&
                       (config_.metric == Metric::kDelayPing ||
                        config_.metric == Metric::kDelayCoords);
  if (scale_mode()) {
    // Epoch-shared landmark state instead of epoch-shared base trees: the
    // whole epoch evaluates against the boundary announced graph.
    refresh_landmarks();
  } else if (best_response_policy() && !audited) {
    engine_.rebuild(announced_);
    engine_synced_ = true;
  }
  auto order = online_nodes();
  rng_.shuffle(order);
  int rewired = 0;
  {
    EGOIST_PROFILE_SCOPE("evaluate");
    for (NodeId v : order) {
      if (!store_.is_online(static_cast<std::size_t>(v))) continue;
      if (config_.incremental) {
        // The dirty check happens at the node's turn, so marks from nodes
        // earlier in this epoch's order take effect immediately — the same
        // unsynchronized-agents semantics as the full sequential epoch.
        if (!node_needs_evaluation(v)) {
          ++total_skipped_evals_;
          continue;
        }
        dirty_.clear(static_cast<std::size_t>(v));
      }
      ++total_evaluations_;
      if (evaluate_node(v)) ++rewired;
    }
  }
  engine_synced_ = false;
  epoch_penalty_.reset();
  landmark_state_.valid = false;
  // k-Random / k-Closest enforce a cycle if the wiring got disconnected
  // (§3.2); the cycle replaces each node's last link to respect degree k.
  if (config_.policy == Policy::kRandom || config_.policy == Policy::kClosest) {
    if (online_count() >= 2 && !graph::is_strongly_connected(announced_)) {
      const auto ring = online_nodes();
      for (std::size_t i = 0; i < ring.size(); ++i) {
        const NodeId u = ring[i];
        const NodeId next = ring[(i + 1) % ring.size()];
        if (u == next || announced_.has_edge(u, next)) continue;
        auto wiring = store_.wiring_vec(static_cast<std::size_t>(u));
        const auto direct = measure_pool(u, ring);
        if (wiring.size() >= config_.k && !wiring.empty()) {
          announced_.remove_edge(u, wiring.back());
          wiring.pop_back();
        }
        wiring.push_back(next);
        announced_.set_edge(u, next,
                            announced_cost(u, direct[static_cast<std::size_t>(next)]));
        std::sort(wiring.begin(), wiring.end());
        store_.set_wiring(static_cast<std::size_t>(u), wiring);
      }
    }
  }
  total_rewirings_ += static_cast<std::uint64_t>(rewired);
  return rewired;
}

graph::Digraph EgoistNetwork::true_cost_graph() const {
  graph::Digraph g(store_.size());
  for (std::size_t u = 0; u < store_.size(); ++u) {
    g.set_active(static_cast<NodeId>(u), store_.is_online(u));
    if (!store_.is_online(u)) continue;
    for (NodeId v : store_.wiring(u)) {
      if (!store_.is_online(static_cast<std::size_t>(v))) continue;
      double cost = 0.0;
      switch (config_.metric) {
        case Metric::kDelayPing:
        case Metric::kDelayCoords:
          cost = env_.true_delay(static_cast<int>(u), v);
          break;
        case Metric::kNodeLoad:
          cost = env_.true_load(static_cast<int>(u));
          break;
        case Metric::kBandwidth:
          cost = env_.true_avail_bw(static_cast<int>(u), v);
          break;
      }
      g.set_edge(static_cast<NodeId>(u), v, cost);
    }
  }
  return g;
}

graph::Digraph EgoistNetwork::true_bandwidth_graph() const {
  graph::Digraph g(store_.size());
  for (std::size_t u = 0; u < store_.size(); ++u) {
    g.set_active(static_cast<NodeId>(u), store_.is_online(u));
    if (!store_.is_online(u)) continue;
    for (NodeId v : store_.wiring(u)) {
      if (!store_.is_online(static_cast<std::size_t>(v))) continue;
      g.set_edge(static_cast<NodeId>(u), v,
                 env_.true_avail_bw(static_cast<int>(u), v));
    }
  }
  return g;
}

std::vector<double> EgoistNetwork::node_costs() const {
  return score_node_costs(true_cost_graph(), online_nodes(), score_preferences());
}

std::vector<double> EgoistNetwork::node_efficiencies() const {
  return score_node_efficiencies(true_cost_graph(), online_nodes());
}

std::vector<double> EgoistNetwork::node_bandwidth_scores() const {
  return score_node_bandwidth(true_bandwidth_graph(), online_nodes());
}

std::vector<std::vector<double>> EgoistNetwork::score_preferences() const {
  if (base_preference_.empty()) return {};
  std::vector<std::vector<double>> prefs(store_.size());
  for (NodeId v : online_nodes()) {
    prefs[static_cast<std::size_t>(v)] = preference_of(v);
  }
  return prefs;
}

}  // namespace egoist::overlay
