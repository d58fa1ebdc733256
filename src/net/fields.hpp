// Abstract underlay field interfaces — the seam between consumers of
// per-pair/per-node substrate quantities (measurement planes, Vivaldi,
// overlay scoring, the multipath apps) and the backend that produces them.
//
// Two families implement these: the dense stateful models (DelaySpace,
// BandwidthModel, LoadModel — exactly the historical behavior, O(n^2)
// storage) and the procedural backend (net/underlay.hpp), whose per-pair
// values are pure functions of (seed, i, j, quantized time) with O(n)
// storage. Consumers written against the fields work with either.
#pragma once

#include <cstddef>

namespace egoist::net {

/// Both directed delays of one pair (milliseconds).
struct DelayPair {
  double forward = 0.0;   ///< i -> j
  double backward = 0.0;  ///< j -> i
};

/// True one-way underlay delays (milliseconds).
class DelayField {
 public:
  virtual ~DelayField() = default;

  virtual std::size_t size() const = 0;

  /// True one-way delay i -> j in milliseconds. 0 on the diagonal.
  virtual double delay(int i, int j) const = 0;

  /// {delay(i, j), delay(j, i)}, bit for bit. A backend whose two
  /// directions share work (the procedural pair hashes) overrides it to do
  /// that work once; the ping plane and Vivaldi read RTTs through it.
  virtual DelayPair delay_pair(int i, int j) const {
    return {delay(i, j), delay(j, i)};
  }

  /// Round-trip time i <-> j (sum of the two directed delays).
  double rtt(int i, int j) const {
    const DelayPair d = delay_pair(i, j);
    return d.forward + d.backward;
  }
};

/// True available bandwidth per directed pair (Mbps), at the backend's
/// current model time.
class BandwidthField {
 public:
  virtual ~BandwidthField() = default;

  virtual std::size_t size() const = 0;

  /// True available bandwidth i -> j (Mbps) at the current model time.
  virtual double avail_bw(int i, int j) const = 0;

  /// Static capacity (no cross traffic) of the i -> j pair.
  virtual double capacity(int i, int j) const = 0;
};

/// True per-node load (loadavg-like units, > 0) at the backend's current
/// model time.
class LoadField {
 public:
  virtual ~LoadField() = default;

  virtual std::size_t size() const = 0;

  /// Instantaneous true load of the node.
  virtual double load(int node) const = 0;
};

}  // namespace egoist::net
