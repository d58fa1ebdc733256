// Shared pieces of egoist_bench: the clock, the in-memory span recorder,
// and the metric table a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace egoist::bench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Exact median (throws std::invalid_argument on an empty sample).
inline double median(std::vector<double> values) {
  return util::percentile(std::move(values), 50.0);
}

/// Spans kept in memory and written once the run ends: one JSON object per
/// line with name, start/end (ns on the steady clock), the parent span and
/// the request id shared by the spans of one request. A disabled tracer
/// records nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled). Safe from
  /// any thread.
  std::uint64_t add(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t request = 0);
  /// Reserves an id for a span whose children are recorded before it ends.
  std::uint64_t reserve();
  /// Records a span under an id from reserve().
  void add_reserved(std::uint64_t id, const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t request = 0);

  /// Writes every span as JSON lines; throws std::runtime_error on failure.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id = 0;
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;  ///< guarded by mutex_
  std::vector<Span> spans_;    ///< guarded by mutex_
};

/// RAII span around one call into a layer; a child names its parent by id.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer.enabled() ? tracer.reserve() : 0),
        start_ns_(tracer.enabled() ? now_ns() : 0) {}
  ~SpanScope() {
    if (id_ != 0) tracer_.add_reserved(id_, name_, start_ns_, now_ns(), parent_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::uint64_t start_ns_;
};

/// The named values one workload run reports, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricTable {
 public:
  /// Sets (or overwrites) a metric.
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  /// The metrics whose names appear in `names`, in `names` order; throws
  /// std::logic_error naming any declared metric that was never set.
  std::vector<Metric> select(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
};

/// Formats a double with every significant digit (round-trip precision).
std::string full_digits(double value);

}  // namespace egoist::bench
