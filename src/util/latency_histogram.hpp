// Log-bucketed latency histogram, mergeable across threads.
//
// The serving layer (host::RouteService readers, bench/serve_remote) records
// one latency sample per query at rates where storing raw samples is off
// the table. LatencyHistogram buckets values HdrHistogram-style: exact
// buckets below 2^kSubBits, then kSubCount linear sub-buckets per power of
// two, which bounds the relative quantization error of any percentile at
// 1/kSubCount (~3%) while keeping the footprint at a few KB. Values are
// unit-agnostic integers; the serving benches record nanoseconds.
//
// Each thread owns its own histogram (record() is not thread-safe) and the
// aggregator merges after join — merge() is exact (bucket-wise add), so
// merging is associative and commutative and percentiles of the merged
// histogram equal percentiles of the concatenated sample streams up to the
// fixed bucket quantization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace egoist::util {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits linear buckets per power of two.
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
  /// Values above kMaxValue clamp into the last bucket.
  static constexpr std::uint64_t kMaxValue = 1ull << 40;

  LatencyHistogram();

  /// Folds in one sample. Not thread-safe; one histogram per thread.
  void record(std::uint64_t value);

  /// Bucket-wise addition (exact; associative and commutative).
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max_recorded() const { return max_recorded_; }
  double mean() const;

  /// Value at percentile p in [0, 100], interpolated linearly inside the
  /// containing bucket. Throws std::invalid_argument on an empty histogram
  /// or p outside [0, 100].
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  /// --- Bucket geometry (exposed for the boundary tests) ---
  static std::size_t bucket_count();
  /// Index of the bucket containing `value` (clamped to the last bucket).
  static std::size_t bucket_of(std::uint64_t value);
  /// Smallest value mapping to bucket `index`.
  static std::uint64_t bucket_lower(std::size_t index);
  /// Number of distinct values mapping to bucket `index`.
  static std::uint64_t bucket_width(std::size_t index);

  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_recorded_ = 0;
};

}  // namespace egoist::util
