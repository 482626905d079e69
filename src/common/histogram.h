// The one histogram for latency, size and count distributions.
//
// HDR-style log-linear buckets: each power-of-two octave from 2^-16 to
// 2^48 splits into 32 equal sub-buckets, indexed straight from the
// double's exponent and top five mantissa bits (2,048 buckets at most).
// Recording is O(1); count, sum, min and max are exact. Quantiles are
// nearest-rank and report the lower bound of the bucket holding the
// ranked sample, clamped to [min, max]: for samples in [2^-16, 2^48) the
// relative error is below 1/32, integers 0-63 are exact, and a quantile
// never leaves the observed range. Smaller samples (0 included) share
// the lowest bucket, whose lower bound is 0; larger ones share the top
// bucket. Negatives and NaN record as 0.
//
// Memory: 64 bytes inline, no heap while empty; recording allocates one
// 8-byte count per bucket of the touched index range only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gsalert {

class Histogram {
 public:
  /// Upper limit on the bucket index range: 64 octaves x 32 sub-buckets.
  static constexpr std::size_t kMaxBuckets = 2048;

  void record(double value);
  /// Add `other`'s samples: the result equals recording both streams
  /// into one histogram.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Exact statistics; 0 on an empty histogram.
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;
  /// Nearest-rank quantile, q in [0, 1]: the lower bound of the bucket
  /// holding the ceil(q*count)-th smallest sample, clamped to
  /// [min, max]. 0 on an empty histogram.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  /// "count=N min=.. mean=.. p50=.. p90=.. p95=.. p99=.. p999=.. max=.."
  /// ("count=0" when empty).
  std::string summary() const;
  /// {"count":N,"min":..,"mean":..,"p50":..,"p90":..,"p95":..,"p99":..,
  ///  "p999":..,"max":..,"buckets":[[lower_bound,count],...]} with only
  /// occupied buckets listed ({"count":0} when empty) — the shape the
  /// bench sentinel reads.
  std::string json() const;

  /// Heap bytes owned: the touched bucket range's counts.
  std::size_t heap_bytes() const {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

  void clear() { *this = Histogram{}; }

 private:
  static std::size_t bucket_index(double value);
  static double bucket_lower_bound(std::size_t index);
  /// Widen counts_ so it covers bucket indexes [lo, hi).
  void cover(std::size_t lo, std::size_t hi);

  // counts_[i] counts bucket first_ + i.
  std::vector<std::uint64_t> counts_;
  std::size_t first_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace gsalert
