#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace gsalert {

namespace {

constexpr std::size_t kSubBuckets = 32;  // per octave: 5 mantissa bits
constexpr int kMinExponent = -16;        // lowest octave starts at 2^-16

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::size_t Histogram::bucket_index(double value) {
  // For a non-negative double, bits 52..62 hold the biased exponent and
  // bits 47..51 the top five mantissa bits, so bits >> 47 is
  // biased_exponent * 32 + sub_bucket: monotone in the value.
  constexpr std::uint64_t kFirst =
      static_cast<std::uint64_t>(1023 + kMinExponent) * kSubBuckets;
  const std::uint64_t key = std::bit_cast<std::uint64_t>(value) >> 47;
  if (key < kFirst) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(key - kFirst, kMaxBuckets - 1));
}

double Histogram::bucket_lower_bound(std::size_t index) {
  if (index == 0) return 0.0;  // also holds everything below 2^-16
  const double sub = static_cast<double>(index % kSubBuckets);
  return std::ldexp(1.0 + sub / kSubBuckets,
                    static_cast<int>(index / kSubBuckets) + kMinExponent);
}

void Histogram::cover(std::size_t lo, std::size_t hi) {
  if (counts_.empty()) {
    counts_.assign(hi - lo, 0);
    first_ = lo;
    return;
  }
  const std::size_t end = first_ + counts_.size();
  if (lo >= first_ && hi <= end) return;
  lo = std::min(lo, first_);
  hi = std::max(hi, end);
  // Sized exactly: a histogram owns only the range it has touched.
  std::vector<std::uint64_t> grown(hi - lo, 0);
  std::copy(counts_.begin(), counts_.end(),
            grown.begin() + static_cast<std::ptrdiff_t>(first_ - lo));
  counts_ = std::move(grown);
  first_ = lo;
}

void Histogram::record(double value) {
  if (!(value >= 0.0)) value = 0.0;  // negatives and NaN
  const std::size_t index = bucket_index(value);
  if (counts_.empty() || index < first_ || index >= first_ + counts_.size()) {
    cover(index, index + 1);
  }
  counts_[index - first_] += 1;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.empty()) return;
  cover(other.first_, other.first_ + other.counts_.size());
  const std::size_t offset = other.first_ - first_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[offset + i] += other.counts_[i];
  }
  min_ = empty() ? other.min_ : std::min(min_, other.min_);
  max_ = empty() ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::size_t i = 0;
  for (std::uint64_t seen = counts_[0]; seen < rank; seen += counts_[i]) ++i;
  return std::clamp(bucket_lower_bound(first_ + i), min_, max_);
}

std::string Histogram::summary() const {
  if (count_ == 0) return "count=0";
  return "count=" + std::to_string(count_) + " min=" + fmt_double(min()) +
         " mean=" + fmt_double(mean()) + " p50=" + fmt_double(p50()) +
         " p90=" + fmt_double(p90()) + " p95=" + fmt_double(p95()) +
         " p99=" + fmt_double(p99()) + " p999=" + fmt_double(p999()) +
         " max=" + fmt_double(max());
}

std::string Histogram::json() const {
  if (count_ == 0) return "{\"count\":0}";
  std::string out = "{\"count\":" + std::to_string(count_) +
                    ",\"min\":" + fmt_double(min()) +
                    ",\"mean\":" + fmt_double(mean()) +
                    ",\"p50\":" + fmt_double(p50()) +
                    ",\"p90\":" + fmt_double(p90()) +
                    ",\"p95\":" + fmt_double(p95()) +
                    ",\"p99\":" + fmt_double(p99()) +
                    ",\"p999\":" + fmt_double(p999()) +
                    ",\"max\":" + fmt_double(max()) + ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out += first ? "[" : ",[";
    out += fmt_double(bucket_lower_bound(first_ + i));
    out += ",";
    out += std::to_string(counts_[i]);
    out += "]";
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace gsalert
