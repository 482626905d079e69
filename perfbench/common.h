// Shared plumbing for the publish->notify benchmark driver: options, wall
// and memory probes, exact quantiles, the benchmark's own span log, the
// correctness tally, and the one-line JSON report each run prints.
//
// The driver runs ONE repetition of ONE workload per process (so peak RSS
// belongs to that workload alone); perfbench/run.py repeats it and takes
// medians.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/profiler.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;     // profiler + spans on; report per-layer metrics
  bool drop_one = false;  // negative self-check: a sink loses one notice
  bool full_oracle = true;  // storm's brute-force Profile::matches pass
  std::string trace_out;  // where traced runs write spans and frames
};

/// Independent, reproducible generator seeds derived from the workload
/// seed (splitmix64), so every input stream follows from --seed alone.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// `count` Zipf(n, s) ranks drawn by stratified sampling -- one draw from
/// each 1/count slice of the CDF -- then shuffled. Each seed gets its own
/// picks and order, but the hot ranks always get their fair share, so the
/// amount of fan-out work hardly moves with the seed.
std::vector<std::size_t> stratified_zipf(gsalert::Rng& rng, std::size_t n,
                                         double s, std::size_t count);

double wall_seconds();               // steady clock, seconds
/// Bytes the allocator has handed out and not yet taken back (mallinfo2):
/// the program's live state. Unlike resident-set deltas it does not move
/// with allocator caching or page-granular first touch, so the per-sub and
/// per-node state metrics repeat for a fixed seed.
std::uint64_t heap_bytes();
double peak_rss_mb();                // getrusage high-water mark, MiB

/// Nearest-rank quantile over a sample vector (sorts it in place). Exact:
/// no bucketing, so sim-time quantiles repeat bit-for-bit per seed.
double exact_quantile(std::vector<double>& samples, double q);

/// The benchmark's own spans around its calls into each layer. Off (one
/// branch per span) unless the run is traced; kept in memory and written
/// out once at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  int begin(const char* name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Total duration and count of spans called `name`.
  std::pair<double, std::size_t> total_seconds(const std::string& name) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.enabled() ? log.begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// One profiler frame, flattened from obs::Profiler::call_tree().
struct Frame {
  std::string path;  // "sim.dispatch;alerting.filter_and_notify"
  std::string name;  // last path component
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<Frame> profiler_frames(const gsalert::obs::Profiler& prof);
/// Sum of (calls, total_ms, self_ms) over every frame named `name`.
Frame frame_sum(const std::vector<Frame>& frames, const std::string& name);

/// Correctness tally: what failed_frac is made of.
struct Tally {
  std::uint64_t attempted = 0;   // expected notifications + sub/cancel ops
  std::uint64_t missing = 0;     // expected, never received
  std::uint64_t duplicated = 0;  // received more than once
  std::uint64_t unexpected = 0;  // received, not expected (or after cancel)
  std::uint64_t unacked = 0;     // subscribes / cancels that never completed
  std::uint64_t other = 0;       // conservation / oracle / drain checks
  std::vector<std::string> notes;

  std::uint64_t failed() const {
    return missing + duplicated + unexpected + unacked + other;
  }
  void fail(std::uint64_t n, const std::string& why) {
    other += n;
    notes.push_back(why);
  }
  /// Multiset compare of received vs expected (sub, event) keys; both
  /// vectors are sorted in place.
  void compare(std::vector<std::uint64_t>& expected,
               std::vector<std::uint64_t>& received);
};

/// (subscription, event sequence) packed into one sortable key.
inline std::uint64_t pair_key(std::uint64_t sub, std::uint64_t seq) {
  return (sub << 24) | (seq & 0xFFFFFF);
}

/// One run's results, printed as a single JSON line on stdout.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  void info(const std::string& name, double value) {
    info_.push_back({name, value, ""});
  }
  std::string json(const Options& opts, const Tally& tally) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> e2e_, layer_, info_;
};

/// The raw measurements behind the end-to-end metrics of one run.
struct E2E {
  double setup_s = 0;      // world build + subscription load + settle
  double measured_s = 0;   // publish through drain, wall
  std::uint64_t notifications = 0;  // received by clients
  std::vector<double>* latency_ms = nullptr;  // publish -> receipt, sim
  std::uint64_t sub_ops = 0;  // subscription operations completed ...
  double sub_ops_s = 0;       // ... in this much wall time
  double state_bytes_per_sub = 0;
  double state_bytes_per_node = 0;
};
void report_e2e(Report& report, const E2E& m);

/// Write the spans and profiler frames of a traced run to opts.trace_out.
void finish_trace(const Options& opts, const SpanLog& spans,
                  const gsalert::obs::Profiler& profiler);

// Workload entry points (storm.cpp, flood.cpp, churn.cpp).
void run_storm(const Options& opts, Report& report, Tally& tally);
void run_flood(const Options& opts, Report& report, Tally& tally);
void run_churn(const Options& opts, Report& report, Tally& tally);

}  // namespace perfbench
