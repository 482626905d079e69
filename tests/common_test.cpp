#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/histogram.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/types.h"

namespace gsalert {
namespace {

// ---------- SimTime ----------------------------------------------------

TEST(SimTimeTest, ConstructionAndConversion) {
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3000);
  EXPECT_EQ(SimTime::seconds(2).as_micros(), 2'000'000);
  EXPECT_DOUBLE_EQ(SimTime::micros(1500).as_millis(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::millis(2500).as_seconds(), 2.5);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime t = SimTime::millis(10);
  t += SimTime::millis(5);
  EXPECT_EQ(t, SimTime::millis(15));
  EXPECT_EQ(t - SimTime::millis(5), SimTime::millis(10));
  EXPECT_EQ(SimTime::millis(2) * 3, SimTime::millis(6));
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ(SimTime::zero(), SimTime::micros(0));
  EXPECT_GT(SimTime::seconds(1), SimTime::millis(999));
}

// ---------- NodeId / CollectionRef --------------------------------------

TEST(NodeIdTest, InvalidByDefault) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(NodeId{7}.valid());
}

TEST(CollectionRefTest, StrAndOrdering) {
  CollectionRef ref{"Hamilton", "D"};
  EXPECT_EQ(ref.str(), "Hamilton.D");
  CollectionRef other{"London", "E"};
  EXPECT_NE(ref, other);
  EXPECT_LT(ref, other);  // lexicographic on (host, name)
}

TEST(CollectionRefTest, HashDistinguishesHostAndName) {
  std::hash<CollectionRef> h;
  EXPECT_NE(h(CollectionRef{"A", "B"}), h(CollectionRef{"B", "A"}));
}

// ---------- Error / Result ----------------------------------------------

TEST(ErrorTest, CodeNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kNotFound), "not_found");
  EXPECT_STREQ(error_code_name(ErrorCode::kDecodeFailure), "decode_failure");
}

TEST(ErrorTest, StrIncludesMessage) {
  Error e{ErrorCode::kTimeout, "resolve q1"};
  EXPECT_EQ(e.str(), "timeout: resolve q1");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r{ErrorCode::kNotFound, "x"};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  Status bad{ErrorCode::kUnreachable, "down"};
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kUnreachable);
}

// ---------- Rng -----------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a{12345}, b{12345};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng{7};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ZipfRankZeroMostPopular) {
  Rng rng{99};
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[rng.zipf(10, 1.0)]++;
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, ZipfCacheSwitches) {
  Rng rng{99};
  // Alternate (n, s) pairs; all results must stay in range.
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.zipf(5, 0.8), 5u);
    EXPECT_LT(rng.zipf(50, 1.2), 50u);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng{4242};
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(10.0);
  EXPECT_NEAR(total / n, 10.0, 0.5);
}

// ---------- Histogram ------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.p50(), 50);
  // 99 lies in [64, 128), whose sub-buckets are 2 wide: [98, 100).
  EXPECT_DOUBLE_EQ(h.p99(), 98);
}

TEST(HistogramTest, QuantileEdges) {
  Histogram h;
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.record(1.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.heap_bytes(), 0u);
}

TEST(HistogramTest, RecordAfterQuantileResorts) {
  Histogram h;
  h.record(10.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  h.record(20.0);
  EXPECT_DOUBLE_EQ(h.max(), 20.0);
}

TEST(HistogramTest, EmptyReportsZeroAndOwnsNoHeap) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0.0);
  }
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.summary(), "count=0");
  EXPECT_EQ(h.json(), "{\"count\":0}");
  EXPECT_EQ(h.heap_bytes(), 0u);
}

TEST(HistogramTest, SummaryEmpty) {
  const Histogram h;
  EXPECT_EQ(h.summary(), "count=0");
}

TEST(HistogramTest, SummaryOneLiner) {
  Histogram h;
  for (int i = 1; i <= 4; ++i) h.record(i);
  EXPECT_EQ(h.summary(),
            "count=4 min=1 mean=2.5 p50=2 p90=4 p95=4 p99=4 p999=4 max=4");
}

TEST(HistogramTest, ExtendedQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  // [512, 1024) has 16-wide sub-buckets: 950 -> 944, 990 -> 976,
  // 999 -> 992.
  EXPECT_DOUBLE_EQ(h.p95(), 944.0);
  EXPECT_DOUBLE_EQ(h.p99(), 976.0);
  EXPECT_DOUBLE_EQ(h.p999(), 992.0);
}

TEST(HistogramTest, JsonListsOccupiedBucketsAndClampsNonPositive) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);  // clamps to 0
  h.record(std::nan(""));  // clamps to 0
  h.record(3.0);
  h.record(3.0);
  h.record(100.0);  // bucket [100, 102)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  const std::string json = h.json();
  EXPECT_NE(json.find("\"buckets\":[[0,3],[3,2],[100,1]]"), std::string::npos)
      << json;
}

TEST(HistogramTest, BucketBoundariesAreLogLinear) {
  // Each octave splits into 32 equal sub-buckets; a quantile reports the
  // lower bound of its bucket (clamped to [min, max], so probe each value
  // next to a smaller one).
  const auto lower_bound = [](double v) {
    Histogram h;
    h.record(0.0);
    h.record(v);
    return h.quantile(1.0);
  };
  EXPECT_DOUBLE_EQ(lower_bound(64.0), 64.0);
  EXPECT_DOUBLE_EQ(lower_bound(65.0), 64.0);
  EXPECT_DOUBLE_EQ(lower_bound(66.0), 66.0);
  EXPECT_DOUBLE_EQ(lower_bound(1024.0 + 31.9), 1024.0);
  EXPECT_DOUBLE_EQ(lower_bound(1024.0 + 32.0), 1056.0);
  EXPECT_DOUBLE_EQ(lower_bound(0.75), 0.75);
  EXPECT_DOUBLE_EQ(lower_bound(0.7), 0.6875);
  EXPECT_DOUBLE_EQ(lower_bound(std::ldexp(1.0, -16)), 0.0);
  EXPECT_DOUBLE_EQ(lower_bound(std::ldexp(1.0, -15)), std::ldexp(1.0, -15));
  EXPECT_DOUBLE_EQ(lower_bound(std::ldexp(1.0, 47)), std::ldexp(1.0, 47));
}

TEST(HistogramTest, QuantilesAreBucketLowerBoundsClampedToMinMax) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(3.3);  // bucket [3.25, 3.3125)
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.3);
  // Clamped to the observed min: a single-bucket population reports
  // the true value, not the bucket's lower bound.
  EXPECT_DOUBLE_EQ(h.p50(), 3.3);
  EXPECT_DOUBLE_EQ(h.p999(), 3.3);
  // A far outlier moves only the tail quantiles.
  h.record(1000.0);  // bucket [992, 1008)
  EXPECT_DOUBLE_EQ(h.p50(), 3.3);
  EXPECT_DOUBLE_EQ(h.p999(), 992.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

// Regression: the log2 histogram clamped quantiles to max(max, 1), so a
// series of sub-1 samples reported p50 = 1, above its own max.
TEST(HistogramTest, SubOneSamplesKeepQuantilesWithinMinMax) {
  const std::vector<double> samples = {0.068, 0.021, 0.034, 0.052};
  Histogram h;
  for (const double v : samples) h.record(v);
  const double lo = *std::min_element(samples.begin(), samples.end());
  const double hi = *std::max_element(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(h.min(), lo);
  EXPECT_DOUBLE_EQ(h.max(), hi);
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_GE(h.quantile(q), lo) << "q=" << q;
    EXPECT_LE(h.quantile(q), hi) << "q=" << q;
  }
}

// Exact nearest-rank over a sorted copy: the reference the bucketed
// quantiles are held to.
double exact_quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

TEST(HistogramTest, MatchesExactNearestRankWithinRelativeError) {
  Rng rng{0x5EED};
  const double qs[] = {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0};
  std::lognormal_distribution<double> lognormal(1.0, 1.5);
  using Gen = std::function<double()>;
  const std::vector<std::pair<const char*, Gen>> inputs = {
      {"lognormal", [&] { return lognormal(rng.engine()); }},
      {"uniform", [&] { return rng.uniform() * 5000.0; }},
      {"small-integer",
       [&] { return static_cast<double>(rng.uniform_int(0, 63)); }},
      {"sub-1", [&] { return 0.001 + rng.uniform() * 0.998; }},
      {"constant", [] { return 40.0; }},
  };
  for (const auto& [name, gen] : inputs) {
    for (int trial = 0; trial < 20; ++trial) {
      // Trial 0 is the single-sample case.
      const std::size_t n =
          trial == 0 ? 1 : static_cast<std::size_t>(rng.uniform_int(2, 3000));
      Histogram h;
      std::vector<double> sorted;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = gen();
        h.record(v);
        sorted.push_back(v);
      }
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(h.count(), n);
      EXPECT_EQ(h.min(), sorted.front()) << name;
      EXPECT_EQ(h.max(), sorted.back()) << name;
      double prev = 0.0;
      for (const double q : qs) {
        const double got = h.quantile(q);
        const double want = exact_quantile(sorted, q);
        if (want == std::floor(want) && want < 64.0) {
          EXPECT_EQ(got, want) << name << " n=" << n << " q=" << q;
        } else {
          EXPECT_LT(std::abs(got - want) / want, 1.0 / 32)
              << name << " n=" << n << " q=" << q << " got " << got
              << " want " << want;
        }
        EXPECT_GE(got, prev) << name << " quantiles not monotone at q=" << q;
        prev = got;
      }
    }
  }
}

TEST(HistogramTest, MergeAddsAndClearResets) {
  Rng rng{7};
  Histogram a, b, both;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.exponential(20.0);
    const double y = 1000.0 + rng.exponential(300.0);
    a.record(x);
    b.record(y);
    both.record(x);
    both.record(y);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-9 * both.mean());
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.quantile(q), both.quantile(q)) << "q=" << q;
  }
  // Same occupied buckets with the same counts.
  const std::string buckets_a = a.json().substr(a.json().find("\"buckets\""));
  const std::string buckets_both =
      both.json().substr(both.json().find("\"buckets\""));
  EXPECT_EQ(buckets_a, buckets_both);
  // Merging into an empty histogram copies; merging an empty one is a
  // no-op.
  Histogram empty;
  empty.merge(b);
  EXPECT_EQ(empty.json(), b.json());
  both.merge(Histogram{});
  EXPECT_EQ(a.count(), both.count());
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.json(), "{\"count\":0}");
}

TEST(HistogramTest, JsonCarriesQuantilesAndBuckets) {
  Histogram h;
  h.record(3.0);
  const std::string json = h.json();
  for (const char* field : {"\"count\":1", "\"min\":3", "\"mean\":3",
                            "\"p50\":3", "\"p90\":3", "\"p95\":3",
                            "\"p99\":3", "\"p999\":3", "\"max\":3",
                            "\"buckets\":[[3,1]]"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }
}

TEST(HistogramTest, ExtremesStayWithinMaxBuckets) {
  Histogram h;
  for (const double v : {1e-300, 1e300, std::nan(""), -1.0, -1e300, 5.0}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0.0);  // NaN and negatives clamp to 0
  EXPECT_EQ(h.max(), 1e300);
  EXPECT_LE(h.heap_bytes(), Histogram::kMaxBuckets * sizeof(std::uint64_t));
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), std::ldexp(1.0 + 31.0 / 32, 47));
}

TEST(HistogramTest, RecordingAllocatesOnlyTheTouchedRange) {
  Histogram h;
  h.record(40.0);
  EXPECT_EQ(h.heap_bytes(), sizeof(std::uint64_t));
  h.record(60.0);  // 40 and 60 are 20 sub-buckets apart in [32, 64)
  EXPECT_EQ(h.heap_bytes(), 21 * sizeof(std::uint64_t));
}

// ---------- log -------------------------------------------------------------

TEST(LogTest, ComponentOverrideBeatsGlobal) {
  set_log_level(LogLevel::kWarn);
  clear_component_levels();
  EXPECT_FALSE(log_enabled(LogLevel::kDebug, "gds-1"));
  set_component_level("gds-1", LogLevel::kDebug);
  EXPECT_TRUE(log_enabled(LogLevel::kDebug, "gds-1"));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug, "gds-2"));
  clear_component_levels();
}

TEST(LogTest, ApplyLogSpecParsesGlobalAndComponents) {
  apply_log_spec("info,gds-3=trace,bogus=nosuchlevel");
  EXPECT_EQ(log_level(), LogLevel::kInfo);
  EXPECT_TRUE(log_enabled(LogLevel::kTrace, "gds-3"));
  EXPECT_TRUE(log_enabled(LogLevel::kInfo, "other"));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug, "other"));
  // Unknown level names are ignored, not applied.
  EXPECT_FALSE(log_enabled(LogLevel::kTrace, "bogus"));
  set_log_level(LogLevel::kWarn);
  clear_component_levels();
}

TEST(LogTest, JsonlMirrorEscapesAndFormats) {
  const std::string path = ::testing::TempDir() + "gsalert_log_test.jsonl";
  ASSERT_TRUE(open_json_log(path));
  log_line(LogLevel::kError, SimTime::millis(12), "gds-1", "say \"hi\"");
  close_json_log();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"t_ms\":12.000,\"level\":\"ERROR\",\"component\":\"gds-1\","
            "\"msg\":\"say \\\"hi\\\"\"}");
}

TEST(LogTest, ObserverSeesOnlyEnabledLines) {
  set_log_level(LogLevel::kWarn);
  std::vector<std::string> seen;
  set_log_observer([&](LogLevel, SimTime, const std::string&,
                       const std::string& msg) { seen.push_back(msg); });
  log_line(LogLevel::kDebug, SimTime{}, "x", "dropped");
  log_line(LogLevel::kError, SimTime{}, "x", "kept");
  set_log_observer(nullptr);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "kept");
}

// ---------- strings ---------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyPieces) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("Hamilton.D"), "hamilton.d");
}

TEST(StringsTest, LowerHelpersAgreeWithToLower) {
  // Every byte value, short strings so prefixes and case-only differences
  // collide often: each helper must answer what comparing to_lower()
  // copies answers.
  std::mt19937 gen{7};
  const std::string alphabet = "aAbBzZ@[`{*?09 \x80\xC3\xFF";
  auto random_text = [&](std::size_t max_len) {
    std::string out(std::uniform_int_distribution<std::size_t>{0, max_len}(gen),
                    ' ');
    for (char& c : out) {
      c = gen() % 4 == 0
              ? static_cast<char>(gen() % 256)
              : alphabet[gen() % alphabet.size()];
    }
    return out;
  };
  const auto sign = [](int v) { return (v > 0) - (v < 0); };
  for (int i = 0; i < 20000; ++i) {
    const std::string a = random_text(4);
    const std::string b = i % 3 == 0 ? to_lower(a) : random_text(4);
    EXPECT_EQ(sign(compare_lower(a, b)), sign(to_lower(a).compare(to_lower(b))))
        << a << " vs " << b;
    EXPECT_EQ(equals_lower(a, b), to_lower(a) == b) << a << " vs " << b;
    const std::string pattern = random_text(3);
    EXPECT_EQ(wildcard_match_lower(pattern, a),
              wildcard_match(pattern, to_lower(a)))
        << pattern << " vs " << a;
  }
}

TEST(StringsTest, WildcardExact) {
  EXPECT_TRUE(wildcard_match("abc", "abc"));
  EXPECT_FALSE(wildcard_match("abc", "abd"));
  EXPECT_FALSE(wildcard_match("abc", "ab"));
}

TEST(StringsTest, WildcardStar) {
  EXPECT_TRUE(wildcard_match("net*", "networking"));
  EXPECT_TRUE(wildcard_match("net*", "net"));
  EXPECT_TRUE(wildcard_match("*work*", "networking"));
  EXPECT_FALSE(wildcard_match("net*", "internet"));
  EXPECT_TRUE(wildcard_match("*", ""));
  EXPECT_TRUE(wildcard_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(wildcard_match("a*b*c", "acb"));
}

TEST(StringsTest, WildcardQuestionMark) {
  EXPECT_TRUE(wildcard_match("a?c", "abc"));
  EXPECT_FALSE(wildcard_match("a?c", "ac"));
}

TEST(StringsTest, Tokenize) {
  const auto terms = tokenize("The Quick, brown-fox! 42");
  const std::vector<std::string> expected{"the", "quick", "brown", "fox",
                                          "42"};
  EXPECT_EQ(terms, expected);
}

TEST(StringsTest, TokenizeEmpty) {
  EXPECT_TRUE(tokenize("  ,.!  ").empty());
}

}  // namespace
}  // namespace gsalert
