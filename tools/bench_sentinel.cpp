// bench_sentinel — perf regression gate over the canonical bench reports.
//
// Every bench writes BENCH_<name>.json ({"bench":...,"meta":{topology,
// regions},"metrics":{counters,gauges,histograms}}). The sentinel diffs
// a directory of fresh reports
// against the checked-in baselines in bench/baselines/, applying
// per-metric tolerance bands from a rules file: seeded-simulation metrics
// are byte-stable and get tight (often zero) bands, wall-clock metrics
// (match CPU, fsync, recovery micros, profiler totals) get wide ones.
// Any breach — or a baselined metric that vanished — fails the run.
//
// Modes:
//   bench_sentinel --baselines DIR --current DIR [--tolerances FILE]
//   bench_sentinel --schema-check DIR     every report must carry the
//                                         meta block (topology + region
//                                         count) and the latency.* schema
//                                         (every e2e histogram field +
//                                         per-stage decomposition)
//   bench_sentinel --self-test            parser + rule engine + an
//                                         injected 2x latency regression
//                                         that MUST be caught
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the BENCH report shape (objects,
// arrays, strings, numbers, bools, null). No escapes beyond \" \\ \/ \n
// \t \r \b \f \uXXXX (decoded as '?' placeholder; metric names never use
// them).

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<std::pair<std::string, Json>> object;
  std::vector<Json> array;

  const Json* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> parse() {
    Json v;
    if (!value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

  std::string error() const { return error_; }

 private:
  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected '\"'");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u':
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          pos_ += 4;
          out.push_back('?');
          break;
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    try {
      out = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (...) {
      return fail("malformed number");
    }
    return true;
  }

  bool value(Json& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = Json::Type::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return fail("expected ':'");
        }
        ++pos_;
        Json child;
        if (!value(child)) return false;
        out.object.emplace_back(std::move(key), std::move(child));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out.type = Json::Type::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json child;
        if (!value(child)) return false;
        out.array.push_back(std::move(child));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.type = Json::Type::kString;
      return string(out.str);
    }
    if (c == 't') {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Json::Type::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.type = Json::Type::kNull;
      return literal("null");
    }
    out.type = Json::Type::kNumber;
    return number(out.number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Report flattening: one {key -> value} sample map per bench file. Scalar
// series keep their registry key; histogram/latency series fan out to
// key:field for each summary field, so rules can band quantiles
// individually. Keys are prefixed "<bench>/" so rules can scope a band to
// one bench (e.g. journal_recovery's wall-clock e2e vs fig2's sim-time
// e2e).

using Samples = std::map<std::string, double>;

const char* const kHistFields[] = {"count", "min",  "mean", "p50", "p90",
                                   "p95",   "p99",  "p999", "max"};

bool flatten_report(const Json& root, std::string& bench_name, Samples& out,
                    std::string& error) {
  const Json* bench = root.find("bench");
  const Json* metrics = root.find("metrics");
  if (bench == nullptr || bench->type != Json::Type::kString ||
      metrics == nullptr || metrics->type != Json::Type::kObject) {
    error = "not a BENCH report (missing \"bench\"/\"metrics\")";
    return false;
  }
  bench_name = bench->str;
  const std::string prefix = bench_name + "/";
  for (const char* group : {"counters", "gauges"}) {
    if (const Json* g = metrics->find(group)) {
      for (const auto& [key, v] : g->object) {
        if (v.type == Json::Type::kNumber) out[prefix + key] = v.number;
      }
    }
  }
  if (const Json* hists = metrics->find("histograms")) {
    for (const auto& [key, h] : hists->object) {
      if (h.type != Json::Type::kObject) continue;
      for (const char* field : kHistFields) {
        if (const Json* f = h.find(field)) {
          if (f->type == Json::Type::kNumber) {
            out[prefix + key + ":" + field] = f->number;
          }
        }
      }
    }
  }
  return true;
}

std::optional<Json> parse_file(const std::filesystem::path& path,
                               std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path.string();
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  JsonParser parser{text};
  auto parsed = parser.parse();
  if (!parsed) error = path.string() + ": " + parser.error();
  return parsed;
}

// ---------------------------------------------------------------------------
// Tolerance rules. One per line: `pattern direction tol_pct [abs_slack]`.
// Pattern is a glob over the flattened key ('*' matches any run,
// including '/'). direction: up = only growth is a regression, down =
// only shrinkage, both = either. First matching rule wins; keys no rule
// matches are not compared (wall-clock metrics nobody baselined stay
// advisory). `skip` as direction excludes a key explicitly.

struct Rule {
  std::string pattern;
  enum class Dir { kUp, kDown, kBoth, kSkip } dir = Rule::Dir::kBoth;
  double tol_pct = 0;
  double abs_slack = 0;
  int line = 0;
};

bool glob_match(const char* pattern, const char* text) {
  if (*pattern == '\0') return *text == '\0';
  if (*pattern == '*') {
    for (const char* t = text;; ++t) {
      if (glob_match(pattern + 1, t)) return true;
      if (*t == '\0') return false;
    }
  }
  if (*text == '\0') return false;
  if (*pattern != '?' && *pattern != *text) return false;
  return glob_match(pattern + 1, text + 1);
}

bool parse_rules(std::istream& in, const std::string& origin,
                 std::vector<Rule>& out) {
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    Rule rule;
    std::string dir;
    if (!(fields >> rule.pattern)) continue;  // blank / comment-only
    if (!(fields >> dir)) {
      std::fprintf(stderr, "%s:%d: rule needs `pattern dir [tol]`\n",
                   origin.c_str(), lineno);
      return false;
    }
    if (dir == "up") {
      rule.dir = Rule::Dir::kUp;
    } else if (dir == "down") {
      rule.dir = Rule::Dir::kDown;
    } else if (dir == "both") {
      rule.dir = Rule::Dir::kBoth;
    } else if (dir == "skip") {
      rule.dir = Rule::Dir::kSkip;
    } else {
      std::fprintf(stderr, "%s:%d: direction must be up|down|both|skip\n",
                   origin.c_str(), lineno);
      return false;
    }
    fields >> rule.tol_pct >> rule.abs_slack;  // optional; default 0
    rule.line = lineno;
    out.push_back(std::move(rule));
  }
  return true;
}

const Rule* first_match(const std::vector<Rule>& rules,
                        const std::string& key) {
  for (const Rule& rule : rules) {
    if (glob_match(rule.pattern.c_str(), key.c_str())) return &rule;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Comparison.

struct Regression {
  std::string key;
  std::string what;  // human-readable breach description
};

/// Diff `current` against `baseline` under `rules`, appending breaches.
/// Returns the number of samples actually compared (rule-matched).
std::size_t compare_samples(const Samples& baseline, const Samples& current,
                            const std::vector<Rule>& rules,
                            std::vector<Regression>& out) {
  std::size_t compared = 0;
  for (const auto& [key, base] : baseline) {
    const Rule* rule = first_match(rules, key);
    if (rule == nullptr || rule->dir == Rule::Dir::kSkip) continue;
    ++compared;
    const auto it = current.find(key);
    if (it == current.end()) {
      out.push_back({key, "metric disappeared from current report"});
      continue;
    }
    const double cur = it->second;
    const double allowed =
        std::abs(base) * rule->tol_pct / 100.0 + rule->abs_slack;
    char why[200];
    if ((rule->dir == Rule::Dir::kUp || rule->dir == Rule::Dir::kBoth) &&
        cur - base > allowed) {
      std::snprintf(why, sizeof why,
                    "rose %.6g -> %.6g (allowed +%.6g, rule line %d)", base,
                    cur, allowed, rule->line);
      out.push_back({key, why});
    } else if ((rule->dir == Rule::Dir::kDown ||
                rule->dir == Rule::Dir::kBoth) &&
               base - cur > allowed) {
      std::snprintf(why, sizeof why,
                    "fell %.6g -> %.6g (allowed -%.6g, rule line %d)", base,
                    cur, allowed, rule->line);
      out.push_back({key, why});
    }
  }
  return compared;
}

/// A canonical report file is BENCH_*.json (not a raw google-benchmark
/// dump, GBENCH_*).
bool is_canonical_report(const std::string& filename) {
  if (filename.rfind("BENCH_", 0) != 0) return false;
  return filename.size() >= 5 &&
         filename.substr(filename.size() - 5) == ".json";
}

std::vector<std::filesystem::path> list_reports(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        is_canonical_report(entry.path().filename().string())) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool load_report(const std::filesystem::path& path, std::string& bench,
                 Samples& samples) {
  std::string error;
  const auto parsed = parse_file(path, error);
  if (!parsed) {
    std::fprintf(stderr, "bench_sentinel: %s\n", error.c_str());
    return false;
  }
  if (!flatten_report(*parsed, bench, samples, error)) {
    std::fprintf(stderr, "bench_sentinel: %s: %s\n", path.string().c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// --schema-check: the observability contract every bench must honour.
// Each canonical report needs the end-to-end latency histogram with its
// full field set, and at least one per-stage decomposition series.

/// Check one parsed report; `name` labels the diagnostics.
bool schema_check_report(const Json& report, const std::string& name) {
  std::string bench;
  std::string error;
  Samples samples;
  if (!flatten_report(report, bench, samples, error)) {
    std::fprintf(stderr, "bench_sentinel: %s: %s\n", name.c_str(),
                 error.c_str());
    return false;
  }
  bool ok = true;
  // Every report must say what world it measured: a meta block naming
  // the WAN topology and its region count (docs/TOPOLOGY.md).
  const Json* meta = report.find("meta");
  const Json* topology =
      meta != nullptr ? meta->find("topology") : nullptr;
  const Json* regions = meta != nullptr ? meta->find("regions") : nullptr;
  if (meta == nullptr || meta->type != Json::Type::kObject ||
      topology == nullptr || topology->type != Json::Type::kString ||
      topology->str.empty() || regions == nullptr ||
      regions->type != Json::Type::kNumber || regions->number < 1) {
    std::fprintf(stderr,
                 "%s: missing/malformed meta block "
                 "(need {\"topology\":string,\"regions\":>=1})\n",
                 name.c_str());
    ok = false;
  }
  // The e2e series may be unlabeled (latency.e2e_ms:p99) or carry
  // per-config labels (latency.e2e_ms{servers=100}:p99); either form
  // satisfies the contract as long as every histogram field is present.
  for (const char* field : kHistFields) {
    const std::string prefix = bench + "/latency.e2e_ms";
    const std::string suffix = std::string(":") + field;
    bool found = false;
    for (const auto& [key, value] : samples) {
      if (key.rfind(prefix, 0) == 0 && key.size() >= suffix.size() &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "%s: missing latency.e2e_ms ... %s\n",
                   name.c_str(), field);
      ok = false;
    }
  }
  const std::string stage_prefix = bench + "/latency.stage.";
  bool has_stage = false;
  for (const auto& [key, value] : samples) {
    if (key.rfind(stage_prefix, 0) == 0) {
      has_stage = true;
      break;
    }
  }
  if (!has_stage) {
    std::fprintf(stderr, "%s: no latency.stage.* decomposition\n",
                 name.c_str());
    ok = false;
  }
  return ok;
}

bool schema_check_file(const std::filesystem::path& path) {
  std::string error;
  const auto parsed = parse_file(path, error);
  if (!parsed) {
    std::fprintf(stderr, "bench_sentinel: %s\n", error.c_str());
    return false;
  }
  return schema_check_report(*parsed, path.filename().string());
}

int run_schema_check(const std::filesystem::path& dir) {
  const auto reports = list_reports(dir);
  if (reports.empty()) {
    std::fprintf(stderr, "bench_sentinel: no BENCH_*.json under %s\n",
                 dir.string().c_str());
    return 1;
  }
  bool ok = true;
  for (const auto& path : reports) {
    ok = schema_check_file(path) && ok;
  }
  std::printf("schema-check: %zu report(s) under %s: %s\n", reports.size(),
              dir.string().c_str(), ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --baselines / --current comparison.

int run_compare(const std::filesystem::path& baselines,
                const std::filesystem::path& current,
                const std::filesystem::path& tolerances) {
  std::vector<Rule> rules;
  {
    std::ifstream in(tolerances);
    if (!in) {
      std::fprintf(stderr, "bench_sentinel: cannot open tolerances %s\n",
                   tolerances.string().c_str());
      return 2;
    }
    if (!parse_rules(in, tolerances.string(), rules)) return 2;
  }
  const auto base_files = list_reports(baselines);
  if (base_files.empty()) {
    std::fprintf(stderr, "bench_sentinel: no baselines under %s\n",
                 baselines.string().c_str());
    return 2;
  }
  std::vector<Regression> regressions;
  std::size_t compared = 0;
  std::size_t benches = 0;
  for (const auto& base_path : base_files) {
    const auto cur_path = current / base_path.filename();
    if (!std::filesystem::exists(cur_path)) {
      regressions.push_back({base_path.filename().string(),
                             "no current report (bench not run or broken)"});
      continue;
    }
    std::string base_bench;
    std::string cur_bench;
    Samples base;
    Samples cur;
    if (!load_report(base_path, base_bench, base) ||
        !load_report(cur_path, cur_bench, cur)) {
      return 2;
    }
    ++benches;
    compared += compare_samples(base, cur, rules, regressions);
  }
  std::printf("bench_sentinel: %zu bench(es), %zu metric(s) compared, "
              "%zu regression(s)\n",
              benches, compared, regressions.size());
  for (const auto& r : regressions) {
    std::printf("  REGRESSION %s: %s\n", r.key.c_str(), r.what.c_str());
  }
  return regressions.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --self-test: exercise the parser, the rule engine and the gate itself.
// The injected case is the one the sentinel exists for: current p99 at 2x
// the baseline must be reported as a regression.

const char* const kSelfTestBaseline = R"({"bench":"selftest","metrics":{
  "counters":{"outcome.delivered":42,"bench.messages":1000},
  "gauges":{"profiler.overhead_fraction":0.01,
            "delivery.queue_depth":0,"delivery.max_queue_depth":24},
  "histograms":{
    "latency.e2e_ms":{"count":64,"mean":12,"p50":10,"p95":30,"p99":40,
                      "p999":44,"max":44,"buckets":[[16,50],[32,10],[64,4]]},
    "latency.stage.flood_ms":{"count":64,"mean":4,"p50":4,"p95":6,"p99":8,
                              "p999":8,"max":8,"buckets":[[8,64]]}}}})";

// A report honouring the schema contract; the self-test also checks a
// copy without its p90 field, which must fail.
const char* const kSelfTestSchemaReport = R"({"bench":"selftest",
  "meta":{"topology":"uniform","regions":1},"metrics":{"histograms":{
    "latency.e2e_ms":{"count":4,"min":1,"mean":2.5,"p50":2,"p90":4,"p95":4,
                      "p99":4,"p999":4,"max":4,"buckets":[[1,1],[2,1],[3,1],
                      [4,1]]},
    "latency.stage.flood_ms":{"count":0}}}})";

const char* const kSelfTestRules =
    "# self-test bands\n"
    "*/latency.e2e_ms:count both 0\n"
    "*/latency.*:p99 up 75\n"
    "*/latency.* up 100 0.5\n"
    "*/outcome.* both 0\n"
    "*/bench.* both 1\n"
    "*/delivery.* both 0\n"
    "*/profiler.* skip\n";

std::optional<Samples> self_test_samples(const std::string& text) {
  JsonParser parser{text};
  auto parsed = parser.parse();
  if (!parsed) {
    std::fprintf(stderr, "self-test: parse failed: %s\n",
                 parser.error().c_str());
    return std::nullopt;
  }
  Samples samples;
  std::string bench;
  std::string error;
  if (!flatten_report(*parsed, bench, samples, error)) {
    std::fprintf(stderr, "self-test: flatten failed: %s\n", error.c_str());
    return std::nullopt;
  }
  return samples;
}

int run_self_test() {
  int failures = 0;
  const auto expect = [&](bool cond, const char* what) {
    std::printf("  %-58s %s\n", what, cond ? "ok" : "FAIL");
    if (!cond) ++failures;
  };

  std::vector<Rule> rules;
  std::istringstream rule_text{kSelfTestRules};
  if (!parse_rules(rule_text, "(self-test)", rules)) return 1;
  expect(rules.size() == 7, "rule file parses (7 rules)");
  expect(glob_match("*/latency.*:p99", "selftest/latency.e2e_ms:p99"),
         "glob matches scoped key");
  expect(!glob_match("*/latency.*:p99", "selftest/latency.e2e_ms:p95"),
         "glob rejects other field");

  const auto baseline = self_test_samples(kSelfTestBaseline);
  if (!baseline) return 1;
  expect(baseline->at("selftest/latency.e2e_ms:p99") == 40,
         "flatten extracts histogram quantile");
  expect(baseline->at("selftest/outcome.delivered") == 42,
         "flatten extracts counter");

  // Identical reports: clean pass.
  std::vector<Regression> none;
  compare_samples(*baseline, *baseline, rules, none);
  expect(none.empty(), "identical reports pass");

  // Injected 2x latency regression: p99 40 -> 80 must breach the 75%
  // band. Everything else untouched.
  Samples regressed = *baseline;
  regressed["selftest/latency.e2e_ms:p99"] = 80;
  std::vector<Regression> caught;
  compare_samples(*baseline, regressed, rules, caught);
  expect(caught.size() == 1 &&
             caught[0].key == "selftest/latency.e2e_ms:p99",
         "injected 2x p99 regression is caught");

  // An improvement in an up-only metric is not a regression.
  Samples improved = *baseline;
  improved["selftest/latency.e2e_ms:p99"] = 5;
  std::vector<Regression> improvements;
  compare_samples(*baseline, improved, rules, improvements);
  expect(improvements.empty(), "latency improvement passes an up-only band");

  // A deterministic counter drifting at all must trip its zero band.
  Samples drifted = *baseline;
  drifted["selftest/outcome.delivered"] = 41;
  std::vector<Regression> drift;
  compare_samples(*baseline, drifted, rules, drift);
  expect(drift.size() == 1, "zero-band counter drift is caught");

  // A baselined metric that vanished is a failure, not a skip.
  Samples missing = *baseline;
  missing.erase("selftest/latency.stage.flood_ms:p50");
  std::vector<Regression> gone;
  compare_samples(*baseline, missing, rules, gone);
  expect(gone.size() == 1, "vanished baselined metric is caught");

  // Delivery queue-depth series shape: the drained depth must stay at
  // zero and the seeded storm peak must not move — a deeper queue under
  // the same workload is a backpressure regression even if latency and
  // notification counts still pass their own bands.
  Samples deeper = *baseline;
  deeper["selftest/delivery.max_queue_depth"] = 48;
  std::vector<Regression> depth_grew;
  compare_samples(*baseline, deeper, rules, depth_grew);
  expect(depth_grew.size() == 1 &&
             depth_grew[0].key == "selftest/delivery.max_queue_depth",
         "queue-depth growth trips the delivery zero band");
  Samples undrained = *baseline;
  undrained["selftest/delivery.queue_depth"] = 3;
  std::vector<Regression> leftover;
  compare_samples(*baseline, undrained, rules, leftover);
  expect(leftover.size() == 1, "undrained queue at quiescence is caught");

  // Schema check: the full histogram field set is required on the e2e
  // series, so a report that lost p90 fails.
  std::string schema_text = kSelfTestSchemaReport;
  const auto schema_report = JsonParser{schema_text}.parse();
  expect(schema_report && schema_check_report(*schema_report, "(self-test)"),
         "complete report passes the schema check");
  const std::string p90 = "\"p90\":4,";
  schema_text.erase(schema_text.find(p90), p90.size());
  const auto no_p90 = JsonParser{schema_text}.parse();
  expect(no_p90 && !schema_check_report(*no_p90, "(self-test, no p90)"),
         "report missing p90 fails the schema check");

  // Skip rules really skip: profiler gauge may move freely.
  Samples profiler_moved = *baseline;
  profiler_moved["selftest/profiler.overhead_fraction"] = 0.9;
  std::vector<Regression> skipped;
  compare_samples(*baseline, profiler_moved, rules, skipped);
  expect(skipped.empty(), "skip-rule metrics are not compared");

  std::printf("self-test: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path baselines;
  std::filesystem::path current;
  std::filesystem::path tolerances;
  std::filesystem::path schema_dir;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_sentinel: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baselines") {
      baselines = next();
    } else if (arg == "--current") {
      current = next();
    } else if (arg == "--tolerances") {
      tolerances = next();
    } else if (arg == "--schema-check") {
      schema_dir = next();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      std::fprintf(
          stderr,
          "usage: bench_sentinel --baselines DIR --current DIR "
          "[--tolerances FILE] | --schema-check DIR | --self-test\n");
      return 2;
    }
  }
  if (self_test) return run_self_test();
  if (!schema_dir.empty()) return run_schema_check(schema_dir);
  if (baselines.empty() || current.empty()) {
    std::fprintf(stderr,
                 "bench_sentinel: need --baselines and --current "
                 "(or --self-test / --schema-check)\n");
    return 2;
  }
  if (tolerances.empty()) tolerances = baselines / "tolerances.txt";
  return run_compare(baselines, current, tolerances);
}
